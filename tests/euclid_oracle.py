"""Polynomial Euclid and gcd-reducing rational-function arithmetic, kept
as a test oracle.

The package builds each rational function it returns in lowest terms
from its known linear factors and takes no polynomial gcd.  The code
that did -- the Euclidean gcd, the reduction it drove in the
RationalFunction constructor and the reducing + - * -- lives on here,
unchanged up to spelling ``divmod`` for ``//`` and ``%``, so that the
oracles in the tests compare against the exact arithmetic that ran
before.
"""

from morita.exact import Poly, RationalFunction, ZeroDenominator, quotient


def monic(p):
    if p.is_zero():
        return p
    lc = p.coeffs[-1]
    return Poly([quotient(c, lc) for c in p.coeffs])


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm (monic 1 for coprime inputs)."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return monic(a)


class Reduced(RationalFunction):
    """Reduced ratio num/den of Polys: gcd divided out, den monic, with
    + - * reducing again; ints, Fractions, Polys and RationalFunctions
    coerce."""

    __slots__ = ()

    def __init__(self, num, den=Poly([1])):
        if not isinstance(num, Poly):
            num = Poly([num])
        if not isinstance(den, Poly):
            den = Poly([den])
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero():
            num, den = divmod(num, g)[0], divmod(den, g)[0]
        lc = den.coeffs[-1]
        super().__init__(num * quotient(1, lc), monic(den))

    def __add__(self, other):
        other = self._coerce(other)
        return Reduced(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return Reduced(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return Reduced(other.num, other.den)
        if isinstance(other, Poly):
            return Reduced(other)
        return Reduced(Poly([other]))

