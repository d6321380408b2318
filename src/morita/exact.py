"""Exact scalar and univariate polynomial arithmetic.

One scalar rule holds across the package: an integral value is a Python
``int`` and any other value a ``fractions.Fraction`` -- no floats
anywhere.  ``rational`` brings a value under the rule and ``quotient``
divides under it; no other code builds a Fraction.  Polynomials are dense
tuples of such scalars indexed by degree, with + - * and one division,
divmod.  On top of that we provide rational functions, partial fraction
expansions at given simple integer poles with their numerator over a
common denominator, and integer-root extraction for monic integer
polynomials, which serves classify.

Integer roots come from exact integer bisection on the pieces where the
polynomial is monotone, not from trial division, so the work grows with
log|c0| for the constant term c0, not with sqrt|c0|.

A RationalFunction is a value, not an arithmetic: its constructor stores
num and a monic den as given and takes no gcd, and it has no + - *.
Each one the package returns is built from products of integer linear
factors, in lowest terms by cancelling the factors the two sides share
(G_lam = dim - chi_B puts the difference of two such products over
chi_B's denominator), so no polynomial gcd runs anywhere in the package.
"""

from fractions import Fraction
from functools import lru_cache
from math import prod


class ZeroDenominator(ZeroDivisionError):
    pass


class DegreeError(ValueError):
    pass


class NonSimplePoles(ValueError):
    pass


class NotMonicInteger(ValueError):
    pass


class NonIntegerPole(ValueError):
    pass


class PoleNotRoot(ValueError):
    """A common denominator that does not vanish at a pole it must carry."""


class OutOfRange(ValueError):
    """An integer argument outside the range the function is defined on."""


def _check_degree(degree):
    if degree < 0:
        raise OutOfRange("degree must be nonnegative, got %d" % degree)


def rational(x):
    """x as an exact scalar: an int when x is integral, else a Fraction.

    Accepts ints, Fractions, floats (converted exactly) and the strings
    Fraction accepts."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def quotient(a, b):
    """a / b exactly, under the rule of `rational`.  Raises
    ZeroDivisionError for b = 0 and TypeError for a float operand."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return rational(Fraction(a, b))


class Poly:
    """Dense univariate polynomial with exact coefficients.

    coeffs[i] is the coefficient of x**i, an int when integral and a
    Fraction otherwise; trailing zeros are stripped, so the zero
    polynomial has an empty coefficient list.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # ints, the common case, skip rational's call
        cs = [c if type(c) is int else rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, roots):
        """Monic product of (x - r) over the given roots."""
        cs = [1]
        for r in roots:
            if type(r) is not int:
                r = rational(r)
            cs = [a - r * b for a, b in zip([0] + cs, cs + [0])]
        return cls(cs)

    @property
    def degree(self):
        # -1 for the zero polynomial
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def has_integer_coeffs(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule with exact arithmetic."""
        if type(x) is not int:
            x = rational(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if type(acc) is int else rational(acc)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = other if type(other) is int else rational(other)
            return Poly([c * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other):
        return self * other

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        if other.is_zero():
            raise ZeroDenominator("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = self.degree, other.degree
        if dd < dv:
            return Poly(), self
        quot = [0] * (dd - dv + 1)
        lc = other.coeffs[-1]
        for i in range(dd - dv, -1, -1):
            c = quotient(rem[i + dv], lc)
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly(quot), Poly(rem)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%s*x" % c)
            else:
                terms.append("%s*x^%d" % (c, i))
        return "Poly(%s)" % " + ".join(terms)

    def to_json(self):
        return [str(c) for c in self.coeffs]


class RationalFunction:
    """The ratio num/den of Polys, stored as given: no gcd is taken.

    den must be monic.  The value is in lowest terms exactly when num
    and den are coprime, which every function of the package that
    returns one guarantees by building it from its linear factors.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if not den.is_monic():
            raise ValueError("denominator must be monic, got %r" % (den,))
        self.num, self.den = num, den

    def __eq__(self, other):
        # by cross-multiplication, so that unreduced forms compare by value
        if isinstance(other, RationalFunction):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDenominator("evaluation at a pole")
        return quotient(self.num(x), d)

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


class PartialFraction:
    """Sum of residue/(x - pole) over distinct integer poles."""

    __slots__ = ("residues",)

    def __init__(self, residues):
        self.residues = {}
        for p, r in residues.items():
            pole = p if type(p) is int else rational(p)
            if type(pole) is not int:
                raise NonIntegerPole("pole %r is not an integer" % (p,))
            self.residues[pole] = r if type(r) is int else rational(r)

    def numerator_over(self, den):
        """sum r_p * den/(x - p) over the poles with nonzero residue, one
        synthetic division each; PoleNotRoot unless den vanishes there."""
        num = [0] * den.degree  # empty for den = 0 (degree -1)
        for p, r in self.residues.items():
            if r and den.coeffs:
                quot, rem = _divide_root(den.coeffs, p)
                if rem:
                    raise PoleNotRoot("denominator does not vanish at the pole %d" % p)
                for i, c in enumerate(quot):
                    num[i] += r * c
        return Poly(num)

    def __eq__(self, other):
        if isinstance(other, PartialFraction):
            return self.residues == other.residues
        return NotImplemented

    def __repr__(self):
        return "PartialFraction(%r)" % (self.residues,)


def _divide_root(cs, r):
    """Synthetic division of the integer polynomial cs (ascending
    coefficients) by x - r: the quotient's coefficients and the
    remainder cs(r)."""
    acc, out = 0, []
    for c in reversed(cs):
        acc = acc * r + c
        out.append(acc)
    return out[-2::-1], out[-1]


def _value(rcs, x):
    """The integer polynomial with descending coefficients rcs at x, by
    Horner's rule."""
    acc = 0
    for c in rcs:
        acc = acc * x + c
    return acc


def _bisect(rcs, a, b, positive):
    """Integer bisection of a polynomial (descending coefficients rcs),
    strictly monotone on [a, b], nonzero of the sign `positive` at a and
    of the other sign at b: (t, True) for an integer root t, else
    (t, False) with the root in (t - 1, t)."""
    while b - a > 1:
        m = (a + b) // 2
        v = _value(rcs, m)
        if not v:
            return m, True
        if (v > 0) == positive:
            a = m
        else:
            b = m
    return b, False


def _locate(cs, pts):
    """The integer roots of cs (ascending coefficients) from the first
    to the last of the sorted integers pts, and the ceiling of each
    other root in a step of pts of two or more, on each of which cs must
    be strictly monotone.  A root inside a unit step is no integer and
    is not located."""
    rcs = cs[::-1]
    vals = [_value(rcs, x) for x in pts]
    zeros = [x for x, v in zip(pts, vals) if not v]
    ceilings = []
    for a, b, va, vb in zip(pts, pts[1:], vals, vals[1:]):
        if b - a > 1 and (va < 0 < vb or vb < 0 < va):
            t, zero = _bisect(rcs, a, b, va > 0)
            (zeros if zero else ceilings).append(t)
    return zeros, ceilings


def _breakpoints(cs, lo, hi):
    """Sorted integers from lo to hi, both included, such that cs
    (ascending coefficients, positive leading one) is strictly monotone
    between any two consecutive ones at least 2 apart, and so monotone
    on the integers of every step.

    That holds once the floor and ceiling of each real root of cs' in
    (lo, hi) are among them.  A linear cs' = d0 + d1 x has the root
    -d0/d1.  Otherwise `_locate` finds each root of cs' in a long step
    of its own breakpoints, and each root inside a unit step (two can
    lie in one) has that step's ends: so every breakpoint of cs' is
    passed up, not only the brackets of sign changes."""
    if len(cs) <= 2:
        return [lo, hi]
    deriv = [i * c for i, c in enumerate(cs)][1:]
    if len(deriv) == 2:
        marks = (-deriv[0] // deriv[1], -(deriv[0] // deriv[1]))
        return sorted({lo, hi}.union(x for x in marks if lo < x < hi))
    pts = _breakpoints(deriv, lo, hi)
    zeros, ceilings = _locate(deriv, pts)
    return sorted(set(pts).union(zeros, ceilings, [t - 1 for t in ceilings]))


def rational_roots(p):
    """All integer roots (with multiplicity) of a monic integer polynomial.

    After the roots at zero, every integer root of the quotient divides
    its constant term c0 != 0, so it lies in [-B, B] for B = |c0|
    (Cauchy's bound 1 + max|c_i| is never smaller).  The quotient is
    monotone on the integers between its breakpoints there, so a root is
    a breakpoint where it vanishes or the zero that integer bisection
    meets across a change of sign.  Each root is divided out by synthetic
    division as often as it divides.  Work: O(deg^3 + deg^2 log B)
    Horner evaluations, however c0 factors.  Returns the sorted root
    list together with the integer-root-free remaining factor.
    """
    if not (p.is_monic() and p.has_integer_coeffs()):
        raise NotMonicInteger("need a monic polynomial with integer coefficients")
    cs = list(p.coeffs)
    roots = []
    while len(cs) > 1 and cs[0] == 0:
        roots.append(0)
        cs = cs[1:]
    bound = abs(cs[0])
    found, _ = _locate(cs, _breakpoints(cs, -bound, bound))
    for r in found:
        while len(cs) > 1:
            quot, rem = _divide_root(cs, r)
            if rem:
                break
            roots.append(r)
            cs = quot
    roots.sort()
    return roots, Poly(cs)


def partial_fractions(num, poles):
    """Expand num / prod (x - p) over the given distinct integer poles
    into elementary fractions: the residue at p is
    num(p) / prod_{q != p} (p - q).

    Requires deg(num) below the number of poles.  Poles with zero
    residue are kept.  The denominators are memoised per sequence of
    poles, with the type of each pole as part of the key.
    """
    poles = list(poles)
    if num.degree >= len(poles):
        raise DegreeError("numerator degree must be below the number of poles")
    if len(set(poles)) != len(poles):
        raise NonSimplePoles("poles must be distinct")
    return PartialFraction({p: quotient(num(p), d)
                            for p, d in zip(poles, _pole_denominators(*poles))})


@lru_cache(maxsize=128, typed=True)
def _pole_denominators(*poles):
    # prod_{q != p} (p - q) for each pole p, once per sequence of poles;
    # typed, since the poles 2 and 2.0 hash alike but 2.0 gives float
    # products, which quotient refuses
    return tuple(prod(p - q for q in poles if q != p) for p in poles)
