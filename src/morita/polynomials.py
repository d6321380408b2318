"""Polynomials in several variables with exact coefficients.

A polynomial is a term map: exponent tuple -> nonzero coefficient, an
int when integral and a Fraction otherwise.  `MultiPoly` wraps one;
`monomials` lists the exponents of one degree.  For work in bulk,
`_Packing` packs each exponent tuple into one int (and `unpack` reads
it back), so that multiplying monomials adds ints
(`_add_packed_product`) and an exponent is read off the int by shift
and mask, as `poisson` reads each partial derivative of a bracket off
the row itself.  `_Substitution` builds the monomial
images x^e -> (M x)^e of a square matrix on packed exponents, a degree
at a time; `MultiPoly.substitute` packs its terms on a packing for its
own degree and unpacks the result.  The hp0 pipeline in `poisson` works
on packed term maps throughout and builds no `MultiPoly`.  In the
package `MultiPoly` serves only `poisson.bracket`, which only the tests
call; neither is exported from `morita`, and they stay here because the
benchmark traces `MultiPoly.substitute`.
"""

from functools import lru_cache
from operator import add, mul

from .exact import rational


class ShapeMismatch(ValueError):
    pass


def _unit(nvars, *indices):
    """Exponent tuple of the product of the variables at `indices`."""
    return tuple(indices.count(k) for k in range(nvars))


class MultiPoly:
    """Polynomial in several variables: map exponent tuple -> nonzero
    coefficient, an int when integral and a Fraction otherwise."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            c = rational(c)
            if c:
                if len(e) != nvars:
                    raise ShapeMismatch("exponent %r has not %d entries" % (e, nvars))
                self.terms[tuple(e)] = c

    @classmethod
    def _raw(cls, nvars, terms):
        """Trusted construction: `terms` already maps exponent tuples of
        length nvars to nonzero scalars under the rule of `rational`, and
        is kept as given."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def variable(cls, nvars, i):
        return cls(nvars, {_unit(nvars, i): 1})

    @classmethod
    def monomial(cls, nvars, exponents, coeff=1):
        return cls(nvars, {tuple(exponents): coeff})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly._raw(self.nvars, _exact_nonzero(out))

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = rational(other)
            return MultiPoly._raw(self.nvars, _exact_nonzero(
                {e: c * v for e, v in self.terms.items()}))
        out = {}
        _add_product(out, self.terms, other.terms)
        return MultiPoly._raw(self.nvars, _exact_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MultiPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, i):
        return MultiPoly._raw(self.nvars, _exact_nonzero(
            {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
             for e, c in self.terms.items() if e[i]}))

    def substitute(self, matrix):
        """p(M x): replace variable i by the linear form sum_j M[i][j] x_j."""
        packing = _Packing(self.nvars, max(map(sum, self.terms), default=0))
        images = _Substitution(matrix, packing).images(list(map(packing.pack, self.terms)))
        out = {}
        get = out.get
        for c, img in zip(self.terms.values(), images):
            for k, x in img.items():
                out[k] = get(k, 0) + c * x
        return MultiPoly._raw(self.nvars, {packing.unpack(k): x
                                           for k, x in _exact_nonzero(out).items()})

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join("x%d^%d" % (i, k) for i, k in enumerate(e) if k)
            bits.append("%s%s%s" % (c, "*" if mono else "", mono))
        return "MultiPoly(%s)" % " + ".join(bits)


def _exact_nonzero(terms):
    """`terms` without its zero coefficients and with the others under
    the rule of `rational` (a product of Fractions stays a Fraction even
    when it is integral)."""
    return {e: c if type(c) is int else rational(c) for e, c in terms.items() if c}


def _add_product(out, p, q, scale=1):
    """out += scale * p * q, on term maps; `out` is left unnormalised."""
    get = out.get
    for e1, c1 in p.items():
        c1 *= scale
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2


def _add_packed_product(out, p, q, scale=1):
    """`_add_product` on term maps keyed by packed exponents
    (`_Packing`), where adding exponents adds the keys; returns `out`."""
    get = out.get
    q = list(q.items())
    for k1, c1 in p.items():
        c1 *= scale
        for k2, c2 in q:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


class _Packing:
    """Exponent tuples packed into one int each, e_0 in the highest
    bits, with room for entries up to `top` (the total degree of every
    product taken).  Adding exponents adds the ints, and the ints are
    ordered as the tuples are, so an echelon on packed columns picks the
    same leading monomials.  Entry i of a key is key >> shifts[i] & mask.
    A packing serves one pass: an `hp0` run, from the invariance and
    nullspace rows of each degree the products fall short in to the
    bases, their products and brackets, and with a dual check the
    brackets of monomials with the bases; or one `MultiPoly.substitute`."""

    __slots__ = ("units", "shifts", "mask")

    def __init__(self, nvars, top):
        bits = top.bit_length()
        self.shifts = [bits * (nvars - 1 - i) for i in range(nvars)]
        self.units = [1 << s for s in self.shifts]
        self.mask = (1 << bits) - 1

    def pack(self, e):
        return sum(map(mul, e, self.units))

    def unpack(self, k):
        mask = self.mask
        return tuple(k >> s & mask for s in self.shifts)


class _Substitution:
    """The monomial images x^e -> (M x)^e of one square matrix M, on
    packed exponents (`_Packing`) both ways, built incrementally: the
    image of x^e is the image of x^e / x_i, for the first variable i of
    e, times the linear form sum_j M[i][j] x_j of row i, whose terms are
    kept as (packed x_j, M[i][j]).  Every image built is kept until
    `images` drops it; a substitution lives only as long as the pass that
    reads its images."""

    __slots__ = ("forms", "bits", "memo")

    def __init__(self, matrix, packing):
        units = packing.units
        # indexed by field from the low bits up: the last variable first
        self.forms = [(u, [(units[j], rational(x)) for j, x in enumerate(row) if x])
                      for u, row in zip(units, matrix)][::-1]
        self.bits = packing.mask.bit_length()
        self.memo = {0: {0: 1}}

    def image(self, e):
        """The packed terms of the image of the packed monomial e."""
        img = self.memo.get(e)
        if img is None:
            # the highest nonzero field of e is that of its first variable
            unit, form = self.forms[(e.bit_length() - 1) // self.bits]
            out = {}
            get = out.get
            for f, c in self.image(e - unit).items():
                for u, x in form:
                    g = f + u
                    out[g] = get(g, 0) + c * x
            img = self.memo[e] = _exact_nonzero(out)
        return img

    def images(self, exponents):
        """The images of the packed monomials `exponents`.  Afterwards only
        these are kept (and that of 1), so asking for one degree after
        another holds the images of one degree: the next degree is built
        from them, and an earlier one again from 1."""
        out = [self.image(e) for e in exponents]
        self.memo = dict(zip(exponents, out))
        self.memo[0] = {0: 1}
        return out


@lru_cache(maxsize=None)
def monomials(nvars, degree):
    """Exponent tuples of total degree exactly `degree`, in a fixed order,
    as a tuple: each (nvars, degree) is enumerated once and shared."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    return tuple((first,) + rest for first in range(degree, -1, -1)
                 for rest in monomials(nvars - 1, degree - first))
