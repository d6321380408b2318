"""Content polynomials and exact trace formulas.

Every trace value here is a rational function in x = n*c, understood as
the coefficient of the canonical basis element of the one-dimensional
trace group.  G_lam = dim(lam) - chi_B is built over chi_B's linear
factors.  The integer coefficient matrix a[lam, k] of its
elementary-fraction expansion is computed on its own, from its closed
form; check_routes compares it with two independent routes.
"""

import math
from functools import lru_cache

from .exact import Poly, RationalFunction, partial_fractions, quotient
from .partitions import (OutOfRange, WeightMismatch, _schur_strips,
                         enumerate_partitions, gamma_star)


class TrivialPartition(ValueError):
    pass


class RouteDisagreement(AssertionError):
    """Independent formulas for a[lam, k] differ -- an implementation bug."""


class NonIntegerCoefficient(AssertionError):
    """a[lam, k] came out non-integral, contradicting its divisibility
    property -- an implementation bug."""


def content_polynomial(lam):
    """F_lam(x): product of (x + j - i) over the cells of the diagram."""
    return Poly.from_roots([-c for c in lam.content_multiset()])


def f_trivial(n):
    """Content polynomial of the one-row partition: x(x+1)...(x+n-1)."""
    return Poly.from_roots([-k for k in range(n)])


def _check_weight(lam, n):
    if lam.weight != n:
        raise WeightMismatch("partition weight %d != n = %d" % (lam.weight, n))


def _check_nontrivial(lam, n):
    _check_weight(lam, n)
    if lam.length == 1:
        raise TrivialPartition("G is defined on nontrivial representations only")


def g_function(lam, n):
    """G_lam(x) = dim(lam) * (1 - F_lam(x)/F_triv(x)) = dim(lam) - chi_B,
    that is dim (D - B) / D over chi_B's factors B and D.  The roots -k
    of D have k >= lam_1, where B(-k) != 0, so it is in lowest terms."""
    _check_nontrivial(lam, n)
    b = chi_B(lam, n)
    return RationalFunction(lam.dimension() * b.den - b.num, b.den)


def _a_via_partial_fractions(lam, n):
    # the definition dim * (F_triv - F_lam) / F_triv, left unreduced and
    # expanded at the poles 0..-(n-1) of F_triv, distinct by construction;
    # the pole at 0 has residue 0 because F(0) = 0 for every lam
    _check_nontrivial(lam, n)
    pf = partial_fractions(lam.dimension() * (f_trivial(n) - content_polynomial(lam)),
                           range(0, -n, -1))
    return [pf.residues[-k] for k in range(1, n)]


def _a_via_conjugate_content(lam, n):
    # (-1)^(n-k-1) * dim(lam) / (k! (n-1-k)!) * F_{lam'}(k), where the
    # contents of lam' are those of lam negated: F_{lam'}(k) = prod (k - c)
    contents = lam.content_multiset()
    d = lam.dimension()
    return [quotient((-1) ** (n - k - 1) * d * math.prod(k - c for c in contents),
                     math.factorial(k) * math.factorial(n - 1 - k))
            for k in range(1, n)]


def _a_via_schur(lam, n):
    # (-1)^(n-k-1) * n * binom(n-1, k) * s_{lam'}(1^k), with s counted as
    # tableaux: the hook-content product is the conjugate-content form rewritten
    ks = range(1, n)
    return [(-1) ** (n - k - 1) * n * math.comb(n - 1, k) * s
            for k, s in zip(ks, _schur_strips(lam.conjugate(), ks))]


def a_coefficients(lam, n):
    """The integer vector a[lam, 1..n-1] with G_lam = sum a_k/(x+k), from
    the conjugate-content closed form (check_routes cross-checks it)."""
    return list(_a_coefficients_cached(lam, n))


@lru_cache(maxsize=None)
def _a_coefficients_cached(lam, n):
    _check_nontrivial(lam, n)
    vals = _a_via_conjugate_content(lam, n)
    if not all(isinstance(v, int) for v in vals):
        raise NonIntegerCoefficient("non-integer a-coefficient for %r: %r" % (lam, vals))
    return tuple(vals)


def check_routes(lam, n):
    """Raise RouteDisagreement unless the partial-fraction, conjugate-content
    and Schur routes agree on a[lam, 1..n-1]; return a_coefficients,
    the conjugate-content route, which raises NonIntegerCoefficient on a
    non-integral value."""
    a = a_coefficients(lam, n)
    routes = (_a_via_partial_fractions(lam, n), a, _a_via_schur(lam, n))
    if not (routes[0] == routes[1] == routes[2]):
        raise RouteDisagreement("a-coefficient routes differ for %r: %r" % (lam, routes))
    return a


def chi_H(lam, n):
    """Trace of the standard projective of lam over the full algebra:
    dim(lam) * F_lam(x) / (n! x^n), reduced by cancelling x^m0, where m0
    is the number of cells of content 0: the other factors x + c of F_lam
    have c != 0."""
    _check_weight(lam, n)
    contents = lam.content_multiset()
    num = Poly.from_roots([-c for c in contents if c])
    return RationalFunction(quotient(lam.dimension(), math.factorial(n)) * num,
                            Poly.from_roots([0] * (n - contents.count(0))))


def chi_B(lam, n):
    """Spherical trace: dim(lam) * F_lam(x) / F_triv(x), reduced by
    cancelling x + c for the contents c = 0..lam_1 - 1 of the first row.
    The contents left on top, of the rows below it, are at most lam_1 - 2
    and those left underneath are lam_1..n-1, so the two sides are coprime."""
    _check_weight(lam, n)
    below = [j - i for i, j in lam.cells() if i]
    return RationalFunction(lam.dimension() * Poly.from_roots([-c for c in below]),
                            Poly.from_roots([-k for k in range(n - len(below), n)]))


def morita_phi_factor(n):
    """Factor carrying the trace basis across the Morita equivalence:
    n! x^n / F_triv(x), reduced by cancelling one x."""
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    return RationalFunction(math.factorial(n) * Poly.from_roots([0] * (n - 1)),
                            Poly.from_roots([-k for k in range(1, n)]))


def verify_sum_identity(n):
    """Check sum over lam of dim(lam)^2 * F_lam(x) = n! * x^n exactly."""
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    lhs = Poly()
    for lam in enumerate_partitions(n):
        lhs = lhs + lam.dimension() ** 2 * content_polynomial(lam)
    rhs = math.factorial(n) * Poly.from_roots([0] * n)
    return lhs == rhs


def trace_table(n):
    """One row per nontrivial partition: partition, dim, F coefficients,
    reduced G, and the a-coefficient vector.  Backs the CLI."""
    rows = []
    for lam in gamma_star(n):
        rows.append({
            "partition": lam.to_json(),
            "dim": lam.dimension(),
            "content_poly": content_polynomial(lam).to_json(),
            "g": g_function(lam, n).to_json(),
            "a": a_coefficients(lam, n),
        })
    return rows
