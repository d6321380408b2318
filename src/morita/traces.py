"""Content polynomials and exact trace formulas.

Every trace value here is a rational function in x = n*c, understood as
the coefficient of the canonical basis element of the one-dimensional
trace group.  F_lam, G_lam = dim(lam) - chi_B and the integer matrix
a[lam, k] of G's elementary-fraction expansion all factor through one
product B = prod (x + c) over the contents c of the cells below the
first row: with m = lam_1, F_lam = L_m B for L_m = x(x+1)...(x+m-1),
G_lam = dim (D_m - B)/D_m for D_m = (x+m)...(x+n-1), and a_k is the
residue of G at -k.  trace_table builds B once per row; a_coefficients
reads the residues as integer products and builds no Poly.
check_routes compares a with three independent routes.

content_polynomial, which the verify checks read, grows F_lam one cell
at a time, F_lam = F_mu (x + c) for the shape mu one cell smaller,
from a bounded memo per shape: a pass over n finds the shapes of n - 1
there.
"""

import math
from functools import lru_cache

from .exact import Poly, RationalFunction, partial_fractions, quotient
from .partitions import (OutOfRange, WeightMismatch, _remember, _schur_strips,
                         enumerate_partitions, gamma_star)


class TrivialPartition(ValueError):
    pass


class RouteDisagreement(AssertionError):
    """Independent formulas for a[lam, k] differ -- an implementation bug."""


class NonIntegerCoefficient(AssertionError):
    """a[lam, k] came out non-integral, contradicting its divisibility
    property -- an implementation bug."""


# F_lam per shape, the oldest dropped first beyond partitions._MEMO_SIZE:
# a verify pass over n reads the shapes of n - 1 as parents
_content_memo = {}


def _times_factors(cs, contents):
    # the coefficients of cs(x) times the product of x + c over contents
    for c in contents:
        cs = [a + c * b for a, b in zip([0] + cs, cs + [0])]
    return cs


def content_polynomial(lam):
    """F_lam(x): product of (x + j - i) over the cells of the diagram,
    built as F_mu (x + c) from the nearest memoised shape mu that lam
    grows from, adding one cell at a time to the end of its last row.  A
    one-row mu is read from f_trivial: the verify checks never ask for
    the one-row shape, so (n-1, 1) is one step from its parent."""
    parts = lam.parts
    f = _content_memo.get(parts)
    if f is None:
        # walk back, taking the last cell of the last row (content
        # lam_l - l for l rows), until a shape is memoised or one row or
        # none is left
        contents, mu = [], parts
        while f is None and mu:
            last = mu[-1]
            contents.append(last - len(mu))
            mu = mu[:-1] + (last - 1,) if last > 1 else mu[:-1]
            f = _content_memo.get(mu)
            if f is None and len(mu) == 1:
                f = f_trivial(mu[0])
        f = _remember(_content_memo, parts, Poly(_times_factors(
            [1] if f is None else list(f.coeffs), reversed(contents))))
    return f


@lru_cache(maxsize=None)
def f_trivial(n):
    """Content polynomial of the one-row partition: x(x+1)...(x+n-1)."""
    return Poly(_times_factors([1], range(n)))


def _check_weight(lam, n):
    if lam.weight != n:
        raise WeightMismatch("partition weight %d != n = %d" % (lam.weight, n))


def _check_nontrivial(lam, n):
    _check_weight(lam, n)
    if lam.length == 1:
        raise TrivialPartition("G is defined on nontrivial representations only")


@lru_cache(maxsize=None)
def _upper_factor(m, n):
    # D_m = (x + m)...(x + n - 1), the factors of F_triv left under B
    return Poly.from_roots(range(-m, -n, -1))


def _below_product(lam):
    # B = prod (x + c) over the contents c of the rows below the first
    return Poly.from_roots([i - j for i, row in enumerate(lam.parts) if i
                            for j in range(row)])


def _g_over(lam, n, b):
    # dim (D_m - B) / D_m: D_m and B are monic of degree n - lam_1, so
    # their leading terms cancel
    d_m = _upper_factor(lam.parts[0], n)
    d = lam.dimension()
    return RationalFunction(Poly([d * (p - q) for p, q in zip(d_m.coeffs, b.coeffs)]),
                            d_m)


def g_function(lam, n):
    """G_lam(x) = dim(lam) * (1 - F_lam(x)/F_triv(x)) = dim(lam) - chi_B,
    that is dim (D_m - B) / D_m over chi_B's factors B and D_m.  The roots
    -k of D_m have k >= lam_1, where B(-k) != 0, so it is in lowest terms."""
    _check_nontrivial(lam, n)
    return _g_over(lam, n, _below_product(lam))


def _a_via_partial_fractions(lam, n):
    # the definition dim * (F_triv - F_lam) / F_triv, left unreduced and
    # expanded at the poles 0..-(n-1) of F_triv, distinct by construction;
    # the pole at 0 has residue 0 because F(0) = 0 for every lam; the
    # numerator is summed as one coefficient list
    _check_nontrivial(lam, n)
    d = lam.dimension()
    num = Poly([d * (p - q) for p, q in zip(f_trivial(n).coeffs,
                                            content_polynomial(lam).coeffs)])
    pf = partial_fractions(num, range(0, -n, -1))
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
    # tableaux, every k from the one list of counts kept for lam' (no Kostka
    # number, no hook-content product: that is the conjugate-content form
    # rewritten)
    ks = range(1, n)
    return [(-1) ** (n - k - 1) * n * math.comb(n - 1, k) * s
            for k, s in zip(ks, _schur_strips(lam.conjugate(), ks))]


@lru_cache(maxsize=None)
def _residue_denominators(m, n):
    # prod_{j = m..n-1, j != k} (j - k) = (-1)^(k-m) (k-m)! (n-1-k)! for
    # k = m..n-1, times -(-1)^(n-m), the sign of -B(-k) against the
    # positive product _a_via_residues takes for it: (-1)^(n-k-1) (k-m)! (n-1-k)!
    return tuple((-1) ** (n - k - 1) * math.factorial(k - m) * math.factorial(n - 1 - k)
                 for k in range(m, n))


def _a_via_residues(lam, n):
    # a_k = -dim B(-k) / prod_{j = m..n-1, j != k} (j - k), the residue of
    # dim (D_m - B)/D_m at -k; 0 for k < m = lam_1, where D_m has no root.
    # Row i >= 1 has the contents -i..lam_i-1-i, so its factors of B(-k)
    # multiply to (-1)^lam_i (k+i)!/(k+i-lam_i)! = (-1)^lam_i perm(k+i, lam_i)
    m, rows = lam.parts[0], lam.parts[1:]
    d = lam.dimension()
    return [0] * (m - 1) + [
        quotient(d * math.prod(map(math.perm, range(k + 1, k + 1 + len(rows)), rows)), den)
        for k, den in zip(range(m, n), _residue_denominators(m, n))]


def a_coefficients(lam, n):
    """The integer vector a[lam, 1..n-1] with G_lam = sum a_k/(x+k), read
    off the residues of G (check_routes cross-checks it)."""
    return list(_a_coefficients_cached(lam, n))


@lru_cache(maxsize=None)
def _a_coefficients_cached(lam, n):
    _check_nontrivial(lam, n)
    vals = _a_via_residues(lam, n)
    if not all(isinstance(v, int) for v in vals):
        raise NonIntegerCoefficient("non-integer a-coefficient for %r: %r" % (lam, vals))
    return tuple(vals)


def check_routes(lam, n):
    """Raise RouteDisagreement unless the partial-fraction,
    conjugate-content and Schur routes agree with a_coefficients on
    a[lam, 1..n-1]; return a_coefficients, which raises
    NonIntegerCoefficient on a non-integral value."""
    a = a_coefficients(lam, n)
    routes = (a, _a_via_partial_fractions(lam, n), _a_via_conjugate_content(lam, n),
              _a_via_schur(lam, n))
    if any(route != a for route in routes[1:]):
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
    return RationalFunction(lam.dimension() * _below_product(lam),
                            _upper_factor(n - sum(lam.parts[1:]), n))


def morita_phi_factor(n):
    """Factor carrying the trace basis across the Morita equivalence:
    n! x^n / F_triv(x), reduced by cancelling one x."""
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    return RationalFunction(math.factorial(n) * Poly.from_roots([0] * (n - 1)),
                            Poly.from_roots([-k for k in range(1, n)]))


def verify_sum_identity(n):
    """Check sum over lam of dim(lam)^2 * F_lam(x) = n! * x^n exactly,
    summing the integer coefficients of each dim^2 F_lam into one list."""
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    lhs = [0] * (n + 1)
    for lam in enumerate_partitions(n):
        sq = lam.dimension() ** 2
        for i, c in enumerate(content_polynomial(lam).coeffs):
            lhs[i] += sq * c
    return lhs == [0] * n + [math.factorial(n)]


def trace_table(n):
    """One row per nontrivial partition: partition, dim, F coefficients,
    reduced G, and the a-coefficient vector.  Backs the CLI.  Each row
    builds B once: F = L_m B with L_m = f_trivial(m), and G over B."""
    rows = []
    for lam in gamma_star(n):
        b = _below_product(lam)
        rows.append({
            "partition": lam.to_json(),
            "dim": lam.dimension(),
            "content_poly": (f_trivial(lam.parts[0]) * b).to_json(),
            "g": _g_over(lam, n, b).to_json(),
            "a": a_coefficients(lam, n),
        })
    return rows
