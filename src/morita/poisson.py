"""Finite symplectic group actions and 0-th Poisson homology at desk scale.

A group of exact rational symplectic matrices acts on polynomials; the
degree-d invariants are the common fixed space of the generators on the
degree-d monomials (the nullspace of the stacked Sym^d(g) - I), bracket
spans are measured by exact rank, and the graded dimensions of the
quotient of invariants by brackets are cross-checked against the dual
picture: a polynomial P of degree n pairs with the quotient iff
sum over g of (u, g v) P(u + g v) vanishes identically in u, v.
The Reynolds operator (the group average) is kept only as the
reference the tests compare the invariant bases against.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg


class NotSymplectic(ValueError):
    pass


class OrderCapExceeded(RuntimeError):
    pass


class ShapeMismatch(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class NegativeDimension(AssertionError):
    """A graded dimension came out negative: an internal bug, not bad input."""


def _check_degree(degree):
    if degree < 0:
        raise OutOfRange("degree must be nonnegative, got %d" % degree)


def _freeze(m):
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def standard_form(d):
    """Block form [[0, I], [-I, 0]] on 2d coordinates."""
    n = 2 * d
    j = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        j[i][d + i] = Fraction(1)
        j[d + i][i] = Fraction(-1)
    return _freeze(j)


def _is_symplectic(g, j):
    return _freeze(linalg.mat_mul(linalg.mat_mul(linalg.transpose(g), j), g)) == j


@dataclass
class SymplecticAction:
    """A finite group of symplectic matrices together with its form and
    the generators it was closed from."""
    dim: int
    form: tuple
    elements: list
    generators: list

    @property
    def order(self):
        return len(self.elements)


def close_group(generators, form, cap=10000):
    """Breadth-first closure of the generators under multiplication.

    Every element is verified symplectic exactly; closure past cap
    signals an infinite or mis-entered group.
    """
    form = _freeze(form)
    n = len(form)
    if any(len(row) != n for row in form):
        raise ShapeMismatch("form is not square")
    gens = [_freeze(g) for g in generators]
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ShapeMismatch("generator size does not match the form")
        if not _is_symplectic(g, form):
            raise NotSymplectic("generator fails g^T J g = J: %r" % (g,))
    ident = _freeze([[1 if i == k else 0 for k in range(n)] for i in range(n)])
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _freeze(linalg.mat_mul(a, g))
                if b not in seen:
                    if not _is_symplectic(b, form):
                        raise NotSymplectic("closure produced a non-symplectic element")
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise OrderCapExceeded("group order exceeds cap %d" % cap)
        frontier = nxt
    return SymplecticAction(dim=n, form=form, elements=sorted(seen), generators=gens)


def symmetric_group_action(n):
    """S_n on reflection representation plus its dual, with the canonical
    pairing as the form.  All matrices are rational."""
    if n < 2:
        raise OutOfRange("S_n needs n >= 2, got %d" % n)
    d = n - 1
    # adjacent transposition s_i in the basis f_i = e_i - e_{i+1}
    gens = []
    for i in range(d):
        m = [[Fraction(1) if a == b else Fraction(0) for b in range(d)] for a in range(d)]
        m[i][i] = Fraction(-1)
        if i > 0:
            m[i - 1][i] = Fraction(1)
        if i < d - 1:
            m[i + 1][i] = Fraction(1)
        gens.append(m)
    # diag(m, m^-T) on h + h*
    big = [[row + [0] * d for row in m]
           + [[0] * d + row for row in linalg.transpose(linalg.invert(m))]
           for m in gens]
    return close_group(big, standard_form(d), cap=math.factorial(n) + 1)


def _unit(nvars, *indices):
    """Exponent tuple of the product of the variables at `indices`."""
    return tuple(indices.count(k) for k in range(nvars))


class MultiPoly:
    """Polynomial in several variables: map exponent tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(e) != nvars:
                    raise ShapeMismatch("exponent %r has not %d entries" % (e, nvars))
                self.terms[tuple(e)] = c

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
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MultiPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, i):
        return MultiPoly(self.nvars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                      for e, c in self.terms.items() if e[i]})

    def substitute(self, matrix):
        """p(M x): replace variable i by the linear form sum_j M[i][j] x_j."""
        forms = [MultiPoly(self.nvars, {_unit(self.nvars, j): matrix[i][j]
                                        for j in range(self.nvars) if matrix[i][j]})
                 for i in range(self.nvars)]
        out = MultiPoly(self.nvars)
        cache = {}
        for e, c in self.terms.items():
            term = MultiPoly.constant(self.nvars, c)
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in cache:
                        cache[(i, k)] = forms[i] ** k
                    term = term * cache[(i, k)]
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join("x%d^%d" % (i, k) for i, k in enumerate(e) if k)
            bits.append("%s%s%s" % (c, "*" if mono else "", mono))
        return "MultiPoly(%s)" % " + ".join(bits)


def monomials(nvars, degree):
    """Exponent tuples of total degree exactly `degree`, in a fixed order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def bracket(p, q, form):
    """Poisson bracket of the symplectic form: constant bivector -J^{-1},
    normalized so that {x_i, x_{d+i}} = 1 for the standard block form."""
    return _bracket(p, q, linalg.invert(form))


def _bracket(p, q, j_inv):
    n = p.nvars
    out = MultiPoly(n)
    dp = [p.diff(a) for a in range(n)]
    dq = [q.diff(b) for b in range(n)]
    for a in range(n):
        if dp[a].is_zero():
            continue
        for b in range(n):
            if j_inv[a][b] and not dq[b].is_zero():
                out = out + (-j_inv[a][b]) * (dp[a] * dq[b])
    return out


def reynolds(action, p):
    """Group average of p; a projector onto the invariant ring.

    Not on the production path: the tests use it as the independent
    reference for `invariant_basis`."""
    total = MultiPoly(action.dim)
    for g in action.elements:
        total = total + p.substitute(g)
    return Fraction(1, action.order) * total


def _coeff_vector(p, monos):
    return [p.terms.get(e, Fraction(0)) for e in monos]


def _invariance_rows(action, monos):
    """Nonzero rows of Sym^d(g) - I stacked over the generators g, on the
    coefficient vectors of the degree-d monomials `monos`.  A polynomial
    fixed by every generator is fixed by the group they generate."""
    rows = []
    for g in action.generators:
        images = [MultiPoly.monomial(action.dim, e).substitute(g) for e in monos]
        for r, e in enumerate(monos):
            row = [img.terms.get(e, Fraction(0)) for img in images]
            row[r] -= 1
            if any(row):
                rows.append(row)
    return rows


def invariant_basis(action, degree):
    """A basis of the degree-d invariants: the common fixed space of the
    generators on the degree-d monomials."""
    _check_degree(degree)
    monos = monomials(action.dim, degree)
    null = linalg.nullspace(_invariance_rows(action, monos), len(monos))
    return [MultiPoly(action.dim, dict(zip(monos, v))) for v in null]


def bracket_span_dim(action, degree, bases=None):
    """Dimension of the span of brackets of positive-degree invariants
    landing in degree d (inputs of degrees i + j = d + 2).

    bases[k] is the degree-k invariant basis for k <= d + 1; it is
    computed here when not given."""
    _check_degree(degree)
    if bases is None:
        bases = [invariant_basis(action, k) for k in range(degree + 2)]
    monos = monomials(action.dim, degree)
    j_inv = linalg.invert(action.form)
    rows = []
    for i in range(1, degree // 2 + 2):
        for p in bases[i]:
            for q in bases[degree + 2 - i]:
                br = _bracket(p, q, j_inv)
                if not br.is_zero():
                    rows.append(_coeff_vector(br, monos))
    return linalg.rank(rows)


@dataclass
class GradedDims:
    """Per-degree dimensions of the bracket quotient up to a cutoff."""
    dims: dict
    max_degree: int
    stabilized: bool = field(default=False)

    @property
    def total(self):
        return sum(self.dims.values())

    def to_json(self):
        return {"dims": {str(k): v for k, v in sorted(self.dims.items())},
                "max_degree": self.max_degree,
                "total_up_to_cutoff": self.total,
                "stabilized": self.stabilized}


def hp0_dims(action, max_degree):
    """dim(invariants_n) - dim(bracket span in degree n) for n <= cutoff.

    The stabilization flag only records that the trailing quarter of the
    window is zero; it is a heuristic, not a finiteness proof.
    """
    _check_degree(max_degree)
    bases = [invariant_basis(action, k) for k in range(max_degree + 2)]
    dims = {}
    for n in range(max_degree + 1):
        dims[n] = len(bases[n]) - bracket_span_dim(action, n, bases)
        if dims[n] < 0:
            raise NegativeDimension("degree %d: bracket span exceeds invariants" % n)
    tail = max(1, -(-max_degree // 4))
    stable = all(dims[n] == 0 for n in range(max_degree - tail + 1, max_degree + 1))
    return GradedDims(dims=dims, max_degree=max_degree, stabilized=stable)


def _pairing_poly(action, g):
    # (u, g v) = sum of (J g)[a][c] u_a v_c in the 2*dim variables (u, then v)
    d = action.dim
    jg = linalg.mat_mul(action.form, g)
    return MultiPoly(2 * d, {_unit(2 * d, a, d + c): jg[a][c]
                             for a in range(d) for c in range(d)})


def _functional_matrix(action, degree):
    # rows: monomials in (u, v); columns: coefficients of a generic
    # homogeneous P of the given degree
    d = action.dim
    p_monos = monomials(d, degree)
    per_element = []
    for g in action.elements:
        # (u + g v)_i as linear forms in the doubled variables
        shifted = [MultiPoly(2 * d, {_unit(2 * d, i): 1}
                             | {_unit(2 * d, d + c): g[i][c] for c in range(d)})
                   for i in range(d)]
        per_element.append((_pairing_poly(action, g), shifted))
    columns = []
    for e in p_monos:
        total = MultiPoly(2 * d)
        for pair, shifted in per_element:
            shift = MultiPoly.constant(2 * d, 1)
            for i, k in enumerate(e):
                if k:
                    shift = shift * shifted[i] ** k
            total = total + pair * shift
        columns.append(total)
    row_index = sorted(set().union(*(c.terms.keys() for c in columns)) if columns else [])
    matrix = [[col.terms.get(e, Fraction(0)) for col in columns] for e in row_index]
    return matrix, p_monos


def functional_solutions_dim(action, degree, invariant_only=False):
    """Dimension of the space of degree-n polynomials P with
    sum over g of (u, g v) P(u + g v) = 0 identically.

    With invariant_only, additionally restrict to group-invariant P
    (for comparison; the unrestricted count is the dual dimension).
    """
    _check_degree(degree)
    matrix, p_monos = _functional_matrix(action, degree)
    if invariant_only:
        matrix += _invariance_rows(action, p_monos)
    ncols = len(p_monos)
    if not matrix:
        return ncols
    return ncols - linalg.rank(matrix)


def duality_check(action, graded):
    """Per-degree comparison of the bracket-quotient dimensions `graded`
    (as returned by hp0_dims) with the dual functional-equation solution
    counts."""
    rows = []
    ok = True
    for n in range(graded.max_degree + 1):
        dual = functional_solutions_dim(action, n)
        match = (graded.dims[n] == dual)
        ok = ok and match
        rows.append({"degree": n, "hp0": graded.dims[n], "dual": dual,
                     "match": match})
    return {"pass": ok, "rows": rows}
