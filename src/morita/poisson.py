"""Finite symplectic group actions and 0-th Poisson homology at desk scale.

A group of exact rational symplectic matrices acts on polynomials; the
invariant ring is cut out degree by degree with the Reynolds operator,
bracket spans by exact rank, and the graded dimensions of the quotient
of invariants by brackets are cross-checked against the dual picture: a
polynomial P of degree n pairs with the quotient iff
sum over g of (u, g v) P(u + g v) vanishes identically in u, v.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg


class NotSymplectic(ValueError):
    pass


class OrderCapExceeded(RuntimeError):
    pass


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
    gt = linalg.transpose([list(r) for r in g])
    return _freeze(linalg.mat_mul(linalg.mat_mul(gt, [list(r) for r in j]),
                                  [list(r) for r in g])) == j


@dataclass
class SymplecticAction:
    """A finite group of symplectic matrices together with its form."""
    dim: int
    form: tuple
    elements: list

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
    assert all(len(row) == n for row in form)
    gens = [_freeze(g) for g in generators]
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generator size does not match the form")
        if not _is_symplectic(g, form):
            raise NotSymplectic("generator fails g^T J g = J: %r" % (g,))
    ident = _freeze([[1 if i == k else 0 for k in range(n)] for i in range(n)])
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _freeze(linalg.mat_mul([list(r) for r in a], [list(r) for r in g]))
                if b not in seen:
                    if not _is_symplectic(b, form):
                        raise NotSymplectic("closure produced a non-symplectic element")
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise OrderCapExceeded("group order exceeds cap %d" % cap)
        frontier = nxt
    return SymplecticAction(dim=n, form=form, elements=sorted(seen))


def symmetric_group_action(n):
    """S_n on reflection representation plus its dual, with the canonical
    pairing as the form.  All matrices are rational."""
    assert n >= 2
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
    form = standard_form(d)
    big = []
    for m in gens:
        inv_t = linalg.transpose(linalg.invert(m))
        g = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
        for a in range(d):
            for b in range(d):
                g[a][b] = m[a][b]
                g[d + a][d + b] = inv_t[a][b]
        big.append(g)
    import math
    return close_group(big, form, cap=math.factorial(n) + 1)


class MultiPoly:
    """Polynomial in several variables: map exponent tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                assert len(e) == nvars
                self.terms[tuple(e)] = c

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars, exponents, coeff=1):
        return cls(nvars, {tuple(exponents): coeff})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

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
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MultiPoly(self.nvars, out)

    def substitute(self, matrix):
        """p(M x): replace variable i by the linear form sum_j M[i][j] x_j."""
        forms = [MultiPoly(self.nvars,
                           {tuple(1 if k == j else 0 for k in range(self.nvars)):
                            matrix[i][j]
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
    return _bracket(p, q, linalg.invert([list(r) for r in form]))


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
    """Group average of p; a projector onto the invariant ring."""
    total = MultiPoly(action.dim)
    for g in action.elements:
        total = total + p.substitute(g)
    return Fraction(1, action.order) * total


def _coeff_vector(p, monos):
    return [p.terms.get(e, Fraction(0)) for e in monos]


def invariant_basis(action, degree):
    """A basis of the degree-d invariants: Reynolds averages of the
    monomials, reduced to an independent set by exact row reduction."""
    assert degree >= 0
    monos = monomials(action.dim, degree)
    rows = []
    for e in monos:
        avg = reynolds(action, MultiPoly.monomial(action.dim, e))
        if not avg.is_zero():
            rows.append(_coeff_vector(avg, monos))
    if not rows:
        return []
    red, pivots = linalg.rref(rows)
    basis = []
    for r in range(len(pivots)):
        basis.append(MultiPoly(action.dim,
                               {monos[c]: red[r][c] for c in range(len(monos))}))
    return basis


def bracket_span_dim(action, degree):
    """Dimension of the span of brackets of positive-degree invariants
    landing in degree d (inputs of degrees i + j = d + 2)."""
    assert degree >= 0
    monos = monomials(action.dim, degree)
    j_inv = linalg.invert([list(r) for r in action.form])
    bases = {}
    rows = []
    for i in range(1, degree + 2):
        j = degree + 2 - i
        if j < i or j < 1:
            continue
        for d_ in (i, j):
            if d_ not in bases:
                bases[d_] = invariant_basis(action, d_)
        for p in bases[i]:
            for q in bases[j]:
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
    assert max_degree >= 0
    dims = {}
    for n in range(max_degree + 1):
        dims[n] = len(invariant_basis(action, n)) - bracket_span_dim(action, n)
        assert dims[n] >= 0
    tail = max(1, -(-max_degree // 4))
    stable = all(dims[n] == 0 for n in range(max_degree - tail + 1, max_degree + 1))
    return GradedDims(dims=dims, max_degree=max_degree, stabilized=stable)


def _pairing_poly(action, g):
    # (u, g v) as a polynomial in the 2*dim variables (u coords, v coords)
    d = action.dim
    out = MultiPoly(2 * d)
    for a in range(d):
        for b in range(d):
            if action.form[a][b]:
                for c in range(d):
                    if g[b][c]:
                        e = [0] * (2 * d)
                        e[a] += 1
                        e[d + c] += 1
                        out = out + MultiPoly.monomial(2 * d, e,
                                                       action.form[a][b] * g[b][c])
    return out


def _functional_matrix(action, degree):
    # rows: monomials in (u, v); columns: coefficients of a generic
    # homogeneous P of the given degree
    d = action.dim
    p_monos = monomials(d, degree)
    columns = []
    for e in p_monos:
        total = MultiPoly(2 * d)
        for g in action.elements:
            pair = _pairing_poly(action, g)
            # (u + g v)_i as linear forms in the doubled variables
            shift = MultiPoly.constant(2 * d, 1)
            for i, k in enumerate(e):
                if k:
                    form_i = MultiPoly.variable(2 * d, i)
                    for c in range(d):
                        if g[i][c]:
                            ev = [0] * (2 * d)
                            ev[d + c] = 1
                            form_i = form_i + MultiPoly.monomial(2 * d, ev, g[i][c])
                    shift = shift * form_i ** k
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
    assert degree >= 0
    matrix, p_monos = _functional_matrix(action, degree)
    if invariant_only:
        d = action.dim
        for g in action.elements:
            for e in p_monos:
                moved = MultiPoly.monomial(d, e).substitute(g)
                row = []
                for e2 in p_monos:
                    c = moved.terms.get(e2, Fraction(0))
                    if e2 == e:
                        c -= 1
                    row.append(c)
                if any(row):
                    matrix.append(row)
    ncols = len(p_monos)
    if not matrix:
        return ncols
    return ncols - linalg.rank(matrix)


def duality_check(action, max_degree):
    """Per-degree comparison of the bracket-quotient dimensions with the
    dual functional-equation solution counts."""
    graded = hp0_dims(action, max_degree)
    rows = []
    ok = True
    for n in range(max_degree + 1):
        dual = functional_solutions_dim(action, n)
        match = (graded.dims[n] == dual)
        ok = ok and match
        rows.append({"degree": n, "hp0": graded.dims[n], "dual": dual,
                     "match": match})
    return {"pass": ok, "rows": rows}
