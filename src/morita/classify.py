"""Parameter classification from K-theory data.

An integer vector over the nontrivial representations determines a monic
integer polynomial f(x); its roots must form an arithmetic progression
with unit common difference for a parameter relation to exist.  Each
accepted reading yields a relation q*(c + 1/2) = (c' + 1/2) + s with
q = +1 or -1 and an integer shift s.
"""

import itertools
import math

from . import linalg
from .exact import PartialFraction, Poly, quotient, rational, rational_roots
from .partitions import OutOfRange, gamma_star, hook_partition, kostka, partition_count
from .traces import a_coefficients, content_polynomial, f_trivial


class InternalDivisibility(AssertionError):
    """The shift s failed to be an integer -- an implementation bug."""


class NonIntegralCoordinate(ValueError):
    """A K-theory coordinate that is not an integer."""


class Relation:
    """q*(c + 1/2) = (c' + 1/2) + s, with q in {+1, -1} and s an integer.

    A value: compared and hashed by (q, s)."""

    __slots__ = ("q", "s")

    def __init__(self, q, s):
        if q not in (1, -1):
            raise OutOfRange("q must be 1 or -1, got %r" % (q,))
        self.q = q
        self.s = s

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.q, self.s) == (other.q, other.s)

    def __hash__(self):
        return hash((self.q, self.s))

    def __repr__(self):
        return "Relation(q=%r, s=%r)" % (self.q, self.s)

    def describe(self):
        if self.q == 1:
            if self.s == 0:
                return "c = c'"
            return "c = c' %s %d" % ("+" if self.s > 0 else "-", abs(self.s))
        k = 1 + self.s
        if k == 0:
            return "c = -c'"
        return "c = -c' %s %d" % ("-" if k > 0 else "+", abs(k))

    def to_json(self):
        return {"q": self.q, "s": self.s, "relation": self.describe()}


class Rejection:
    """Why no relation exists for the given data, with enough witness
    data to reproduce the failure."""

    def __init__(self, reason, witness=None):
        self.reason = reason  # NonIntegerRoots | CommonDifferenceNotUnit | NotArithmeticProgression
        self.witness = {} if witness is None else witness

    def to_json(self):
        return {"reason": self.reason, "witness": self.witness}


class KTheoryVector:
    """Integer coordinates over the nontrivial representations of S_n,
    in canonical (descending lexicographic) order."""

    def __init__(self, n, coords=None):
        self.n = n
        self.index = gamma_star(n)
        coords = dict(coords or {})
        allowed = set(self.index)
        for lam in coords:
            if lam not in allowed:
                raise ValueError("%r does not index a nontrivial representation of S_%d"
                                 % (lam, n))
        self.coords = {lam: rational(coords.get(lam, 0)) for lam in self.index}
        bad = {lam: coords[lam] for lam, c in self.coords.items() if type(c) is not int}
        if bad:
            raise NonIntegralCoordinate("coordinates are not integers: %r" % bad)

    @classmethod
    def from_list(cls, n, values):
        expected = partition_count(n) - 1  # before gamma_star(n) lists them all
        if len(values) != expected:
            raise ValueError("expected %d coordinates, got %d" % (expected, len(values)))
        return cls(n, dict(zip(gamma_star(n), values)))

    def as_list(self):
        return [self.coords[lam] for lam in self.index]

    def __eq__(self, other):
        return (isinstance(other, KTheoryVector)
                and self.n == other.n and self.coords == other.coords)

    def __repr__(self):
        return "KTheoryVector(%d, %r)" % (self.n, self.as_list())

    def to_json(self):
        return self.as_list()


def hook_matrix(n):
    """Rows m = 1..n-1: the a-coefficient vectors of the hooks (m, 1^(n-m)).
    Lower-triangular with nonzero diagonal."""
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    return [a_coefficients(hook_partition(n, m), n) for m in range(1, n)]


def invert_hook_matrix(n):
    """Matrix C with 1/(x+k) = sum over m of C[k-1][m-1] * G_{hook m};
    recombination_failures checks it against the content polynomials."""
    return linalg.invert(hook_matrix(n))


def recombination_failures(n, c):
    """The k in 1..n-1 at which 1/(x+k) != sum over m of
    C[k-1][m-1] * G_{hook m}, for a claimed inverse C of hook_matrix(n).

    Both sides are multiplied by D = prod_{j=1}^{n-1} (x+j), so F_triv =
    x * D: G_hook * D = dim * (F_triv - F_hook) / x, a polynomial because
    F(0) = 0 for every partition, and 1/(x+k) * D = D/(x+k).  The check
    compares Polys built from the content polynomials, not from the
    a-coefficients it tests.  Row k is scaled by the lcm L of its
    denominators, L != 0, so both sides are integer Polys:
    L * sum c_m G_hook D against L * D/(x+k)."""
    f = f_trivial(n)
    hooks = []
    for m in range(1, n):
        hook = hook_partition(n, m)
        times_x = hook.dimension() * (f - content_polynomial(hook))
        hooks.append(times_x.coeffs[1:])
    d = Poly(f.coeffs[1:])
    failures = []
    for k in range(1, n):
        row = c[k - 1]
        scale = math.lcm(*(x.denominator for x in row))
        lhs = [0] * (n - 1)
        for coeff, h in zip(row, hooks):
            if coeff:
                w = coeff.numerator * (scale // coeff.denominator)
                for i, v in enumerate(h):
                    lhs[i] += w * v
        if Poly(lhs) != PartialFraction({-k: scale}).numerator_over(d):
            failures.append(k)
    return failures


def build_f(n, v):
    """The monic integer polynomial f(x) = prod(x+k) + sum a_k prod_{j!=k}(x+j)
    attached to the data vector, k and j in 1..n-1; also returns a_k."""
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    a = [0] * (n - 1)
    for lam, coeff in v.coords.items():
        if coeff:
            for i, x in enumerate(a_coefficients(lam, n)):
                a[i] += coeff * x
    d = Poly.from_roots(range(-1, -n, -1))
    f = d + PartialFraction({-k: ak for k, ak in enumerate(a, 1)}).numerator_over(d)
    return f, a


def derive_relation(n, v):
    """Relations compatible with the data vector, or a Rejection.

    The data is accepted when the sorted integer roots of f read as an
    arithmetic progression with common difference +1 or -1, with one
    relation per reading; for n = 2 the single root reads both ways.
    That holds exactly when the monic f is
    f_r = prod_{i=0}^{n-2} (x - r - i) for an integer r, whose x^(n-2)
    coefficient is -((n-1) r + (n-1)(n-2)/2): r is read off f and one
    comparison accepts, for every n >= 2 (for n = 2, f = x - r), so the
    roots are searched for only to witness a rejection.
    """
    f, a = build_f(n, v)
    r, rest = divmod(-f.coeffs[n - 2] - (n - 1) * (n - 2) // 2, n - 1)
    if not rest and f == Poly.from_roots(range(r, r + n - 1)):
        s = _shift(n, a, v)
        return {Relation(1, s), Relation(-1, s)}
    roots, remainder = rational_roots(f)
    if remainder.degree > 0:
        return Rejection("NonIntegerRoots",
                         {"roots_found": roots, "remainder": remainder.to_json()})
    _shift(n, a, v)  # the n(n-1) divisibility check
    diffs = sorted(set(roots[i + 1] - roots[i] for i in range(len(roots) - 1)))
    if len(diffs) > 1:
        return Rejection("NotArithmeticProgression",
                         {"roots": roots, "differences": diffs})
    # one common difference, not 1: with difference 1, f is f_r
    return Rejection("CommonDifferenceNotUnit",
                     {"roots": roots, "common_difference": diffs[0]})


def _shift(n, a, v):
    """The shift s = sum(a) / (n (n - 1)), which must be an integer."""
    s = quotient(sum(a), n * (n - 1))
    if not isinstance(s, int):
        raise InternalDivisibility("shift %s is not an integer for %r" % (s, v))
    return s


def remark_identity_check(n, v):
    """Check sum(a_k) = n(n-1) * sum over lam of K[conj(lam), alpha] * n_lam,
    where alpha = (2, 1^(n-2))."""
    _, a = build_f(n, v)
    alpha = hook_partition(n, 2)
    total = 0
    for lam, coeff in v.coords.items():
        if coeff:
            total += kostka(lam.conjugate(), alpha) * coeff
    return sum(a) == n * (n - 1) * total


def _alpha(n, r):
    """The a-vector of f_r(x) = prod_{i=0}^{n-2} (x - r - i): evaluating
    f at x = -k leaves a_k = f(-k) / prod_{j!=k} (j - k), j, k in 1..n-1.
    The division is exact: f_r(-k) is a product of n-1 consecutive
    integers, so (n-1)! divides it."""
    return [math.prod(-k - r - i for i in range(n - 1))
            // math.prod(j - k for j in range(1, n) if j != k)
            for k in range(1, n)]


def _r_window(n, limit):
    """The integers r with |alpha_1(r)| <= limit.  alpha_1 vanishes on
    [-(n-1), -1], and outside it |f_r(-1)| grows strictly with the
    distance, so each side stops at the first r past the limit."""
    window = list(range(-(n - 1), 0))
    for start, step in ((0, 1), (-n, -1)):
        r = start
        while abs(_alpha(n, r)[0]) <= limit:
            window.append(r)
            r += step
    return window


def _solve_box(n, bound):
    """The points of the box |n_lam| <= bound whose f is some
    f_r, in itertools.product order: for every assignment of the non-hook
    coordinates and every r in the window, forward substitution through
    the triangular hook rows fixes the hook coordinates."""
    index = gamma_star(n)
    hooks = [index.index(hook_partition(n, m)) for m in range(1, n)]
    free = [i for i in range(len(index)) if i not in hooks]
    # at bound 0 every free coordinate is 0, so only the hook rows are read
    rows = {i: a_coefficients(lam, n) for i, lam in enumerate(index)
            if bound or i in hooks}
    hook_rows = [rows[i] for i in hooks]
    limit = bound * sum(abs(row[0]) for row in rows.values())
    targets = [_alpha(n, r) for r in _r_window(n, limit)]
    points = []
    for values in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        partial = [0] * (n - 1)
        for i, c in zip(free, values):
            if c:
                for k, a in enumerate(rows[i]):
                    partial[k] += c * a
        for target in targets:
            solved = []
            for k in range(n - 1):
                rest = target[k] - partial[k] - sum(
                    h * hook_rows[m][k] for m, h in enumerate(solved))
                h, rem = divmod(rest, hook_rows[k][k])
                if rem or abs(h) > bound:
                    break
                solved.append(h)
            else:
                point = [0] * len(index)
                for i, c in zip(free, values):
                    point[i] = c
                for i, h in zip(hooks, solved):
                    point[i] = h
                points.append(tuple(point))
    points.sort()
    return points


def search_relations(n, bound):
    """Every data vector in the box |n_lam| <= bound that derive_relation
    accepts, grouped by relation, each with its witness vectors in
    itertools.product order over the box.

    The witnesses are solved for, not scanned.  derive_relation accepts exactly when f is some
    f_r(x) = prod_{i=0}^{n-2} (x - r - i), and by interpolation at
    x = -k that is the linear condition a = alpha(r) on the vector.  The
    hook rows of the a-coefficient matrix are triangular with a nonzero
    diagonal (hook_matrix), so for each assignment of the p(n) - n
    non-hook coordinates and each r in a finite window, forward
    substitution fixes the n - 1 hook coordinates; a candidate is kept
    when they are integers within the bound.  The window is
    |alpha_1(r)| <= bound * sum over lam of |a_1(lam)|.  This costs
    (2b+1)^(p(n)-n) times the window instead of (2b+1)^(p(n)-1).  The
    solver only picks candidates: each one still goes through
    derive_relation.
    """
    if n < 2:
        raise OutOfRange("need n >= 2, got %d" % n)
    index = gamma_star(n)
    found = {}
    for point in _solve_box(n, bound):
        v = KTheoryVector(n, dict(zip(index, point)))
        result = derive_relation(n, v)
        if isinstance(result, Rejection):
            continue
        for rel in result:
            found.setdefault(rel, []).append(v)
    return found


def iso_obstruction(n, l, sign):
    """Evaluate prod_{k=1}^{n-1}(sign*x + n*l + k) * x^n at x = -sign*n*l.

    Equals (n-1)! * (-sign*n*l)^n: nonzero whenever l != 0, which rules
    out any nonzero integer shift between isomorphic members of the
    family."""
    if n < 2 or sign not in (1, -1):
        raise OutOfRange("need n >= 2 and sign 1 or -1, got n = %d, sign = %r"
                         % (n, sign))
    x = -sign * n * l
    return math.prod(sign * x + n * l + k for k in range(1, n)) * x ** n
