"""Small exact linear algebra kit over the rationals.

Matrices come dense, as rows of exact scalars, or as sparse rows: maps
column -> entry.  Every scalar returned here follows the rule of
``exact.rational``: ints where integral, Fractions elsewhere.

There is one elimination routine, `rref`, and it is fraction-free: every
row is kept as a primitive integer row (denominators cleared, the gcd of
its entries divided out), and each elimination step is an integer
combination of two rows followed by the same normalisation -- where
Bareiss (Math. Comp. 22, 1968) divides exactly by the previous pivot,
this divides by the gcd of the new row.  It returns the rows as it holds
them, one sparse map per pivot, and builds no matrix of the input's
shape.  `nullspace` and `invert` read their answers off its result;
the only division that can leave a denominator happens at the end of
`invert`.

`Echelon` drives the same step on rows that arrive one at a time, so a
caller can stop at the rank it needs without building the rows it never
reads.  `rref` is not built on it: a row-at-a-time echelon cannot pick
the sparsest pivot row or reduce above the pivots, and `rref` rebuilt on
`Echelon` plus back-substitution gave the same output more slowly.

`MolienSeries` counts the invariants of a finite matrix group in each
degree from the power traces tr(g^k) of its elements, which the caller
supplies (`poisson.close_group` reads them off its Cayley table), by
Newton's identities.
"""

import math
from itertools import compress, count

from .exact import _check_degree, quotient, rational


class SingularMatrix(ValueError):
    pass


def _primitive(row):
    """The primitive integer row on the ray of `row`, as a map column ->
    nonzero entry: denominators cleared, then the gcd of the entries
    divided out.  `row` is dense, or a map from orderable column keys to
    entries.  A row of ints alone (no bool) has no denominator to clear
    and skips `rational`."""
    keys, values = (row, row.values()) if isinstance(row, dict) else (count(), row)
    row = dict(zip(compress(keys, values), compress(values, values)))
    if any(type(x) is not int for x in row.values()):
        row = {j: x if type(x) is int else rational(x) for j, x in row.items()}
        den = math.lcm(*(x.denominator for x in row.values() if type(x) is not int))
        if den != 1:
            row = {j: x * den if type(x) is int else x.numerator * (den // x.denominator)
                   for j, x in row.items()}
    return _divide_content(row)


def _divide_content(row):
    g = math.gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _eliminate(row, prow, c):
    """row <- (p/g) row - (f/g) prow, which clears column c (p = prow[c],
    f = row[c], g = gcd(p, f)), then made primitive.  `row` may be
    updated in place."""
    p, f = prow[c], row[c]
    g = math.gcd(p, f)
    s, t = p // g, f // g
    if s != 1:
        row = {j: s * x for j, x in row.items()}
    for j, y in prow.items():
        x = row.get(j, 0) - t * y
        if x:
            row[j] = x
        else:
            del row[j]
    return _divide_content(row)


def rref(m):
    """Reduced row echelon form up to a positive scale per row; returns
    (rows, pivot_columns).

    m is dense, or a list of maps column -> entry.  There is one row per
    pivot: rows[r] is a primitive integer row, a map column -> nonzero
    int, positive at pivot_columns[r] and zero at the other pivots.
    Divided by their pivots, the rows are the nonzero rows of the
    classical reduced row echelon form.

    The rows are kept sparse while they are reduced, column by column:
    each pivot clears its column from every other row, above and below.
    """
    # active rows not yet used as pivots, by leading column: every column
    # left of c is already cleared from them
    active = {}
    for row in map(_primitive, m):
        if row:
            active.setdefault(min(row), []).append(row)
    done = []
    pivots = []
    while active:
        c = min(active)
        hits = active.pop(c)
        chosen = min(hits, key=len)  # the sparsest row: least fill-in
        prow = chosen if chosen[c] > 0 else {j: -x for j, x in chosen.items()}
        for row in hits:
            if row is not chosen:
                row = _eliminate(row, prow, c)
                if row:
                    active.setdefault(min(row), []).append(row)
        for k, row in enumerate(done):
            if c in row:
                done[k] = _eliminate(row, prow, c)
        done.append(prow)
        pivots.append(c)
    return done, pivots


class Echelon:
    """A row echelon form built one row at a time.

    `pivots` maps each leading column to its pivot row: a primitive
    integer row, positive at that column, whose other entries lie in
    later columns.  A new row is made primitive and reduced by
    `_eliminate` against the pivot row of its leading column until that
    column has none (the row joins the pivots) or nothing is left.
    Columns are any orderable keys, so rows may be given sparse."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        """Reduce `row` (dense, or a map column -> entry) into the form;
        True exactly when it was independent of the rows before, so the
        rank grew."""
        row = _primitive(row)
        pivots = self.pivots
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row if row[c] > 0 else {j: -x for j, x in row.items()}
                return True
            row = _eliminate(row, prow, c)
        return False


def _row_times(row, m):
    """The row times the square matrix m, as the sum of x m[k] over the
    nonzero entries x = row[k]: a sparse row reads few rows of m."""
    out = None
    for x, m_row in zip(row, m):
        if x:
            out = [x * y for y in m_row] if out is None \
                else [a + x * y for a, y in zip(out, m_row)]
    return [0] * len(row) if out is None else out


def _minus_if_inverse(m):
    """-m when m m = -I, so that -m is the inverse of m, else None.  Each
    row of m m is a sparse `_row_times` product.  When the entries of m
    follow the rule of `rational`, so do those of -m, as those of
    `invert(m)` do."""
    n = len(m)
    for i, row in enumerate(m):
        if _row_times(row, m) != [-(i == k) for k in range(n)]:
            return None
    return [[-x for x in row] for row in m]


class _RowTimes(dict):
    """Row id -> the id of row g, for one square matrix g, over the
    distinct rows `rows` (id = position, shared with other generators
    and indexed by `ids`); each image is computed when first asked for,
    and put under the rule of `rational` unless every generator is
    `integral`."""

    __slots__ = ("g", "integral", "rows", "ids")

    def __init__(self, g, integral, rows, ids):
        super().__init__()
        self.g = g
        self.integral = integral
        self.rows = rows
        self.ids = ids

    def __missing__(self, r):
        image = _row_times(self.rows[r], self.g)
        image = tuple(image) if self.integral else tuple(map(rational, image))
        i = self[r] = self.ids.setdefault(image, len(self.rows))
        if i == len(self.rows):
            self.rows.append(image)
        return i


def _power_traces(elements, table, words):
    """(tr g, tr g^2, ..., tr g^dim) for each of `elements` (identity
    first), from the Cayley table and the words of
    `poisson.close_group`.

    g^k = g^(k-1) g is a walk along g's word from g^(k-1), so the powers
    of g, up to its order m, are m walks; each power g^t of g reads its
    own power traces off the same cycle, as tr g^(tk mod m)."""
    dim = len(elements[0])
    traces = [sum(g[i][i] for i in range(dim)) for g in elements]
    out = [None] * len(elements)
    out[0] = (dim,) * dim
    for i, word in enumerate(words):
        if out[i] is not None:
            continue
        cycle = [0]
        x = i
        while x:
            cycle.append(x)
            for s in word:
                x = table[x][s]
        m = len(cycle)
        for t in range(1, m):
            if out[cycle[t]] is None:
                out[cycle[t]] = tuple(traces[cycle[t * k % m]] for k in range(1, dim + 1))
    return out


class MolienSeries:
    """The dimensions of the invariants of a finite matrix group G in each
    degree, by Molien's formula: (1/|G|) sum over g of h_d(g), where
    h_d(g), the trace of g on the degree-d polynomials, is the t^d
    coefficient of 1/det(1 - t g), so that
    h_d = sum over 1 <= j <= min(d, n) of (-1)^(j+1) e_j(g) h_(d-j).

    It is built from the power traces p_i = tr(g^i), i = 1..n, of each
    element; e_k(g) comes from them by Newton's identities,
    k e_k = sum over i of (-1)^(i-1) e_(k-i) p_i.  Elements with the
    same power traces have the same characteristic polynomial, so the h
    series of each such class is built once; the classes are counted in
    a plain dict."""

    __slots__ = ("order", "classes", "counts")

    def __init__(self, power_traces):
        self.order = len(power_traces)
        sizes = {}
        for p in power_traces:
            sizes[p] = sizes.get(p, 0) + 1
        self.classes = []  # (size, (-1)^(j+1) e_j for j = 1..n, h series so far)
        for p, size in sizes.items():
            e = [1]
            for k in range(1, len(p) + 1):
                e.append(quotient(sum(e[k - i] * p[i - 1] if i % 2 else -e[k - i] * p[i - 1]
                                      for i in range(1, k + 1)), k))
            self.classes.append((size, [x if j % 2 else -x for j, x in enumerate(e) if j], [1]))
        self.counts = []

    def count(self, degree):
        """The dimension of the degree-d invariants: a nonnegative
        integer when the matrices form a group; raises OutOfRange for a
        negative degree."""
        _check_degree(degree)
        while len(self.counts) <= degree:
            d = len(self.counts)
            total = 0
            for size, c, series in self.classes:
                if d:
                    series.append(sum(c[j - 1] * series[d - j]
                                      for j in range(1, min(d, len(c)) + 1)))
                total += size * series[d]
            self.counts.append(quotient(total, self.order))
        return self.counts[degree]


def nullspace(m, ncols):
    """Basis of the right nullspace of m over the columns 0..ncols-1: for
    each free column, the primitive integer row (a map column -> nonzero
    entry) that is positive there and zero at the other free columns."""
    rows, pivots = rref(m)
    free = sorted(set(range(ncols)).difference(pivots))
    return [_primitive({fc: 1} | {pc: quotient(-row[fc], row[pc])
                                  for row, pc in zip(rows, pivots) if fc in row})
            for fc in free]


def invert(m):
    """Exact inverse of a square matrix; raises SingularMatrix."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular over Q")
    return [[quotient(row.get(j, 0), row[i]) for j in range(n, 2 * n)]
            for i, row in enumerate(red[:n])]
