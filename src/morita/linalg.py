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
"""

import math
from itertools import compress, count
from operator import mul

from .exact import quotient, rational


class SingularMatrix(ValueError):
    pass


def _primitive(row):
    """The primitive integer row on the ray of `row`, as a map column ->
    nonzero entry: denominators cleared, then the gcd of the entries
    divided out.  `row` is dense, or a map from orderable column keys to
    entries."""
    keys, values = (row, row.values()) if isinstance(row, dict) else (count(), row)
    row = {j: x if type(x) is int else rational(x)
           for j, x in zip(compress(keys, values), compress(values, values))}
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


def nullspace(m, ncols):
    """Basis of the right nullspace of m over the columns 0..ncols-1: for
    each free column, the dense primitive integer vector that is positive
    there and zero at the other free columns."""
    rows, pivots = rref(m)
    free = sorted(set(range(ncols)).difference(pivots))
    basis = (_primitive({fc: 1} | {pc: quotient(-row[fc], row[pc])
                                   for row, pc in zip(rows, pivots) if fc in row})
             for fc in free)
    return [[v.get(j, 0) for j in range(ncols)] for v in basis]


def invert(m):
    """Exact inverse of a square matrix; raises SingularMatrix."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular over Q")
    return [[quotient(row.get(j, 0), row[i]) for j in range(n, 2 * n)]
            for i, row in enumerate(red[:n])]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[rational(sum(map(mul, row, col))) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]
