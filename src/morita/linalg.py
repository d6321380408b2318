"""Small exact linear algebra kit over the rationals.

Matrices are lists of lists (or tuples of tuples) of exact scalars under
the rule of ``exact.rational``: ints where integral, Fractions elsewhere,
and every matrix returned here follows it.  Everything is Gaussian
elimination without pivot scaling tricks -- exact arithmetic means the
only thing that matters is avoiding zero pivots.
"""

from .exact import quotient, rational


class SingularMatrix(ValueError):
    pass


def _copy(m):
    return [[rational(x) for x in row] for row in m]


def rref(m):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    a = _copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [quotient(x, pv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [rational(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m, ncols=None):
    """Basis of the right nullspace (list of vectors)."""
    if not m:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols or 0)]
    a, pivots = rref(m)
    cols = len(m[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def invert(m):
    """Exact inverse of a square matrix; raises SingularMatrix."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular over Q")
    return [row[n:] for row in red[:n]]


def mat_mul(a, b):
    return [[rational(sum(a[i][k] * b[k][j] for k in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]
