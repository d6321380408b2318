"""The dense matrix product the tests multiply with.  The package keeps
none: its products are built row by row (`linalg._row_times`)."""

from operator import mul

from morita.exact import rational


def mat_mul(a, b):
    """a b, with every entry under the rule of `exact.rational`."""
    cols = list(zip(*b))
    return [[rational(sum(map(mul, row, col))) for col in cols] for row in a]
