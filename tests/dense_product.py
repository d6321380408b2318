"""The dense matrix product and transpose the tests build matrices with.
The package keeps neither: its products are built row by row
(`linalg._row_times`), and its one transpose is a `zip`."""

from operator import mul

from morita.exact import rational


def mat_mul(a, b):
    """a b, with every entry under the rule of `exact.rational`."""
    cols = list(zip(*b))
    return [[rational(sum(map(mul, row, col))) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]
