"""The fraction-free elimination kernel against Fraction Gauss-Jordan.

`_fraction_rref` is the Fraction Gauss-Jordan that `linalg.rref`
replaced, kept here as the oracle: dividing each row of `rref` by its
pivot must give the oracle's reduced row echelon form exactly, with the
same pivot columns, and `rank`, `nullspace` and `invert` must agree with
the answers read off the oracle.
"""

import json
import math
import os
from fractions import Fraction
from itertools import compress, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_product import mat_mul, transpose
from dual_oracle import functional_matrix
from morita import linalg
from morita.classify import hook_matrix
from morita.cli import parse_group_file
from morita.exact import quotient, rational
from morita.poisson import (_invariance_rows, close_group, hp0_dims, monomials,
                            standard_form, symmetric_group_action)
from morita.polynomials import _Packing, _Substitution


def _fraction_rref(m):
    """Fraction Gauss-Jordan: (reduced row echelon form, pivot columns)."""
    a = [[rational(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
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


def _rank(m):
    """The rank as the number of pivots of `linalg.rref`."""
    return len(linalg.rref(m)[1])


def _fraction_rank(m):
    return len(_fraction_rref(m)[1])


def _fraction_nullspace(m, cols):
    if not m:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    a, pivots = _fraction_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def _fraction_invert(m):
    n = len(m)
    red, pivots = _fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise linalg.SingularMatrix("matrix is singular over Q")
    return [row[n:] for row in red[:n]]


def _dense(rows, ncols, nrows=0):
    """Sparse rows (maps column -> entry) laid out dense over columns
    0..ncols-1 and padded with zero rows to nrows: rref's rows in the
    dense layout of m's shape that it returned before it kept them
    sparse, and sparse input rows in the layout the oracle reads."""
    out = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    return out + [[0] * ncols for _ in range(nrows - len(out))]


def _check_kernel(m, cols):
    """rref, rank and nullspace of m agree with the oracle; m is dense,
    or sparse rows over the columns 0..cols-1."""
    dense_m = [_dense([row], cols)[0] if isinstance(row, dict) else row for row in m]
    expected, expected_pivots = _fraction_rref(dense_m)
    sparse, pivots = linalg.rref(m)
    assert pivots == expected_pivots and len(sparse) == len(pivots)
    assert all(x for row in sparse for x in row.values())
    red = _dense(sparse, cols, len(m))
    assert len(red) == len(m) and all(len(row) == cols for row in red)
    for r, row in enumerate(red):
        assert all(type(x) is int for x in row)
        if r < len(pivots):
            p = row[pivots[r]]
            assert p > 0 and math.gcd(*row) == 1
            assert [quotient(x, p) for x in row] == expected[r]
        else:
            assert not any(row)
    assert _rank(m) == len(expected_pivots)

    sparse_null = linalg.nullspace(m, cols)
    assert all(x for v in sparse_null for x in v.values())
    null = _dense(sparse_null, cols)
    expected_null = _fraction_nullspace(dense_m, cols)
    assert len(null) == len(expected_null) == cols - len(expected_pivots)
    for v in null:
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in dense_m)
    if null:
        assert _fraction_rank(null) == len(null)
        assert _fraction_rank(null + expected_null) == len(null)


def _check_invert(m):
    try:
        expected = _fraction_invert(m)
    except linalg.SingularMatrix:
        with pytest.raises(linalg.SingularMatrix):
            linalg.invert(m)
        return
    assert linalg.invert(m) == expected


# ints (units and non-units) and Fractions
_SCALAR = (st.sampled_from([-6, -4, -3, -2, 0, 0, 2, 3, 4, 6])
           | st.integers(-3, 3)
           | st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def _matrices(draw, max_rows=9, max_cols=9):
    """Tall, wide and square matrices, some with zero rows and with rows
    that are combinations of the others (so rank-deficient)."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    m = draw(st.lists(st.lists(_SCALAR, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 3))):
        if m and draw(st.booleans()):
            coeffs = draw(st.lists(_SCALAR, min_size=len(m), max_size=len(m)))
            m.append([sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols)])
        else:
            m.append([0] * cols)
    order = draw(st.permutations(range(len(m))))
    return [m[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(m=_matrices())
def test_kernel_matches_fraction_gauss_jordan(m):
    _check_kernel(m, len(m[0]) if m else 0)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_invert_matches_fraction_gauss_jordan(n, data):
    m = data.draw(st.lists(st.lists(_SCALAR, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]  # singular
    _check_invert(m)


@settings(max_examples=150, deadline=None)
@given(m=_matrices(), sparse=st.booleans())
def test_echelon_matches_rref_row_by_row(m, sparse):
    # after every row its rank is that of rref on the rows so far, and
    # add reports exactly the rows that made it grow; sparse rows are
    # maps from column to entry, zeros included
    echelon = linalg.Echelon()
    for r, row in enumerate(m):
        before = echelon.rank
        grew = echelon.add(dict(enumerate(row)) if sparse else row)
        assert echelon.rank == len(linalg.rref(m[:r + 1])[1])
        assert grew == (echelon.rank > before)
        for c, prow in echelon.pivots.items():
            assert prow[c] > 0 and min(prow) == c
            assert all(type(x) is int and x for x in prow.values())
            assert math.gcd(*prow.values()) == 1
    before = echelon.rank
    assert not echelon.add([0, 0, 0])
    assert not echelon.add({0: 0, 1: Fraction(0)})
    assert echelon.rank == before


def _primitive_through_rational(row):
    """`linalg._primitive` as it was before rows of ints skipped
    `rational`, kept as its oracle: every entry through `rational`, then
    the lcm of the denominators."""
    keys, values = (row, row.values()) if isinstance(row, dict) else (count(), row)
    row = {j: x if type(x) is int else rational(x)
           for j, x in zip(compress(keys, values), compress(values, values))}
    den = math.lcm(*(x.denominator for x in row.values() if type(x) is not int))
    if den != 1:
        row = {j: x * den if type(x) is int else x.numerator * (den // x.denominator)
               for j, x in row.items()}
    return linalg._divide_content(row)


_ENTRY = (_SCALAR | st.booleans()
          | st.sampled_from([0.0, 0.5, -1.5, 2.0, 0.25, -3.0]))


@settings(max_examples=300, deadline=None)
@given(row=st.lists(_ENTRY, max_size=8), data=st.data())
def test_primitive_matches_the_rational_path(row, data):
    # dense lists and tuples, and sparse maps (zeros kept, keys spaced),
    # of ints alone, Fractions, floats and bools: the same map, key order
    # and entry types as every entry through `rational`
    sparse = dict(zip(range(0, 3 * len(row), 3), row))
    for given_row in (row, tuple(row), sparse):
        got, expected = linalg._primitive(given_row), _primitive_through_rational(given_row)
        assert got == expected and list(got) == list(expected)
        assert all(type(x) is int for x in got.values())
    if data.draw(st.booleans()):
        row = [int(x) if type(x) is bool else x for x in row]
        assert linalg._primitive(row) == _primitive_through_rational(row)


def test_primitive_sends_only_non_int_rows_through_rational(monkeypatch):
    # a row of ints alone skips `rational`; one bool, Fraction or float
    # sends the row through it, so a bool comes out an int
    calls = []
    monkeypatch.setattr(linalg, "rational", lambda x: calls.append(x) or rational(x))
    for row in ([0, 6, -4, 0, 10], {3: -9, 7: 0, 1: 12}, [], (0, 0)):
        assert linalg._primitive(row) == _primitive_through_rational(row)
        assert calls == []
    for row, expected in (([True, 0, 3], {0: 1, 2: 3}), ({5: False, 2: True}, {2: 1}),
                          ([2, Fraction(1, 3)], {0: 6, 1: 1}), ([1.5, 3], {0: 1, 1: 2})):
        calls.clear()
        got = linalg._primitive(row)
        assert got == expected and all(type(x) is int for x in got.values())
        assert calls


def _triple_loop_product(a, b):
    """The matrix product `dense_product.mat_mul` computed before it
    summed over zipped columns, kept as the oracle."""
    return [[rational(sum(a[i][k] * b[k][j] for k in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 5), inner=st.integers(1, 5), cols=st.integers(1, 5),
       data=st.data())
def test_mat_mul_matches_triple_loop(rows, inner, cols, data):
    a = data.draw(st.lists(st.lists(_SCALAR, min_size=inner, max_size=inner),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(_SCALAR, min_size=cols, max_size=cols),
                           min_size=inner, max_size=inner))
    product = mat_mul(a, b)
    assert product == _triple_loop_product(a, b)
    assert len(product) == rows and all(len(row) == cols for row in product)
    # ints where integral, Fractions elsewhere
    assert all(type(x) is int or x.denominator != 1 for row in product for x in row)


def test_rref_accepts_tuples_and_fractions():
    m = ((Fraction(1, 2), 3), (Fraction(1, 4), Fraction(3, 2)))
    rows, pivots = linalg.rref(m)
    assert (_dense(rows, 2, len(m)), pivots) == ([[1, 6], [0, 0]], [0])
    assert rows == [{0: 1, 1: 6}]
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([], 2) == [{0: 1}, {1: 1}]


def _substitutions(action, packing):
    """One fresh `_Substitution` per generator of `action` on `packing`,
    as a run of `poisson._invariant_bases` keeps them."""
    return [_Substitution(g, packing) for g in action.generators]


def _degree_rows(action, degree):
    """`_invariance_rows` of the degree-d monomials, packed on a packing
    for degree d, and the number of their columns."""
    packing = _Packing(action.dim, degree)
    packed = [packing.pack(e) for e in monomials(action.dim, degree)]
    return _invariance_rows(packed, _substitutions(action, packing)), len(packed)


def _plus_minus():
    return close_group([[[-1, 0], [0, -1]]], standard_form(1))


def _order_three():
    return close_group([[[0, -1], [1, -1]]], standard_form(1))


@pytest.mark.parametrize("make, degrees", [
    (_plus_minus, range(7)),
    (_order_three, range(7)),
    (lambda: symmetric_group_action(3), range(7)),
    (lambda: symmetric_group_action(4), range(4)),
], ids=["pm", "z3", "s3", "s4"])
def test_kernel_on_invariance_rows(make, degrees):
    action = make()
    for d in degrees:
        _check_kernel(*_degree_rows(action, d))


@pytest.mark.parametrize("make, degrees", [
    (_order_three, range(5)),
    (lambda: symmetric_group_action(3), range(3)),
], ids=["z3", "s3"])
def test_kernel_on_functional_matrix(make, degrees):
    action = make()
    for d in degrees:
        matrix, p_monos = functional_matrix(action, d)
        _check_kernel(matrix, len(p_monos))


def test_kernel_on_hook_matrices():
    for n in range(2, 11):
        _check_kernel(hook_matrix(n), n - 1)
        _check_invert(hook_matrix(n))


def _conjugated_s3_file(tmp_path):
    """S_3 on h + h* conjugated by diag(A, A^-T), A = [[2, 1], [0, 1/3]]:
    a group file whose generators have "p/q" entries."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "s3.json"),
              encoding="utf-8") as fh:
        s3 = json.load(fh)
    a = [[2, 1], [0, Fraction(1, 3)]]
    a_inv_t = transpose(linalg.invert(a))
    p = [row + [0, 0] for row in a] + [[0, 0] + row for row in a_inv_t]
    p_inv = linalg.invert(p)
    gens = [mat_mul(mat_mul(p, g), p_inv) for g in s3["generators"]]
    path = tmp_path / "s3_conjugated.json"
    path.write_text(json.dumps({
        "dim": 4, "form": s3["form"],
        "generators": [[[str(x) for x in row] for row in g] for g in gens]}),
        encoding="utf-8")
    return str(path)


def test_kernel_on_group_file_with_fractions(tmp_path):
    form, gens = parse_group_file(_conjugated_s3_file(tmp_path))
    assert any(type(x) is Fraction for g in gens for row in g for x in row)
    action = close_group(gens, form)
    assert action.order == 6
    for d in range(5):
        _check_kernel(*_degree_rows(action, d))
    for d in range(3):
        matrix, p_monos = functional_matrix(action, d)
        _check_kernel(matrix, len(p_monos))
    for g in gens:
        _check_invert(g)
    # conjugation changes no dimension
    assert hp0_dims(action, 4).dims == hp0_dims(symmetric_group_action(3), 4).dims


def test_kernel_on_fractional_form():
    form = [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]]
    action = close_group([[[0, -1], [1, -1]]], form)
    _check_invert(form)
    assert action.form_inverse == [[0, -3], [3, 0]]
    for d in range(5):
        _check_kernel(*_degree_rows(action, d))
