import importlib
import math
import os
import pathlib
import pkgutil
import random
import tempfile
import tracemalloc
from fractions import Fraction

import pytest

import dual_oracle
import morita
from bracket_oracle import bracket
from dense_product import mat_mul, transpose
from morita import linalg, poisson, polynomials
from morita.cli import parse_group_file
from morita.exact import quotient
from morita.poisson import (MultiPoly, NotSymplectic, OrderCapExceeded,
                            OutOfRange, ShapeMismatch,
                            bracket_span_dim, close_group, duality_check,
                            functional_solutions_dim, hp0_dims,
                            invariant_basis, monomials,
                            standard_form, symmetric_group_action)
from test_linalg import _degree_rows, _dense, _rank, _substitutions

J2 = standard_form(1)


def _basis(action, degree):
    """`invariant_basis` on a packing for degree d, its packed rows
    unpacked into `MultiPoly`s for the oracles."""
    packing = polynomials._Packing(action.dim, degree)
    return [MultiPoly._raw(action.dim, {packing.unpack(k): x for k, x in row.items()})
            for row in invariant_basis(action, degree, packing, _substitutions(action, packing))]


def plus_minus():
    return close_group([[[-1, 0], [0, -1]]], J2)


def trivial():
    return close_group([], J2)


def order_three():
    return close_group([[[0, -1], [1, -1]]], J2)


def order_four():
    return close_group([[[0, -1], [1, 0]]], J2)


def order_six():
    return close_group([[[1, -1], [1, 0]]], J2)


def s3():
    return symmetric_group_action(3)


def s4():
    return symmetric_group_action(4)


def _weyl(cartan):
    """The Weyl group of the Cartan matrix a on h + h*, with
    `standard_form(rank)`: the simple reflection s_i sends alpha_j to
    alpha_j - a[i][j] alpha_i in the root basis (column j of s_i is that
    image) and acts as diag(s_i, s_i^-T), where s_i^-T = s_i^T since
    s_i^2 = I."""
    r = len(cartan)
    gens = []
    for i in range(r):
        s = [[int(k == j) - (k == i) * cartan[i][j] for j in range(r)] for k in range(r)]
        gens.append([row + [0] * r for row in s] + [[0] * r + list(col) for col in zip(*s)])
    return close_group(gens, standard_form(r))


def _block_diagonal(action):
    """Every generator is diag(g_h, g_y) on the two halves of the
    coordinates."""
    r = action.dim // 2
    return all(g[i][j] == 0 for g in action.generators
               for i in range(2 * r) for j in range(2 * r) if (i < r) != (j < r))


def b2():
    return _weyl([[2, -2], [-1, 2]])


def g2():
    return _weyl([[2, -1], [-3, 2]])


def b3():
    return _weyl([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])


def d4():
    return _weyl([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


def permutation_s3():
    """S_3 permuting the coordinates of C^3 + C^3: each adjacent
    transposition P acts as diag(P, P), which keeps the standard form
    because P^-T = P."""
    gens = []
    for i in range(2):
        swap = {i: i + 1, i + 1: i}
        p = [[int(b == swap.get(a, a)) for b in range(3)] for a in range(3)]
        gens.append([row + [0] * 3 for row in p] + [[0] * 3 + row for row in p])
    return close_group(gens, standard_form(3))


def test_close_group_orders():
    assert plus_minus().order == 2
    assert trivial().order == 1
    assert order_three().order == 3


def test_close_group_rejects_nonsymplectic():
    with pytest.raises(NotSymplectic):
        close_group([[[2, 0], [0, 1]]], J2)


@pytest.mark.parametrize("form", [
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [-1, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[0, Fraction(1, 3)], [Fraction(-1, 2), 0]],
])
def test_close_group_rejects_form_not_skew(form):
    # a form with J^T != -J gives a bracket that is not Poisson: an input
    # error, whatever the generators, so the CLI exits 2
    with pytest.raises(NotSymplectic, match="J\\^T = -J"):
        close_group([], form)
    assert issubclass(NotSymplectic, ValueError)


@pytest.mark.parametrize("form, gen", [
    ([[0, 0], [0, 0]], [[0, 1], [0, 0]]),
    ([[0, 0], [0, 0]], [[-1, 0], [0, -1]]),
    ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], None),
])
def test_close_group_rejects_degenerate_form(form, gen):
    # a skew form that is not invertible lets a singular g satisfy
    # g^T J g = J: the zero form closes [[0, 1], [0, 0]] to the non-group
    # {0, g, I}.  The form is refused before any closure
    with pytest.raises(NotSymplectic, match="form is degenerate"):
        close_group([gen] if gen else [], form)


def test_close_group_cap():
    # a scaling matrix is already non-symplectic; force the cap path with
    # a legitimate infinite symplectic subgroup (a shear)
    with pytest.raises(OrderCapExceeded):
        close_group([[[1, 1], [0, 1]]], J2, cap=50)
    # an input error, so the CLI reports it with exit code 2
    assert issubclass(OrderCapExceeded, ValueError)


def test_every_element_symplectic():
    from morita.poisson import _is_symplectic
    for action in (plus_minus(), order_three(), symmetric_group_action(3)):
        for g in action.elements:
            assert _is_symplectic(g, action.form)


def test_symmetric_group_action_n2_is_plus_minus():
    s2 = symmetric_group_action(2)
    assert sorted(s2.elements) == sorted(plus_minus().elements)


def test_symmetric_group_action_order():
    assert symmetric_group_action(3).order == 6


def test_invariant_basis_dims():
    pm = plus_minus()
    assert len(_basis(pm, 2)) == 3
    assert len(_basis(pm, 1)) == 0
    for d in range(0, 5):
        assert len(_basis(trivial(), d)) == d + 1


def test_invariant_basis_is_invariant():
    for action in (plus_minus(), order_three()):
        for d in range(0, 5):
            for p in _basis(action, d):
                for g in action.elements:
                    assert p.substitute(g) == p


def test_bracket_defining_pairing():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert bracket(x, y, J2) == MultiPoly.constant(2, 1)
    assert bracket(x * x, y * y, J2) == 4 * (x * y)


def test_bracket_antisymmetry():
    p = MultiPoly(2, {(2, 1): 3, (0, 2): Fraction(1, 2)})
    q = MultiPoly(2, {(1, 1): -1, (3, 0): 2})
    assert bracket(p, p, J2).is_zero()
    assert bracket(p, q, J2) == -bracket(q, p, J2)


def _random_poly(rng, nvars, max_degree):
    terms = {}
    for _ in range(4):
        e = tuple(rng.randrange(0, max_degree + 1) for _ in range(nvars))
        terms[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return MultiPoly(nvars, terms)


def test_bracket_jacobi_spot_checks():
    rng = random.Random(20240817)
    for _ in range(10):
        p = _random_poly(rng, 2, 2)
        q = _random_poly(rng, 2, 2)
        r = _random_poly(rng, 2, 2)
        total = (bracket(p, bracket(q, r, J2), J2)
                 + bracket(q, bracket(r, p, J2), J2)
                 + bracket(r, bracket(p, q, J2), J2))
        assert total.is_zero()


def test_bracket_grading():
    rng = random.Random(7)
    for _ in range(5):
        i = rng.randrange(1, 4)
        j = rng.randrange(1, 4)
        p = MultiPoly(2, {e: rng.randrange(-3, 4) for e in monomials(2, i)})
        q = MultiPoly(2, {e: rng.randrange(-3, 4) for e in monomials(2, j)})
        br = bracket(p, q, J2)
        if not br.is_zero():
            assert {sum(e) for e in br.terms} == {i + j - 2}


def test_bracket_of_invariants_equivariance():
    action = order_three()
    for p in _basis(action, 3):
        for q in _basis(action, 3):
            br = bracket(p, q, action.form)
            for g in action.elements:
                assert bracket(p.substitute(g), q.substitute(g), action.form) \
                    == br.substitute(g)


def test_bracket_span_examples():
    pm = plus_minus()
    assert bracket_span_dim(pm, 2) == 3
    assert bracket_span_dim(pm, 0) == 0
    assert bracket_span_dim(trivial(), 0) == 1


def test_hp0_plus_minus():
    graded = hp0_dims(plus_minus(), 8)
    assert graded.dims[0] == 1
    assert all(graded.dims[n] == 0 for n in range(1, 9))
    assert graded.total == 1
    assert graded.stabilized


def test_hp0_trivial_group():
    graded = hp0_dims(trivial(), 4)
    assert all(v == 0 for v in graded.dims.values())
    assert graded.total == 0


def test_functional_solutions_examples():
    assert functional_solutions_dim(plus_minus(), 0) == 1
    assert functional_solutions_dim(plus_minus(), 2) == 0
    assert functional_solutions_dim(trivial(), 0) == 0


def test_duality_all_actions():
    for action, cutoff in ((plus_minus(), 6), (trivial(), 4), (order_three(), 6)):
        report = duality_check(action, hp0_dims(action, cutoff))
        assert report["pass"], report


def test_hp0_matches_dual_solver_order_three():
    graded = hp0_dims(order_three(), 6)
    for n in range(7):
        assert graded.dims[n] == functional_solutions_dim(order_three(), n)


def _invariant_solutions_dim(action, degree):
    """The solution count of `functional_solutions_dim` restricted to
    invariant P: the rank of the functional rows together with the
    invariance rows of the degree-n monomials."""
    matrix, p_monos = dual_oracle.functional_matrix(action, degree)
    return len(p_monos) - _rank(matrix + _degree_rows(action, degree)[0])


def test_invariant_restricted_count_bounded():
    for action in (plus_minus(), order_three()):
        for n in range(0, 5):
            full = functional_solutions_dim(action, n)
            inv = _invariant_solutions_dim(action, n)
            assert 0 <= inv <= full


def test_solution_space_group_stable():
    # applying a group element to a solution of the functional equation
    # yields another solution
    action = order_three()
    for degree in range(0, 5):
        matrix, p_monos = dual_oracle.functional_matrix(action, degree)
        if not matrix:
            continue
        null = linalg.nullspace(matrix, len(p_monos))
        for v in null:
            p = MultiPoly(action.dim, {p_monos[c]: x for c, x in v.items()})
            for h in action.elements:
                moved = p.substitute(h)
                w = [moved.terms.get(e, Fraction(0)) for e in p_monos]
                residual = [sum(row[i] * w[i] for i in range(len(w)))
                            for row in _dense(matrix, len(p_monos))]
                assert all(x == 0 for x in residual)


def test_reynolds_projector():
    action = plus_minus()
    for e in monomials(2, 3):
        avg = reynolds(action, MultiPoly.monomial(2, e))
        assert reynolds(action, avg) == avg


def test_invariant_only_count_uses_invariance():
    # the single degree-2 solution for Z/3 is x0^2 - x0 x1 + x1^2, which is
    # invariant, so restricting to invariants keeps it
    assert functional_solutions_dim(order_three(), 2) == 1
    assert _invariant_solutions_dim(order_three(), 2) == 1


def test_close_group_keeps_generators():
    assert order_three().generators == [((0, -1), (1, -1))]
    assert trivial().generators == []
    assert len(symmetric_group_action(3).generators) == 2


def test_poisson_input_validation():
    with pytest.raises(ShapeMismatch):
        close_group([], [[0, 1, 0], [-1, 0, 0]])
    with pytest.raises(ShapeMismatch):
        MultiPoly(2, {(1, 0, 0): 1})
    with pytest.raises(OutOfRange):
        symmetric_group_action(1)
    action = plus_minus()
    for call in (bracket_span_dim, hp0_dims, functional_solutions_dim):
        with pytest.raises(OutOfRange):
            call(action, -1)
    packing = polynomials._Packing(action.dim, 1)
    with pytest.raises(OutOfRange):
        invariant_basis(action, -1, packing, _substitutions(action, packing))


def _matrix_power_traces(g, top):
    """tr(g^k) for k = 1..top."""
    power = g
    out = []
    for _ in range(top):
        out.append(sum(power[i][i] for i in range(len(power))))
        power = mat_mul(power, g)
    return out


def _molien_coefficients(action, top):
    """(1/|G|) sum_g h_d(g) for d = 0..top, where h_d(g) is the trace of g
    on degree-d polynomials, from the power sums tr(g^k) by Newton's
    identity d h_d = sum_{k=1}^{d} tr(g^k) h_{d-k}."""
    totals = [Fraction(0)] * (top + 1)
    for g in action.elements:
        p = _matrix_power_traces(g, top)
        h = [Fraction(1)]
        for d in range(1, top + 1):
            h.append(sum(p[k - 1] * h[d - k] for k in range(1, d + 1)) / d)
        totals = [t + x for t, x in zip(totals, h)]
    return [t / action.order for t in totals]


MOLIEN_ACTIONS = {
    "plus_minus": (plus_minus, [1, 0, 3, 0, 5, 0, 7]),
    "trivial": (trivial, [1, 2, 3, 4, 5, 6, 7]),
    "order_three": (order_three, [1, 0, 1, 2, 1, 2, 3]),
    "s3": (lambda: symmetric_group_action(3), [1, 0, 3, 4, 6, 10, 17]),
}


@pytest.mark.parametrize("name", sorted(MOLIEN_ACTIONS))
def test_invariant_dims_match_molien(name):
    make, expected = MOLIEN_ACTIONS[name]
    action = make()
    molien = _molien_coefficients(action, 6)
    assert molien == expected
    assert [len(_basis(action, d)) for d in range(7)] == expected


@pytest.mark.parametrize("name", sorted(MOLIEN_ACTIONS))
def test_invariant_basis_spans_reynolds_image(name):
    action = MOLIEN_ACTIONS[name][0]()
    for d in range(7):
        monos = monomials(action.dim, d)
        basis = [[p.terms.get(e, Fraction(0)) for e in monos]
                 for p in _basis(action, d)]
        averages = [reynolds(action, MultiPoly.monomial(action.dim, e))
                    for e in monos]
        averaged = [[p.terms.get(e, Fraction(0)) for e in monos] for p in averages]
        assert _rank(basis) == len(basis) == _rank(averaged)
        assert _rank(basis + averaged) == len(basis)


def test_reynolds_off_the_production_path():
    # the group average is the tests' oracle alone: the package defines no
    # `reynolds`, so no command can reach it
    names = ["morita"] + ["morita." + m.name for m in pkgutil.iter_modules(morita.__path__)]
    assert "morita.poisson" in names
    for name in names:
        assert not hasattr(importlib.import_module(name), "reynolds"), name


def test_one_basis_per_degree(monkeypatch):
    # each degree is built once, by products or by the nullspace: the
    # bases run through degrees 0..cutoff, and cutoff + 1 only when
    # something pairs with it (with degree-1 invariants, which only the
    # trivial group has; Z/3 at cutoff 0 builds degree 0 alone); the
    # nullspace runs only in the degrees where products of lower
    # invariants fall short of the Molien count and, when every generator
    # is block diagonal (S_3 and the trivial group, not Z/3 on C^2), so do
    # the h block and its polarizations
    built, nullspace = [], []
    bases, original = poisson._invariant_bases, poisson.invariant_basis

    def counted_bases(action, top):
        out = bases(action, top)
        built.extend(range(len(out[1])))
        return out

    def counted(action, degree, packing, substitutions):
        nullspace.append(degree)
        return original(action, degree, packing, substitutions)

    def refuse(action, max_degree):
        raise AssertionError("hp0_dims called")
    monkeypatch.setattr(poisson, "_invariant_bases", counted_bases)
    monkeypatch.setattr(poisson, "invariant_basis", counted)
    reports = []
    for action, cutoff, top, fallback in ((order_three(), 6, False, [2, 3]),
                                          (s3(), 3, False, []),
                                          (trivial(), 3, True, []),
                                          (trivial(), 0, True, []),
                                          (order_three(), 0, False, [])):
        built.clear()
        nullspace.clear()
        reports.append((action, hp0_dims(action, cutoff)))
        assert built == list(range(cutoff + 1 + top))
        assert nullspace == fallback
    monkeypatch.setattr(poisson, "hp0_dims", refuse)
    for action, graded in reports:
        assert len(duality_check(action, graded)["rows"]) == graded.max_degree + 1


def test_form_inverted_only_when_its_square_is_not_minus_one(monkeypatch):
    calls = []
    original = linalg.invert

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(linalg, "invert", counted)
    # J^2 = -I: close_group reads J^-1 = -J with no linalg.invert call,
    # and hp0_dims uses that inverse
    for action, cutoff in ((order_three(), 6), (symmetric_group_action(3), 3)):
        calls.clear()
        hp0_dims(close_group(action.generators, action.form), cutoff)
        assert calls == []
    # J = [[0, 1/3], [-1/3, 0]] has J^2 = -I/9: inverted once, in close_group
    calls.clear()
    action = _fractional_form()
    hp0_dims(action, 4)
    assert calls == [action.form]
    # a direct call on the same action reuses its inverse
    calls.clear()
    assert bracket_span_dim(action, 3) == 2
    assert calls == []


def _rotated_form():
    # Q J Q^T for the block J on 4 coordinates and the rational rotation
    # Q = [[3/5, -4/5], [4/5, 3/5]] + I: skew, J^2 = -I, Fraction entries
    q = [[Fraction(3, 5), Fraction(-4, 5), 0, 0], [Fraction(4, 5), Fraction(3, 5), 0, 0],
         [0, 0, 1, 0], [0, 0, 0, 1]]
    return mat_mul(mat_mul(q, standard_form(2)), transpose(q))


def _golden_forms():
    forms = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("golden/*.json")):
        if path.name != "cases.json":
            forms["golden_" + path.stem] = parse_group_file(str(path))[0]
    return forms


MINUS_ONE_FORMS = dict(
    [("standard_%d" % d, standard_form(d)) for d in range(1, 7)]
    + list(_golden_forms().items())
    # the block form on 6 coordinates, its coordinates permuted
    + [("permuted", [[standard_form(3)[a][b] for b in (4, 0, 5, 2, 1, 3)]
                     for a in (4, 0, 5, 2, 1, 3)]),
       ("rotated", _rotated_form())])


def _types(m):
    return [type(m)] + [list(map(type, row)) for row in m]


@pytest.mark.parametrize("name", sorted(MINUS_ONE_FORMS) + ["fractional_form"])
def test_form_inverse_matches_invert(name):
    form = _fractional_form().form if name == "fractional_form" else MINUS_ONE_FORMS[name]
    expected = linalg.invert(form)
    minus = linalg._minus_if_inverse(poisson._freeze(form))
    if name == "fractional_form":
        assert minus is None
    else:
        assert minus == expected and _types(minus) == _types(expected)
    # close_group keeps whichever it took, entry for entry with invert's types
    inverse = close_group([], form).form_inverse
    assert inverse == expected and _types(inverse) == _types(expected)


def test_molien_refuses_a_negative_degree():
    # before and after a count is read: a negative degree once returned
    # the last count read (3, after molien(2) on S_3), or IndexError
    read_first = symmetric_group_action(3)
    assert read_first.molien(2) == 3
    with pytest.raises(OutOfRange):
        read_first.molien(-1)
    fresh = symmetric_group_action(3)
    with pytest.raises(OutOfRange):
        fresh.molien(-1)
    assert fresh.molien(2) == 3
    with pytest.raises(OutOfRange):
        linalg.MolienSeries(fresh.power_traces).count(-2)


def reynolds(action, p):
    """Group average of p; a projector onto the invariant ring.  The
    package's invariant bases come from the generators' fixed space; this
    is the independent reference they are compared against."""
    total = MultiPoly(action.dim)
    for g in action.elements:
        total = total + p.substitute(g)
    return quotient(1, action.order) * total


def _substitute_per_call(p, matrix):
    """The substitution `MultiPoly.substitute` did before the linear forms
    and their powers were shared across monomials; kept as the oracle."""
    n = p.nvars
    forms = [MultiPoly(n, {tuple(int(k == j) for k in range(n)): matrix[i][j]
                           for j in range(n) if matrix[i][j]})
             for i in range(n)]
    out = MultiPoly(n)
    for e, c in p.terms.items():
        term = MultiPoly.constant(n, c)
        for i, k in enumerate(e):
            if k:
                term = term * forms[i] ** k
        out = out + term
    return out


def _invariance_rows_per_monomial(action, monos):
    # the rows as built before: one substitution per monomial
    rows = []
    for g in action.generators:
        images = [_substitute_per_call(MultiPoly.monomial(action.dim, e), g)
                  for e in monos]
        for r, e in enumerate(monos):
            row = [img.terms.get(e, 0) for img in images]
            row[r] -= 1
            if any(row):
                rows.append(row)
    return rows


@pytest.mark.parametrize("make, degrees", [
    (plus_minus, range(7)),
    (order_three, range(7)),
    (lambda: symmetric_group_action(3), range(7)),
    (lambda: symmetric_group_action(4), range(4)),
], ids=["pm", "z3", "s3", "s4"])
def test_invariance_rows_match_per_monomial_substitution(make, degrees):
    action = make()
    for d in degrees:
        monos = monomials(action.dim, d)
        assert _dense(*_degree_rows(action, d)) \
            == _invariance_rows_per_monomial(action, monos)


def test_substitute_matches_per_call_substitution():
    rng = random.Random(11)
    matrices = list(symmetric_group_action(3).elements)
    matrices += [[[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)]
                  for _ in range(4)] for _ in range(5)]
    for matrix in matrices:
        for _ in range(4):
            p = _random_poly(rng, 4, 2)
            assert p.substitute(matrix) == _substitute_per_call(p, matrix)
        # `substitute` packs with room for entries up to the degree of p: a
        # constant packs with top 0, and x_i^top fills the room of variable
        # i (its whole field when top is 2^k - 1, the high bit when 2^k)
        edge = [MultiPoly(4), MultiPoly.constant(4, Fraction(-3, 2))]
        edge += [MultiPoly(4, {polynomials._unit(4, *[i] * top): 2,
                               polynomials._unit(4, 3 - i): Fraction(1, 3)})
                 for i in range(4) for top in (1, 2, 3, 4, 7, 8)]
        for p in edge:
            assert p.substitute(matrix) == _substitute_per_call(p, matrix)


def _pairing_poly(action, g):
    # (u, g v) = sum of (J g)[a][c] u_a v_c in the 2*dim variables (u, then v)
    d = action.dim
    jg = mat_mul(action.form, g)
    return MultiPoly(2 * d, {polynomials._unit(2 * d, a, d + c): jg[a][c]
                             for a in range(d) for c in range(d)})


def _full_functional_matrix(action, degree):
    """The functional matrix as built before it was read on orbit sums,
    kept as the oracle: every element's shift map [I | g] into the 2*dim
    variables (u, then v), one row per monomial in (u, v).  Returns the
    rows as a map monomial -> sparse row, in sorted order, and p_monos."""
    d = action.dim
    p_monos = monomials(d, degree)
    columns = [{} for _ in p_monos]
    for g in action.elements:
        # u -> u + g v and v -> v, the shift map [[I, g], [0, I]] on the
        # doubled variables
        shift = [[int(i == j) for j in range(d)] + list(g[i]) for i in range(d)] \
            + [[0] * d + [int(i == j) for j in range(d)] for i in range(d)]
        pair = _pairing_poly(action, g).terms
        for col, e in zip(columns, p_monos):
            img = MultiPoly.monomial(2 * d, e + (0,) * d).substitute(shift)
            polynomials._add_product(col, pair, img.terms)
    rows = {}
    for c, col in enumerate(columns):
        for e, x in polynomials._exact_nonzero(col).items():
            rows.setdefault(e, {})[c] = x
    return {e: rows[e] for e in sorted(rows)}, p_monos


def _functional_matrix_per_monomial(action, degree):
    """The functional matrix as built before the shift powers were shared
    across monomials: for every monomial of P and every element g, the
    product of the shifted linear forms' powers.  Kept as the oracle."""
    d = action.dim
    p_monos = monomials(d, degree)
    per_element = []
    for g in action.elements:
        shifted = [MultiPoly(2 * d, {polynomials._unit(2 * d, i): 1}
                             | {polynomials._unit(2 * d, d + c): g[i][c] for c in range(d)})
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
    row_index = sorted(set().union(*(c.terms.keys() for c in columns)))
    matrix = [[col.terms.get(e, 0) for col in columns] for e in row_index]
    return matrix, p_monos


def _invariant_leading_monomials(action, degree):
    # the leading monomials of the echelon form of the degree-d
    # invariants, which the orbit sums of degree d span
    return set(linalg.rref([p.terms for p in _basis(action, degree)])[1])


def _assert_functional_matrix_matches(action, degrees):
    # the rows are the full matrix's rows at the monomials u^a v^c whose
    # v^c leads the degree-|c| invariants, in order, with the same rank
    d = action.dim
    for n in degrees:
        matrix, p_monos = dual_oracle.functional_matrix(action, n)
        full, full_monos = _full_functional_matrix(action, n)
        assert full_monos == p_monos
        assert (_dense(list(full.values()), len(p_monos)), p_monos) \
            == _functional_matrix_per_monomial(action, n)
        keys = {k: _invariant_leading_monomials(action, k) for k in range(1, n + 2)}
        assert matrix == [row for e, row in full.items() if e[d:] in keys[sum(e[d:])]]
        assert _rank(matrix) == _rank(list(full.values()))
        assert all(type(x) is int or x.denominator != 1
                   for row in matrix for x in row.values())


@pytest.mark.parametrize("make, degrees", [
    (plus_minus, range(7)),
    (order_three, range(7)),
    (order_four, range(7)),
    (s3, range(4)),
    (s4, range(3)),
], ids=["pm", "z3", "z4", "s3", "s4"])
def test_functional_matrix_matches_per_monomial(make, degrees):
    _assert_functional_matrix_matches(make(), degrees)


def test_functional_matrix_matches_per_monomial_with_fractions(tmp_path):
    from test_linalg import _conjugated_s3_file
    form, gens = parse_group_file(_conjugated_s3_file(tmp_path))
    _assert_functional_matrix_matches(close_group(gens, form), range(3))


def _conjugated_s3():
    from test_linalg import _conjugated_s3_file
    with tempfile.TemporaryDirectory() as tmp:
        form, gens = parse_group_file(_conjugated_s3_file(pathlib.Path(tmp)))
    return close_group(gens, form)


@pytest.mark.parametrize("make", [
    _conjugated_s3,
    # Z/3 conjugated by diag(2, 1/2): -4 * 1/4 makes integral Fractions
    lambda: close_group([[[0, -4], [Fraction(1, 4), -1]]], J2),
], ids=["s3", "z3"])
def test_invariance_rows_with_fractions_match_per_monomial(make):
    # Fraction * Fraction stays a Fraction even when it is integral, so
    # the images must be brought back under the rule of `rational`
    action = make()
    fractions = 0
    for d in range(5):
        monos = monomials(action.dim, d)
        rows = _dense(*_degree_rows(action, d))
        assert rows == _invariance_rows_per_monomial(action, monos)
        assert all(type(x) is int or x.denominator != 1 for row in rows for x in row)
        fractions += sum(type(x) is Fraction for row in rows for x in row)
    assert fractions


def test_invariance_rows_stay_sparse():
    # S_4 in degree 6 (924 monomials, 32 invariants): with dense
    # invariance rows and a dense rref the basis peaked at 10.0 MB of
    # Python allocations; the sparse rows need 1.6 MB
    action = symmetric_group_action(4)
    packing = polynomials._Packing(action.dim, 6)
    for k in range(6):
        invariant_basis(action, k, packing, _substitutions(action, packing))
    substitutions = _substitutions(action, packing)
    tracemalloc.start()
    try:
        basis = invariant_basis(action, 6, packing, substitutions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 32
    assert peak <= 4 * 2 ** 20


def test_dual_check_holds_one_element_of_images():
    # S_4 through cutoff 5: the dual reads the bases and builds no
    # element's images.  With the images of every element kept on the
    # action the run peaked at 10.2 MB of Python allocations, and on
    # orbit sums (`dual_oracle`), one element's images at a time, at
    # 5.0 MB; the brackets with the bases need under 1 MB
    action = symmetric_group_action(4)
    for dual in (False, True):
        tracemalloc.start()
        try:
            report = duality_check(action, hp0_dims(action, 5, dual))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row["degree"] for row in report["rows"]] == list(range(6))
        assert peak < 2 * 2 ** 20


def test_images_in_any_degree_order():
    # one action asked for degrees down and then up again: each answer is
    # that of a fresh action, and the action keeps nothing it did not
    # have when it was closed (its Molien count aside); the oracle's rows
    # read on the orbit sums of a higher degree are those read on their own
    for make, top in ((s3, 5), (_conjugated_s3, 4)):
        action = make()
        kept = set(vars(action))
        for d in list(range(top, -1, -1)) + list(range(top + 1)):
            assert _degree_rows(action, d) == _degree_rows(make(), d)
            assert functional_solutions_dim(action, d) \
                == functional_solutions_dim(make(), d)
        sums = dual_oracle.orbit_sums(action, 4)
        for d in (3, 1, 2, 0, 3):
            assert dual_oracle.functional_matrix(action, d) \
                == dual_oracle.functional_matrix(make(), d) \
                == dual_oracle.functional_matrix(action, d, sums)
        assert set(vars(action)) == kept


def _recorded_substitutions(monkeypatch):
    """Record, per `_Substitution` built, its matrix and packing, and the
    exponents (unpacked) of every image it builds, in order."""
    subs = {}
    init, image = poisson._Substitution.__init__, poisson._Substitution.image

    def recorded(sub, matrix, packing):
        subs[sub] = (matrix, packing, [])
        init(sub, matrix, packing)

    def counted(sub, e):
        if e not in sub.memo:
            subs[sub][2].append(subs[sub][1].unpack(e))
        return image(sub, e)

    monkeypatch.setattr(poisson._Substitution, "__init__", recorded)
    monkeypatch.setattr(poisson._Substitution, "image", counted)
    return subs


def _fallback_degrees(monkeypatch):
    """Record the degree of every call of the nullspace fallback."""
    nullspace = []
    original = poisson.invariant_basis

    def counted(action, degree, packing, substitutions):
        nullspace.append(degree)
        return original(action, degree, packing, substitutions)

    monkeypatch.setattr(poisson, "invariant_basis", counted)
    return nullspace


def _h_block_calls(monkeypatch):
    """Record, per call of the h block and its polarizations, its degree
    and the number of new generators it gave."""
    calls = []
    original = poisson._h_block_generators

    def counted(action, degree, *args):
        rows = original(action, degree, *args)
        calls.append((degree, len(rows)))
        return rows

    monkeypatch.setattr(poisson, "_h_block_generators", counted)
    return calls


def _h_climb(action, top):
    """The exponents of the monomials of degrees 1..top in the first half
    of the coordinates (h), sorted."""
    half = action.dim // 2
    return sorted(e + (0,) * half for d in range(1, top + 1) for e in monomials(half, d))


def test_dual_check_builds_each_image_once(monkeypatch, capsys):
    # one `hp0 --dual-check` builds its bases once, through cutoff + 1,
    # for hp0 and the dual alike, and each substitution builds every
    # monomial image once.  The run keeps one substitution per generator,
    # and the h-block bases of degrees 2 and 3 (`_h_block_generators`)
    # build its images of the h-monomials of degrees 1..3 once between
    # them; the nullspace over every monomial never runs.  The dual adds
    # no substitution: no group element's, and not one of J^-1 either,
    # which the brackets of its rows absorb (poisson's module docstring)
    from morita.cli import run
    subs = _recorded_substitutions(monkeypatch)
    nullspace, h_block, tops = _fallback_degrees(monkeypatch), _h_block_calls(monkeypatch), []
    bases = poisson._invariant_bases

    def counted_bases(action, top):
        tops.append(top)
        return bases(action, top)

    monkeypatch.setattr(poisson, "_invariant_bases", counted_bases)
    group = os.path.join(os.path.dirname(__file__), "golden", "s3.json")
    cutoff = 3
    assert run(["hp0", "--group", group, "--max-degree", str(cutoff),
                "--dual-check"]) == 1  # the known S_3 dual mismatch
    capsys.readouterr()
    action = s3()
    assert tops == [cutoff + 1]
    assert nullspace == [] and [d for d, _ in h_block] == [2, 3]
    expected = sorted((g, _h_climb(action, 3)) for g in action.generators)
    assert sorted((matrix, sorted(built)) for matrix, _, built in subs.values()) == expected
    assert all(len(set(built)) == len(built) for _, _, built in subs.values())


def test_dual_check_substitutes_in_dim_variables(monkeypatch, capsys):
    # the only substitutions of a dual check are the generators' of the
    # nullspace bases, in the dim variables: no shift map [I | g] into
    # the 2*dim variables (u, v)
    from morita.cli import run
    subs = _recorded_substitutions(monkeypatch)
    for name, cutoff, code in (("s3.json", 3, 1), ("z3.json", 4, 0)):
        group = os.path.join(os.path.dirname(__file__), "golden", name)
        assert run(["hp0", "--group", group, "--max-degree", str(cutoff),
                    "--dual-check"]) == code
    capsys.readouterr()
    assert sorted({len(packing.units) for _, packing, _ in subs.values()}) == [2, 4]
    assert all(len(matrix) == len(packing.units) for matrix, packing, _ in subs.values())


def _afls_count(action):
    """Conjugacy classes of elements g with det(g - I) != 0, i.e. no
    eigenvalue 1: the Alev-Farinati-Lambre-Solotar lower bound on the
    total dimension of HP_0 of the invariants."""
    inverse = {h: poisson._freeze(linalg.invert(h)) for h in action.elements}
    seen = set()
    count = 0
    for g in action.elements:
        if g in seen:
            continue
        seen |= {poisson._freeze(mat_mul(mat_mul(h, g), inverse[h]))
                 for h in action.elements}
        minus_one = [[x - int(i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(g)]
        count += _rank(minus_one) == action.dim
    return count


# group, cutoff, AFLS count
AFLS_CASES = {
    "pm": (plus_minus, 6, 1),
    "z3": (order_three, 8, 2),
    "z4": (order_four, 8, 3),
    "z6": (order_six, 10, 5),
    "s3": (s3, 8, 1),
    "s4": (s4, 5, 1),
    "b2": (b2, 8, 2),
    "g2": (g2, 8, 3),
    "b3": (b3, 8, 3),
    "d4": (d4, 8, 3),
}


def _oracle_cutoff(name):
    """The cutoff at which the oracles that build a nullspace basis over
    every monomial, or a full-rank span, in every degree read the AFLS
    case `name`.  D_4 (order 192 on C^8) is read through 5, its bases
    through its last fallback degree 6: through 8 each such oracle took
    70 s or more."""
    return min(AFLS_CASES[name][1], 5) if name == "d4" else AFLS_CASES[name][1]


def _dual_top(name, top):
    """The degree through which the dual oracles (orbit sums, the full
    functional matrix, the count over invariant P) read the AFLS case
    `name`, at most `top`: they sum over the group, and through 4 took
    13 s on B_3 and minutes on D_4."""
    return min(top, {"b3": 3, "d4": 2}.get(name, top))


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_hp0_meets_afls_bound(name):
    make, cutoff, expected = AFLS_CASES[name]
    action = make()
    assert _afls_count(action) == expected
    # the bound is total >= count; every case meets it with equality
    assert hp0_dims(action, cutoff).total == expected


@pytest.mark.parametrize("name", sorted(AFLS_CASES) + ["trivial"])
def test_dims_do_not_depend_on_the_cutoff(name):
    # the degree cutoff + 1 basis is skipped without degree-1 invariants;
    # the trivial group has them, and at cutoff 0 its answer is {0: 0}
    make, top = (trivial, 4) if name == "trivial" else AFLS_CASES[name][:2]
    action = make()
    dims = hp0_dims(action, top).dims
    for m in range(top + 1):
        assert hp0_dims(action, m).dims == {n: dims[n] for n in range(m + 1)}
    if name == "trivial":
        assert hp0_dims(action, 0).dims == {0: 0}


def test_hp0_permutation_action_vanishes():
    # C[V + V*]^{S_3} = C[h + h*]^{S_3} (x) C[x, y] with {x, y} = 1, and
    # HP_0(C[x, y]) = 0 (every polynomial is a bracket), so by Kunneth
    # every degree vanishes; no element lacks the fixed vector (1, 1, 1)
    action = permutation_s3()
    assert action.order == 6
    assert _afls_count(action) == 0
    assert hp0_dims(action, 5).dims == {d: 0 for d in range(6)}


_BASIS_ENTRIES = (-1, 1, 2, Fraction(1, 2))


def _change_of_basis(rng, form):
    """P as a product of 2-4 factors drawn by `rng`, each with its entry
    c from _BASIS_ENTRIES: an elementary matrix (I with c at (i, j), i
    and j distinct or not) or a transvection x -> x + c (e_i, x) e_i of
    the form, I + c e_i J[i].  A transvection keeps J; any other factor
    may not."""
    n = len(form)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 4)):
        c = rng.choice(_BASIS_ENTRIES)
        i, j = rng.randrange(n), rng.randrange(n)
        factor = [[int(a == b) for b in range(n)] for a in range(n)]
        if rng.random() < 0.5:
            factor[i][j] = c
        else:
            factor[i] = [x + c * y for x, y in zip(factor[i], form[i])]
        p = mat_mul(p, factor)
    return p


def _conjugated(name):
    """The AFLS_CASES group `name`, the same group in the coordinates of
    a seeded change of basis P (generators P^-1 g P, form P^T J P), and
    P^-1."""
    action = AFLS_CASES[name][0]()
    p = _change_of_basis(random.Random(name), action.form)
    p_inv = linalg.invert(p)
    gens = [mat_mul(mat_mul(p_inv, g), p) for g in action.generators]
    moved = close_group(gens, mat_mul(mat_mul(transpose(p), action.form), p))
    return action, moved, p_inv


def test_change_of_basis_draws_both_paths():
    # the draws are seeded, so check that they reach what the property
    # test must cover: Fraction generators, and a form with J^2 != -I,
    # whose inverse `close_group` takes from `linalg.invert`
    moved = [_conjugated(name)[1] for name in sorted(AFLS_CASES)]
    assert any(type(x) is Fraction for a in moved for g in a.generators
               for row in g for x in row)
    assert any(linalg._minus_if_inverse(a.form) is None for a in moved)


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_hp0_invariant_under_change_of_basis(name):
    cutoff = _oracle_cutoff(name)
    action, moved, p_inv = _conjugated(name)
    assert moved.order == action.order
    # the bivector J^-1 changes as P^-1 J^-1 P^-T
    assert moved.form_inverse \
        == mat_mul(mat_mul(p_inv, action.form_inverse), transpose(p_inv))
    assert [moved.molien(d) for d in range(cutoff + 1)] \
        == [action.molien(d) for d in range(cutoff + 1)]
    assert hp0_dims(moved, cutoff).dims == hp0_dims(action, cutoff).dims
    for n in range(min(cutoff, _dual_top(name, 3 if name == "s4" else 4)) + 1):
        assert _invariant_solutions_dim(moved, n) == _invariant_solutions_dim(action, n)


def _full_rank_bracket_span_dim(action, degree, bases):
    """The bracket span `bracket_span_dim` measured before it read the
    brackets on invariant coordinates and stopped at full rank, kept as
    the oracle: every pair, both orders, each bracket (`bracket`, on
    exponent tuples) a dense row over all degree-d monomials, and the
    rank of the whole matrix."""
    column = {e: c for c, e in enumerate(monomials(action.dim, degree))}
    rows = []
    for i in range(1, degree // 2 + 2):
        j = degree + 2 - i
        if not bases[i] or not bases[j]:
            continue
        for p in bases[i]:
            for q in bases[j]:
                row = [0] * len(column)
                for e, x in bracket(p, q, action.form).terms.items():
                    row[column[e]] = x
                if any(row):
                    rows.append(row)
    return _rank(rows)


def _fractional_form():
    # the form of test_linalg's fractional-form case
    return close_group([[[0, -1], [1, -1]]], [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])


BRACKET_SPAN_CASES = dict(
    [("afls_" + name, (case[0], _oracle_cutoff(name))) for name, case in AFLS_CASES.items()]
    + [("molien_" + name, (case[0], 6)) for name, case in MOLIEN_ACTIONS.items()]
    + [("trivial", (trivial, 4)), ("permutation_s3", (permutation_s3, 5)),
       ("fractional_file", (_conjugated_s3, 4)), ("fractional_form", (_fractional_form, 6))])


@pytest.mark.parametrize("name", sorted(BRACKET_SPAN_CASES))
def test_bracket_span_matches_full_rank(name):
    # the span on the product bases against the full-rank span on the
    # nullspace bases
    make, cutoff = BRACKET_SPAN_CASES[name]
    action = make()
    null = [_basis(action, k) for k in range(cutoff + 2)]
    bases = poisson._invariant_bases(action, cutoff + 1)
    for d in range(cutoff + 1):
        assert bracket_span_dim(action, d, bases) \
            == _full_rank_bracket_span_dim(action, d, null)


def _counted_brackets(monkeypatch):
    """A list that gains one entry per `poisson._bracket_at` call from
    here on."""
    calls = []
    original = poisson._bracket_at

    def counted(p, q, bivector, keys, packing):
        calls.append(1)
        return original(p, q, bivector, keys, packing)

    monkeypatch.setattr(poisson, "_bracket_at", counted)
    return calls


def test_bracket_span_stops_at_full_rank(monkeypatch):
    # the full-rank span took 2252 brackets for S_3 through degree 10
    calls = _counted_brackets(monkeypatch)
    assert hp0_dims(s3(), 10).total == 1
    assert 0 < len(calls) < 2252 // 2


def _all_pairs_span_dim(action, degree, run):
    """The bracket span as `bracket_span_dim` took it before it paired
    the generators alone with the basis rows, kept as the oracle: every
    two basis rows of degrees i + j = d + 2 (one order of each pair
    within a degree, since {q, p} = -{p, q}), read at the leading
    monomials K of the degree-d basis and stopped at rank len(K)."""
    packing, bases, _ = run
    keys = {min(row) for row in bases[degree]}
    if not keys:
        return 0
    bivector = poisson._bivector(action.form_inverse)
    span = linalg.Echelon()
    for i in range(1, degree // 2 + 2):
        j = degree + 2 - i
        if not bases[i] or not bases[j]:
            continue
        for a, p in enumerate(bases[i]):
            for q in bases[j][a + 1:] if i == j else bases[j]:
                if span.add(poisson._bracket_at(p, q, bivector, keys, packing)) \
                        and span.rank == len(keys):
                    return span.rank
    return span.rank


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_generator_pairs_span_what_all_pairs_span(name):
    # by Leibniz the brackets of the generators with the basis rows span
    # the brackets of every two basis rows: the same dims on each AFLS
    # group through its cutoff, and on its seeded change of basis (where
    # the nullspace fallback makes the generators) through the oracle
    # cutoff
    action, moved, _ = _conjugated(name)
    for group, cutoff in ((action, AFLS_CASES[name][1]), (moved, _oracle_cutoff(name))):
        run = poisson._invariant_bases(group, cutoff + (group.molien(1) > 0))
        for d in range(cutoff + 1):
            assert bracket_span_dim(group, d, run) == _all_pairs_span_dim(group, d, run)


def test_span_forms_at_most_one_bracket_per_generator_pair(monkeypatch):
    # the brackets hp0_dims forms never exceed the (generator, basis row)
    # pairs it may read: G_2 through 16 allows 2703, where pairing every
    # two basis rows formed 3508 brackets
    action = g2()
    _, bases, generators = poisson._invariant_bases(action, 16)
    allowed = sum(len(bases[n + 2 - i]) for n in range(17) for i, _ in generators if i <= n + 1)
    assert allowed == 2703
    calls = _counted_brackets(monkeypatch)
    hp0_dims(action, 16)
    assert 0 < len(calls) <= allowed


def _basis_row_solutions_dim(action, degree, run):
    """The dual count as `functional_solutions_dim` took it before it
    paired the monomials with the generators alone, kept as the oracle:
    each one-term monomial row {x^m: 1} of degree n + 2 - k with each
    basis row of the degree-k invariants, k = 1..n + 1, read at every
    degree-n monomial and stopped at rank len(keys)."""
    packing, bases, _ = run
    keys = {packing.pack(e) for e in monomials(action.dim, degree)}
    bivector = poisson._bivector(action.form_inverse)
    echelon = linalg.Echelon()
    for k in range(1, degree + 2):
        monos = [{packing.pack(e): 1} for e in monomials(action.dim, degree + 2 - k)]
        for q in bases[k]:
            for m in monos:
                if echelon.rank == len(keys):
                    return 0
                echelon.add(poisson._bracket_at(m, q, bivector, keys, packing))
    return len(keys) - echelon.rank


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_generator_pairs_give_the_basis_row_dual(name):
    # by Leibniz, {x^m, ab} = {x^m a, b} + {x^m b, a}, so the brackets of
    # the monomials with the generators span those with every basis row:
    # the same dual counts on each AFLS group and on its seeded change of
    # basis, read through 6 on B_3 and 4 on D_4 (through 8 the oracle took
    # 20 s on B_3, and D_4's bases through 6 took 29 s)
    action, moved, _ = _conjugated(name)
    top = _oracle_cutoff(name)
    for group, cutoff in ((action, top), (moved, min(top, {"b3": 6, "d4": 4}.get(name, top)))):
        run = poisson._invariant_bases(group, cutoff + 1)
        for n in range(cutoff + 1):
            assert functional_solutions_dim(group, n, run) \
                == _basis_row_solutions_dim(group, n, run)


@pytest.mark.parametrize("make, top, allowed", [(g2, 8, 1965), (b3, 6, 4003)],
                         ids=["g2", "b3"])
def test_dual_forms_at_most_one_bracket_per_monomial_generator_pair(monkeypatch, make, top,
                                                                    allowed):
    # the brackets a dual check forms never exceed the (monomial,
    # generator) pairs it may read: pairing the monomials with every basis
    # row formed 3131 brackets on G_2 through 8 and 4744 on B_3 through 6
    action = make()
    graded = hp0_dims(action, top, dual=True)
    generators = graded.bases[2]
    assert sum(len(monomials(action.dim, n + 2 - i))
               for n in range(top + 1) for i, _ in generators if i <= n + 1) == allowed
    calls = _counted_brackets(monkeypatch)
    duality_check(action, graded)
    assert 0 < len(calls) <= allowed


def _golden_action(name):
    form, gens = parse_group_file(os.path.join(os.path.dirname(__file__), "golden", name))
    return close_group(gens, form)


KEYED_BRACKET_CASES = dict(
    [("afls_" + name, (case[0], _oracle_cutoff(name))) for name, case in AFLS_CASES.items()]
    + [("golden_" + name, (lambda name=name: _golden_action(name + ".json"), top))
       for name, top in (("s3", 8), ("s4", 6), ("s5", 5))]
    + [("fractional_form", (_fractional_form, 6))])


def _gradient(packing, terms):
    """The packed term maps of the partial derivatives of the packed
    term map `terms`, each exponent read off its key by shift and mask,
    as the span and the dual took them before `poisson._bracket_at` read
    the derivatives off the rows; kept for the oracle."""
    mask = packing.mask
    return [{k - u: c * x for k, c in terms.items() if (x := k >> s & mask)}
            for s, u in zip(packing.shifts, packing.units)]


def _bracket_terms(dp, dq, j_inv):
    """The whole bracket, every product d_a p d_b q of the gradients
    (`_gradient`) summed, as the span and the dual took it before they
    read it at their keys (`poisson._bracket_at`); kept as the oracle."""
    out = {}
    for a, da in enumerate(dp):
        if da:
            for b, db in enumerate(dq):
                if j_inv[a][b] and db:
                    polynomials._add_packed_product(out, da, db, -j_inv[a][b])
    return out


@pytest.mark.parametrize("name", sorted(KEYED_BRACKET_CASES))
def test_keyed_bracket_matches_bracket_terms(name):
    # `_bracket_at` on the rows against the whole bracket of their
    # gradients restricted to the keys, for every ordered pair of basis
    # rows of degrees i + j = d + 2 (so both argument orders): at the
    # leading monomials K of the degree-d basis (few keys: each key reads
    # the larger row), at every degree-d monomial (every product formed),
    # at a seeded half of them and at one seeded monomial, as K is for a
    # degree of one invariant
    make, cutoff = KEYED_BRACKET_CASES[name]
    action = make()
    packing, bases, _ = poisson._invariant_bases(action, cutoff + 1)
    j_inv = action.form_inverse
    bivector = poisson._bivector(j_inv)
    rng = random.Random(name)
    branches = set()
    for d in range(cutoff + 1):
        monos = [packing.pack(e) for e in monomials(action.dim, d)]
        key_sets = [{min(row) for row in bases[d]}, set(monos),
                    set(rng.sample(monos, len(monos) // 2)), {rng.choice(monos)}]
        for i in range(1, d + 2):
            for p in bases[i]:
                for q in bases[d + 2 - i]:
                    whole = _bracket_terms(_gradient(packing, p), _gradient(packing, q), j_inv)
                    for keys in key_sets:
                        got = poisson._bracket_at(p, q, bivector, keys, packing)
                        assert {k: x for k, x in got.items() if x} \
                            == {k: x for k, x in whole.items() if k in keys and x}
                        # the keys are read where fewer than the larger row's terms
                        branches.add(len(keys) < max(len(p), len(q)))
    # which needs a row of two terms or more: +-1 has only monomials
    assert branches == ({True, False} if any(len(row) > 1 for rows in bases for row in rows)
                        else {False})


def test_dual_check_reads_the_run_bases(monkeypatch):
    # a dual check pairs monomials with the bases its hp0 run kept, and
    # builds none of its own
    action = s4()
    graded = hp0_dims(action, 6, dual=True)
    monkeypatch.setattr(poisson, "_invariant_bases", None)
    rows = duality_check(action, graded)["rows"]
    assert [row["dual"] for row in rows] == [1, 0, 3, 0, 2, 0, 0]


def test_each_image_built_once_per_run(monkeypatch):
    # the run keeps one substitution per generator: each basis of the h
    # block, and each nullspace basis, grows its images from those of the
    # degree before, so no image of a lower degree is built twice (each
    # fallback degree of S_5 through 8 used to build its generators'
    # images again from degree 1).  S_5 takes new generators from the h
    # block in degrees 2..5 and the nullspace never; Z/6 on C^2 has no
    # blocks and takes the nullspace in several degrees; D_4 takes the h
    # block in degrees 2, 4 and 6 and then the nullspace in degree 6,
    # whose images reach no lower h-monomial (each image is grown by its
    # first variable, so a monomial with a y has only such below it)
    subs = _recorded_substitutions(monkeypatch)
    nullspace, h_block = _fallback_degrees(monkeypatch), _h_block_calls(monkeypatch)
    action = symmetric_group_action(5)
    hp0_dims(action, 8)
    assert nullspace == [] and [d for d, _ in h_block] == [2, 3, 4, 5]
    assert sorted((matrix, sorted(built)) for matrix, _, built in subs.values()) \
        == sorted((g, _h_climb(action, 5)) for g in action.generators)
    assert all(len(set(built)) == len(built) for _, _, built in subs.values())
    subs.clear()
    action = order_six()
    hp0_dims(action, 10)
    assert len(nullspace) > 1
    climb = sorted(set().union(*(monomials(action.dim, d) for d in range(1, max(nullspace) + 1))))
    assert sorted((matrix, sorted(built)) for matrix, _, built in subs.values()) \
        == sorted((g, climb) for g in action.generators)
    assert all(len(set(built)) == len(built) for _, _, built in subs.values())
    subs.clear()
    nullspace.clear()
    h_block.clear()
    action = d4()
    poisson._invariant_bases(action, 6)
    assert nullspace == [6] and [d for d, _ in h_block] == [2, 4, 6]
    climb = sorted(set().union(*(monomials(action.dim, d) for d in range(1, 7))))
    assert sorted((matrix, sorted(built)) for matrix, _, built in subs.values()) \
        == sorted((g, climb) for g in action.generators)
    assert all(len(set(built)) == len(built) for _, _, built in subs.values())


@pytest.mark.parametrize("make, cutoff", [
    (plus_minus, 6), (order_three, 6), (s3, 4),
], ids=["pm", "z3", "s3"])
def test_dual_solutions_reynolds_rank(make, cutoff):
    # the solution space is G-stable, so Reynolds projects it onto its
    # invariant part, which is dual to HP_0 of the invariants
    action = make()
    graded = hp0_dims(action, cutoff)
    for d in range(cutoff + 1):
        matrix, p_monos = dual_oracle.functional_matrix(action, d)
        null = linalg.nullspace(matrix, len(p_monos))
        images = [reynolds(action, MultiPoly(action.dim, {p_monos[c]: x
                                                          for c, x in v.items()}))
                  for v in null]
        rank = _rank([[p.terms.get(e, 0) for e in p_monos] for p in images])
        assert rank == _invariant_solutions_dim(action, d) == graded.dims[d]


def test_s3_degree_two_solution_is_not_invariant():
    action = s3()
    matrix, p_monos = dual_oracle.functional_matrix(action, 2)
    null = linalg.nullspace(matrix, len(p_monos))
    assert len(null) == functional_solutions_dim(action, 2) == 1
    p = MultiPoly(action.dim, {p_monos[c]: x for c, x in null[0].items()})
    assert reynolds(action, p).is_zero()


def _full_solutions_dim(action, degree, invariant_only=False):
    # the count as taken before: the rank of every row of the full matrix
    rows, p_monos = _full_functional_matrix(action, degree)
    rows = list(rows.values())
    if invariant_only:
        rows += _degree_rows(action, degree)[0]
    return len(p_monos) - _rank(rows)


DUAL_CASES = dict([(name, (case[0], _dual_top(name, 3 if name == "s4" else 4)))
                   for name, case in AFLS_CASES.items()]
                  + [("fractional_file", (_conjugated_s3, 4)),
                     ("fractional_form", (_fractional_form, 4))])


@pytest.mark.parametrize("name", sorted(DUAL_CASES))
def test_functional_solutions_match_full_rank(name):
    make, top = DUAL_CASES[name]
    action = make()
    for n in range(top + 1):
        assert functional_solutions_dim(action, n) == _full_solutions_dim(action, n)
        assert _invariant_solutions_dim(action, n) \
            == _full_solutions_dim(action, n, invariant_only=True)


def test_dual_rank_stops_at_full_rank(monkeypatch):
    # S_4 in degree 3 has no solution but P = 0: the rank is full before
    # every bracket {x^m, g} of a monomial with a generator is read
    added = []
    original = linalg.Echelon.add

    def counted(echelon, row):
        added.append(row)
        return original(echelon, row)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    action = s4()
    bases = poisson._invariant_bases(action, 4)  # their echelons are not counted
    added.clear()
    assert functional_solutions_dim(action, 3, bases) == 0
    rows = sum(len(monomials(action.dim, 5 - i)) for i, _ in bases[2] if i <= 4)
    assert len(monomials(action.dim, 3)) <= len(added) < rows


def _s5():
    return symmetric_group_action(5)


def _assert_dual_matches_orbit_sums(action, degrees):
    sums = dual_oracle.orbit_sums(action, max(degrees) + 1)
    for n in degrees:
        assert functional_solutions_dim(action, n) == dual_oracle.solutions_dim(action, n, sums)


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_dual_matches_orbit_sums(name):
    # the brackets with the bases count what the orbit sums counted, in
    # the group's own coordinates and in those of its seeded change of
    # basis: the s3 and s4 draws have forms with J^2 != -I, where J^-1 is
    # not -J and its place in the brackets shows
    action, moved, _ = _conjugated(name)
    degrees = range(min(AFLS_CASES[name][1], _dual_top(name, 4)) + 1)
    _assert_dual_matches_orbit_sums(action, degrees)
    _assert_dual_matches_orbit_sums(moved, degrees)


def test_dual_matches_orbit_sums_on_s5():
    _assert_dual_matches_orbit_sums(_s5(), range(2, 5))


def _s6():
    return symmetric_group_action(6)


# group and the degrees through which Molien's count is read against the
# oracle `_molien_coefficients`
MOLIEN_COUNT_CASES = dict(
    [("molien_" + name, (case[0], 12)) for name, case in MOLIEN_ACTIONS.items()]
    + [("afls_" + name, (case[0], 12)) for name, case in AFLS_CASES.items()]
    + [("s5", (_s5, 6)), ("s6", (_s6, 6))])


@pytest.mark.parametrize("name", sorted(MOLIEN_COUNT_CASES))
def test_molien_count_matches_oracle(name):
    make, top = MOLIEN_COUNT_CASES[name]
    action = make()
    assert [action.molien(d) for d in range(top + 1)] == _molien_coefficients(action, top)
    # read from the top degree down, a fresh action gives the same counts
    fresh = make()
    assert [fresh.molien(d) for d in range(top, -1, -1)] == _molien_coefficients(action, top)[::-1]


@pytest.mark.parametrize("name", sorted(MOLIEN_ACTIONS) + sorted(AFLS_CASES))
def test_molien_count_is_the_nullspace_size(name):
    # in every degree the tests build a nullspace basis in
    make, top = (MOLIEN_ACTIONS[name][0], 6) if name in MOLIEN_ACTIONS \
        else (AFLS_CASES[name][0], _oracle_cutoff(name) + 1)
    action = make()
    assert [action.molien(d) for d in range(top + 1)] \
        == [len(_basis(action, d)) for d in range(top + 1)]


def _close_group_dense(generators, form, cap=10000):
    """The sorted elements and the generators of the breadth-first
    closure that `close_group` replaced: one dense product
    `dense_product.mat_mul` per element and generator, each frozen under the
    rule of `rational`, kept as its oracle."""
    gens = [poisson._freeze(g) for g in generators]
    n = len(form)
    ident = poisson._freeze([[1 if i == k else 0 for k in range(n)] for i in range(n)])
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = poisson._freeze(mat_mul(a, g))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise OrderCapExceeded("group order exceeds cap %d" % cap)
        frontier = nxt
    return sorted(seen), gens


# every group Molien's count is checked on, the two with Fraction
# entries, and S_6
CLOSURE_CASES = dict(
    [(name, case[0]) for name, case in MOLIEN_COUNT_CASES.items()]
    + [("conjugated_s3", _conjugated_s3),
       ("conjugated_z3", lambda: close_group([[[0, -4], [Fraction(1, 4), -1]]], J2)),
       ("s6", _s6)])


def _closed(make, monkeypatch):
    """The action `make` builds, with the arguments it passed to
    `close_group`."""
    calls = []
    real = poisson.close_group

    def recording(generators, form, cap=10000):
        action = real(generators, form, cap)
        calls.append(((generators, form, cap), action))
        return action

    monkeypatch.setattr(poisson, "close_group", recording)
    monkeypatch.setitem(globals(), "close_group", recording)
    make()
    (args, action), = calls
    return args, action


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_close_group_matches_dense_closure(name, monkeypatch):
    # the same elements in the same order, with the same scalar types
    # (repr tells 2 from Fraction(2, 1)), and the same generators
    args, action = _closed(CLOSURE_CASES[name], monkeypatch)
    elements, gens = _close_group_dense(*args)
    assert action.elements == elements
    assert repr(action.elements) == repr(elements)
    assert action.generators == gens
    assert repr(action.generators) == repr(gens)


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_power_traces_match_matrix_powers(name):
    action = CLOSURE_CASES[name]()
    assert len(action.power_traces) == action.order
    for g, traces in zip(action.elements, action.power_traces):
        assert list(traces) == _matrix_power_traces(g, action.dim)


@pytest.mark.parametrize("gens, cap, raises", [
    ([[[1, 1], [0, 1]]], 50, True),
    ([[[1, 1], [0, 1]]], 1, True),
    ([[[0, -1], [1, -1]]], 3, False),
    ([[[0, -1], [1, -1]]], 2, True),
    ([], 0, False),
])
def test_close_group_cap_matches_dense_closure(gens, cap, raises):
    # the cap fires where the dense closure's did: once the search has
    # found more than cap elements (the identity, found first, is never
    # checked against it)
    for close in (close_group, _close_group_dense):
        if raises:
            with pytest.raises(OrderCapExceeded, match="cap %d" % cap):
                close(gens, J2, cap=cap)
        else:
            close(gens, J2, cap=cap)


PRODUCT_SPAN_CASES = {"z3": (order_three, 10), "z4": (order_four, 10),
                      "z6": (order_six, 10), "s3": (s3, 8), "s4": (s4, 6)}


@pytest.mark.parametrize("name", sorted(PRODUCT_SPAN_CASES))
def test_product_bases_span_the_invariants(name):
    # the product bases span what the nullspace bases span, degree by
    # degree, as primitive integer rows on the packed degree-d monomials
    # with distinct leading columns
    make, top = PRODUCT_SPAN_CASES[name]
    action = make()
    packing, products, _ = poisson._invariant_bases(action, top)
    for d, basis in enumerate(products):
        null = invariant_basis(action, d, packing, _substitutions(action, packing))
        assert len(basis) == len(null) == action.molien(d)
        assert _rank(basis + null) == len(null)
        assert len({min(row) for row in basis}) == len(basis)
        packed = {packing.pack(e) for e in monomials(action.dim, d)}
        for row in basis:
            assert row.keys() <= packed
            assert all(type(x) is int for x in row.values())
            assert math.gcd(*row.values()) == 1


@pytest.mark.parametrize("top", [1, 2, 3, 4, 7, 8])
def test_packed_gradient_matches_diff(top):
    # `_gradient`, the oracle's, reads each exponent off a packed key by
    # shift and mask, as `poisson._bracket_at` does; an exponent equal to
    # top fills its field when top is 2^k - 1 and sets only the high bit
    # of it when top is 2^k
    rng = random.Random(top)
    for nvars in (1, 2, 4):
        packing = polynomials._Packing(nvars, top)
        corners = [(top,) * nvars] + [tuple(top * (k == a) for k in range(nvars))
                                      for a in range(nvars)]
        for _ in range(12):
            exps = corners + [tuple(rng.randint(0, top) for _ in range(nvars))
                              for _ in range(rng.randint(0, 6))]
            p = MultiPoly(nvars, {e: rng.choice([1, -2, 5, Fraction(3, 4)])
                                  for e in exps})
            assert _gradient(packing, {packing.pack(e): c for e, c in p.terms.items()}) \
                == [{packing.pack(e): c for e, c in p.diff(a).terms.items()}
                    for a in range(nvars)]
            assert all(packing.unpack(packing.pack(e)) == e for e in exps)


def test_one_packing_per_run(monkeypatch):
    # hp0_dims packs its bases once for all their degrees, and each
    # nullspace basis of degree d (degrees 2 and 3 for Z/3 and S_3, 1 for
    # the trivial group: `test_one_basis_per_degree`) packs its
    # invariance rows on that same packing; a bracket span given the
    # bases packs nothing and builds one echelon, that of the brackets
    packings, echelons = [], []

    class Packing(polynomials._Packing):
        __slots__ = ()

        def __init__(self, nvars, top):
            packings.append(top)
            super().__init__(nvars, top)

    class Echelon(linalg.Echelon):
        __slots__ = ()

        def __init__(self):
            echelons.append(1)
            super().__init__()

    monkeypatch.setattr(poisson, "_Packing", Packing)
    monkeypatch.setattr(linalg, "Echelon", Echelon)
    for action, cutoff, top in ((order_three(), 6, 6), (s3(), 5, 5), (trivial(), 3, 4),
                                (order_three(), 0, 0)):
        packings.clear()
        hp0_dims(action, cutoff)
        assert packings == [top]
        bases = poisson._invariant_bases(action, cutoff + 1)
        packings.clear()
        for d in range(cutoff + 1):
            echelons.clear()
            bracket_span_dim(action, d, bases)
            assert packings == [] and len(echelons) <= 1


def _nullspace_hp0_dims(action, cutoff):
    """The dims as `hp0_dims` took them before the product bases: every
    basis a nullspace one, degrees 0..cutoff + 1, and every bracket span
    the full-rank one."""
    bases = [_basis(action, k) for k in range(cutoff + 2)]
    return {n: len(bases[n]) - _full_rank_bracket_span_dim(action, n, bases)
            for n in range(cutoff + 1)}


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_hp0_dims_match_the_nullspace_bases(name):
    make, cutoff = AFLS_CASES[name][0], _oracle_cutoff(name)
    assert hp0_dims(make(), cutoff).dims == _nullspace_hp0_dims(make(), cutoff)


@pytest.mark.parametrize("name", sorted(AFLS_CASES))
def test_new_generators_only_up_to_the_noether_bound(name, monkeypatch):
    # past |G| the products of lower invariants span each degree
    # (Noether; Fleischmann, Fogarty), so no new generator comes there,
    # from the h block or from the nullspace
    make, cutoff, _ = AFLS_CASES[name]
    action = make()
    nullspace, h_block = _fallback_degrees(monkeypatch), _h_block_calls(monkeypatch)
    hp0_dims(action, cutoff)
    new = nullspace + [d for d, count in h_block if count]
    assert new and max(new) <= action.order


def test_molien_mismatch_is_an_internal_error(monkeypatch, capsys):
    # a nullspace basis whose size is not Molien's count is a bug in the
    # program: an AssertionError subclass, not a ValueError, so the CLI
    # exits 1 with "internal error", never 2; no assert statement is
    # involved, so this holds under python -O too
    from morita.cli import run
    assert issubclass(poisson.InvariantCountMismatch, AssertionError)
    assert not issubclass(poisson.InvariantCountMismatch, ValueError)
    original = poisson.SymplecticAction.molien

    def off_by_one(action, degree):
        return original(action, degree) + (degree == 3)

    monkeypatch.setattr(poisson.SymplecticAction, "molien", off_by_one)
    with pytest.raises(poisson.InvariantCountMismatch, match="degree 3: 4 invariants"):
        hp0_dims(s3(), 3)
    group = os.path.join(os.path.dirname(__file__), "golden", "s3.json")
    capsys.readouterr()
    assert run(["hp0", "--group", group, "--max-degree", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: degree 3: 4 invariants, Molien count 5")


def test_negative_dimension_is_an_internal_error(monkeypatch, capsys):
    # a bracket span larger than the invariants it lies in is a bug in the
    # program, like a Molien mismatch: an AssertionError subclass, not a
    # ValueError, so the CLI exits 1 with "internal error", never 2
    from morita.cli import run
    assert issubclass(poisson.NegativeDimension, AssertionError)
    assert not issubclass(poisson.NegativeDimension, ValueError)
    original = poisson.bracket_span_dim

    def too_large(action, degree, bases=None):
        if degree == 2:
            return len(bases[1][degree]) + 1
        return original(action, degree, bases)

    monkeypatch.setattr(poisson, "bracket_span_dim", too_large)
    with pytest.raises(poisson.NegativeDimension,
                       match="degree 2: bracket span exceeds invariants"):
        hp0_dims(s3(), 3)
    group = os.path.join(os.path.dirname(__file__), "golden", "s3.json")
    capsys.readouterr()
    assert run(["hp0", "--group", group, "--max-degree", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: degree 2: bracket span exceeds invariants")


def _symmetric_group_inverting(n):
    """`symmetric_group_action` as it was built before it used that each
    simple reflection m is an involution: the h* block (m^-1)^T taken by
    `linalg.invert`, kept as the oracle."""
    d = n - 1
    gens = []
    for i in range(d):
        m = [[int(a == b) for b in range(d)] for a in range(d)]
        m[i][i] = -1
        if i > 0:
            m[i - 1][i] = 1
        if i < d - 1:
            m[i + 1][i] = 1
        gens.append([row + [0] * d for row in m]
                    + [[0] * d + row for row in transpose(linalg.invert(m))])
    return close_group(gens, standard_form(d), cap=math.factorial(n) + 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetric_group_action_matches_inverted_dual_block(n):
    # the same generators, elements and power traces, with the same
    # scalar types (repr tells 2 from Fraction(2, 1))
    action, oracle = symmetric_group_action(n), _symmetric_group_inverting(n)
    for name in ("form", "form_inverse", "generators", "elements", "power_traces"):
        assert getattr(action, name) == getattr(oracle, name), name
        assert repr(getattr(action, name)) == repr(getattr(oracle, name)), name


def _multipoly_invariant_basis(action, degree):
    """`invariant_basis` as it was before its rows stayed packed, kept as
    the oracle: the invariance rows on a packing for degree d, the
    nullspace laid out dense over the degree-d monomials, and one
    `MultiPoly` per vector."""
    monos = monomials(action.dim, degree)
    null = _dense(linalg.nullspace(*_degree_rows(action, degree)), len(monos))
    return [MultiPoly._raw(action.dim, {e: x for e, x in zip(monos, v) if x})
            for v in null]


# every group the fallback runs on in the AFLS cases, and the two with
# Fraction entries (in the form, or in the generators)
FALLBACK_CASES = dict([(name, case[0]) for name, case in AFLS_CASES.items()]
                      + [("fractional_form", _fractional_form),
                         ("conjugated_s3", _conjugated_s3)])


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_packed_basis_matches_the_multipoly_basis(name):
    # the packed rows, on the packing of a run through degree 6 and
    # unpacked, are the oracle's polynomials in the same order, with the
    # same scalar types
    action = FALLBACK_CASES[name]()
    packing = polynomials._Packing(action.dim, 6)
    for d in range(7):
        rows = [sorted((packing.unpack(k), x) for k, x in row.items())
                for row in invariant_basis(action, d, packing, _substitutions(action, packing))]
        expected = [sorted(p.terms.items()) for p in _multipoly_invariant_basis(action, d)]
        assert rows == expected
        assert repr(rows) == repr(expected)


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_hp0_dims_packs_once_and_builds_no_multipoly(name, monkeypatch):
    # one hp0_dims call, nullspace fallbacks included, constructs one
    # `_Packing` and no `MultiPoly`; every group here whose generators
    # are not all block diagonal takes the nullspace fallback
    action = FALLBACK_CASES[name]()
    cutoff = AFLS_CASES[name][1] if name in AFLS_CASES else 6
    built, nullspace = [], []
    packing_init, init = polynomials._Packing.__init__, MultiPoly.__init__
    raw, original = MultiPoly._raw.__func__, poisson.invariant_basis

    def counted_packing(packing, nvars, top):
        built.append("_Packing")
        packing_init(packing, nvars, top)

    def counted_init(p, *args, **kwargs):
        built.append("MultiPoly")
        init(p, *args, **kwargs)

    def counted_raw(cls, nvars, terms):
        built.append("MultiPoly._raw")
        return raw(cls, nvars, terms)

    def counted(action, degree, packing, substitutions):
        nullspace.append(degree)
        return original(action, degree, packing, substitutions)

    monkeypatch.setattr(polynomials._Packing, "__init__", counted_packing)
    monkeypatch.setattr(MultiPoly, "__init__", counted_init)
    monkeypatch.setattr(MultiPoly, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(poisson, "invariant_basis", counted)
    hp0_dims(action, cutoff)
    assert built == ["_Packing"]
    assert nullspace or _block_diagonal(action)


def _bases_before_polarization(action, top):
    """`poisson._invariant_bases` as it was before the h block and its
    polarizations, kept as the oracle: products of the generators with
    the lower bases, then the nullspace over every monomial wherever they
    fall short of the Molien count."""
    packing = polynomials._Packing(action.dim, top)
    substitutions = _substitutions(action, packing)
    bases = [[{0: 1}]]
    generators = []
    for d in range(1, top + 1):
        size = action.molien(d)
        echelon = linalg.Echelon()
        if size:
            products = (polynomials._add_packed_product({}, g, b)
                        for k, g in generators for b in bases[d - k])
            for row in products:
                if echelon.add(row) and echelon.rank == size:
                    break
        if echelon.rank < size:
            generators += [(d, row) for row in
                           invariant_basis(action, d, packing, substitutions)
                           if echelon.add(row)]
        assert echelon.rank == size
        bases.append(list(echelon.pivots.values()))
    return packing, bases


def _s7():
    return symmetric_group_action(7)


# group and the top degree of the bases: every AFLS group (the Weyl
# groups among them) through cutoff + 1, the groups with two
# polarizations (permutation_s3: h = C^3 is reducible), none (the
# trivial group, every coordinate its own block) or Fraction generators
# (fractional_file, conjugated by a block-diagonal matrix), and S_6
POLARIZED_SPAN_CASES = dict(
    [(name, (case[0], case[1] + 1)) for name, case in AFLS_CASES.items()]
    + [("trivial", (trivial, 4)), ("permutation_s3", (permutation_s3, 6)),
       ("fractional_file", (_conjugated_s3, 6)), ("fractional_form", (_fractional_form, 6)),
       ("s6", (_s6, 7))])


@pytest.mark.parametrize("name", sorted(POLARIZED_SPAN_CASES))
def test_polarized_bases_span_the_fallback_bases(name):
    # degree by degree, the bases built from the h block and its
    # polarizations span what the bases before them spanned: the rank of
    # the union is the size of each
    make, top = POLARIZED_SPAN_CASES[name]
    action = make()
    packing, bases, _ = poisson._invariant_bases(action, top)
    old_packing, old = _bases_before_polarization(action, top)
    assert (packing.shifts, packing.mask) == (old_packing.shifts, old_packing.mask)
    for d in range(top + 1):
        assert len(bases[d]) == len(old[d]) == action.molien(d)
        assert _rank(bases[d] + old[d]) == len(old[d])


# group, top degree of the bases, and the degrees in which the nullspace
# over every monomial runs: polarization generates the invariants of S_n
# (Weyl), of type B and of the dihedral groups, G_2 among them
# (Hunziker), but not of type D; Z/3 on C^2 has no blocks
FULL_FALLBACK_CASES = {
    "s3": (s3, 8, []), "s4": (s4, 6, []), "s5": (_s5, 6, []), "s6": (_s6, 6, []),
    "s7": (_s7, 7, []), "b2": (b2, 8, []), "g2": (g2, 8, []), "b3": (b3, 8, []),
    "d4": (d4, 8, [6]), "z3": (order_three, 6, [2, 3]),
}


@pytest.mark.parametrize("name", sorted(FULL_FALLBACK_CASES))
def test_full_fallback_only_where_polarization_falls_short(name, monkeypatch):
    make, top, expected = FULL_FALLBACK_CASES[name]
    nullspace = _fallback_degrees(monkeypatch)
    poisson._invariant_bases(make(), top)
    assert nullspace == expected


def test_polarizations_of_block_diagonal_groups():
    # g_h B = B g_y for every generator: one B for irreducible h (S_3,
    # D_4, the trivial group on C^2), two for h = C^3 under S_3 (the
    # identity and the all-ones matrix), and none for a group with a
    # generator off the blocks.  Each E_B maps the invariants of every
    # degree into themselves: an image adds nothing to the rank of the
    # oracle's basis
    for make, count in ((s3, 1), (d4, 1), (permutation_s3, 2), (trivial, 1)):
        action = make()
        packing, bases = _bases_before_polarization(action, 4)
        derivations = poisson._polarizations(action, packing)
        assert len(derivations) == count
        for d in range(1, 5):
            for row in bases[d]:
                for derivation in derivations:
                    image = poisson._polarize(row, derivation, packing.mask)
                    assert _rank(bases[d] + [image]) == len(bases[d])
    for make in (order_three, _fractional_form):
        action = make()
        assert poisson._polarizations(action, polynomials._Packing(action.dim, 2)) is None
