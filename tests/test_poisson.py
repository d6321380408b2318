import random
from fractions import Fraction

import pytest

from morita import linalg, poisson
from morita.poisson import (MultiPoly, NotSymplectic, OrderCapExceeded,
                            OutOfRange, ShapeMismatch, bracket,
                            bracket_span_dim, close_group, duality_check,
                            functional_solutions_dim, hp0_dims,
                            invariant_basis, monomials, reynolds,
                            standard_form, symmetric_group_action)

J2 = standard_form(1)


def plus_minus():
    return close_group([[[-1, 0], [0, -1]]], J2)


def trivial():
    return close_group([], J2)


def order_three():
    return close_group([[[0, -1], [1, -1]]], J2)


def test_close_group_orders():
    assert plus_minus().order == 2
    assert trivial().order == 1
    assert order_three().order == 3


def test_close_group_rejects_nonsymplectic():
    with pytest.raises(NotSymplectic):
        close_group([[[2, 0], [0, 1]]], J2)


def test_close_group_cap():
    # a scaling matrix is already non-symplectic; force the cap path with
    # a legitimate infinite symplectic subgroup (a shear)
    with pytest.raises(OrderCapExceeded):
        close_group([[[1, 1], [0, 1]]], J2, cap=50)


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
    assert len(invariant_basis(pm, 2)) == 3
    assert len(invariant_basis(pm, 1)) == 0
    for d in range(0, 5):
        assert len(invariant_basis(trivial(), d)) == d + 1


def test_invariant_basis_is_invariant():
    for action in (plus_minus(), order_three()):
        for d in range(0, 5):
            for p in invariant_basis(action, d):
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
    for p in invariant_basis(action, 3):
        for q in invariant_basis(action, 3):
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


def test_invariant_restricted_count_bounded():
    for action in (plus_minus(), order_three()):
        for n in range(0, 5):
            full = functional_solutions_dim(action, n)
            inv = functional_solutions_dim(action, n, invariant_only=True)
            assert 0 <= inv <= full


def test_solution_space_group_stable():
    # applying a group element to a solution of the functional equation
    # yields another solution
    from morita import linalg
    from morita.poisson import _functional_matrix
    action = order_three()
    for degree in range(0, 5):
        matrix, p_monos = _functional_matrix(action, degree)
        if not matrix:
            continue
        null = linalg.nullspace(matrix)
        for v in null:
            p = MultiPoly(action.dim, dict(zip(p_monos, v)))
            for h in action.elements:
                moved = p.substitute(h)
                w = [moved.terms.get(e, Fraction(0)) for e in p_monos]
                residual = [sum(row[i] * w[i] for i in range(len(w)))
                            for row in matrix]
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
    assert functional_solutions_dim(order_three(), 2, invariant_only=True) == 1


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
    for call in (invariant_basis, bracket_span_dim, hp0_dims,
                 functional_solutions_dim):
        with pytest.raises(OutOfRange):
            call(action, -1)


def _matrix_power_traces(g, top):
    """tr(g^k) for k = 1..top."""
    power = g
    out = []
    for _ in range(top):
        out.append(sum(power[i][i] for i in range(len(power))))
        power = linalg.mat_mul(power, g)
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
    assert [len(invariant_basis(action, d)) for d in range(7)] == expected


@pytest.mark.parametrize("name", sorted(MOLIEN_ACTIONS))
def test_invariant_basis_spans_reynolds_image(name):
    action = MOLIEN_ACTIONS[name][0]()
    for d in range(7):
        monos = monomials(action.dim, d)
        basis = [[p.terms.get(e, Fraction(0)) for e in monos]
                 for p in invariant_basis(action, d)]
        averages = [reynolds(action, MultiPoly.monomial(action.dim, e))
                    for e in monos]
        averaged = [[p.terms.get(e, Fraction(0)) for e in monos] for p in averages]
        assert linalg.rank(basis) == len(basis) == linalg.rank(averaged)
        assert linalg.rank(basis + averaged) == len(basis)


def test_reynolds_off_the_production_path(monkeypatch):
    def refuse(action, p):
        raise AssertionError("reynolds called")
    monkeypatch.setattr(poisson, "reynolds", refuse)
    for action, cutoff in ((order_three(), 4), (symmetric_group_action(3), 2)):
        graded = hp0_dims(action, cutoff)
        duality_check(action, graded)


def test_one_basis_per_degree(monkeypatch):
    calls = []
    original = poisson.invariant_basis

    def counted(action, degree):
        calls.append(degree)
        return original(action, degree)

    def refuse(action, max_degree):
        raise AssertionError("hp0_dims called")
    monkeypatch.setattr(poisson, "invariant_basis", counted)
    reports = []
    for action, cutoff in ((order_three(), 6), (symmetric_group_action(3), 3)):
        calls.clear()
        reports.append((action, hp0_dims(action, cutoff)))
        assert sorted(calls) == list(range(cutoff + 2))
    monkeypatch.setattr(poisson, "hp0_dims", refuse)
    for action, graded in reports:
        assert len(duality_check(action, graded)["rows"]) == graded.max_degree + 1


def test_form_inverted_once_per_action(monkeypatch):
    calls = []
    original = linalg.invert

    def counted(m):
        calls.append(m)
        return original(m)

    actions = ((order_three(), 6), (symmetric_group_action(3), 3))
    monkeypatch.setattr(linalg, "invert", counted)
    for action, cutoff in actions:
        calls.clear()
        hp0_dims(action, cutoff)
        assert calls == [action.form]
    # a direct call on the same action reuses its inverse
    calls.clear()
    assert bracket_span_dim(actions[0][0], 3) == 2
    assert calls == []


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
        assert poisson._invariance_rows(action, monos) \
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
