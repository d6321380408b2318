import os
import pathlib
import random
import tempfile
import tracemalloc
from fractions import Fraction

import pytest

from morita import linalg, poisson
from morita.poisson import (MultiPoly, NotSymplectic, OrderCapExceeded,
                            OutOfRange, ShapeMismatch, bracket,
                            bracket_span_dim, close_group, duality_check,
                            functional_solutions_dim, hp0_dims,
                            invariant_basis, monomials, reynolds,
                            standard_form, symmetric_group_action)
from test_linalg import _dense, _rank

J2 = standard_form(1)


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
        null = linalg.nullspace(matrix, len(p_monos))
        for v in null:
            p = MultiPoly(action.dim, dict(zip(p_monos, v)))
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
        assert _rank(basis) == len(basis) == _rank(averaged)
        assert _rank(basis + averaged) == len(basis)


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
    # degrees 0..cutoff, and cutoff + 1 only when something pairs with it:
    # at cutoff 0, or with degree-1 invariants (only the trivial group's)
    for action, cutoff, top in ((order_three(), 6, False), (s3(), 3, False),
                                (trivial(), 3, True), (trivial(), 0, True),
                                (order_three(), 0, True)):
        calls.clear()
        reports.append((action, hp0_dims(action, cutoff)))
        assert sorted(calls) == list(range(cutoff + 1 + top))
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
        assert _dense(poisson._invariance_rows(action, monos), len(monos)) \
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


def _pairing_poly(action, g):
    # (u, g v) = sum of (J g)[a][c] u_a v_c in the 2*dim variables (u, then v)
    d = action.dim
    jg = linalg.mat_mul(action.form, g)
    return MultiPoly(2 * d, {poisson._unit(2 * d, a, d + c): jg[a][c]
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
        # u_i -> (u + g v)_i, the shift map [I | g] into the doubled variables
        shift = tuple(tuple(int(i == j) for j in range(d)) + g[i] for i in range(d))
        pair = _pairing_poly(action, g).terms
        images = poisson._Substitution(shift, 2 * d).images(p_monos)
        for col, img in zip(columns, images):
            poisson._add_product(col, pair, img)
    rows = {}
    for c, col in enumerate(columns):
        for e, x in poisson._exact_nonzero(col).items():
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
        shifted = [MultiPoly(2 * d, {poisson._unit(2 * d, i): 1}
                             | {poisson._unit(2 * d, d + c): g[i][c] for c in range(d)})
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
    return set(linalg.rref([p.terms for p in invariant_basis(action, degree)])[1])


def _assert_functional_matrix_matches(action, degrees):
    # the rows are the full matrix's rows at the monomials u^a v^c whose
    # v^c leads the degree-|c| invariants, in order, with the same rank
    d = action.dim
    for n in degrees:
        matrix, p_monos = poisson._functional_matrix(action, n)
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
    from morita.cli import parse_group_file
    from test_linalg import _conjugated_s3_file
    form, gens = parse_group_file(_conjugated_s3_file(tmp_path))
    _assert_functional_matrix_matches(close_group(gens, form), range(3))


def _conjugated_s3():
    from morita.cli import parse_group_file
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
        rows = _dense(poisson._invariance_rows(action, monos), len(monos))
        assert rows == _invariance_rows_per_monomial(action, monos)
        assert all(type(x) is int or x.denominator != 1 for row in rows for x in row)
        fractions += sum(type(x) is Fraction for row in rows for x in row)
    assert fractions


def test_invariance_rows_stay_sparse():
    # S_4 in degree 6 (924 monomials, 32 invariants): with dense
    # invariance rows and a dense rref the basis peaked at 10.0 MB of
    # Python allocations; the sparse rows need 1.6 MB
    action = symmetric_group_action(4)
    for k in range(6):
        invariant_basis(action, k)
    tracemalloc.start()
    try:
        basis = invariant_basis(action, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 32
    assert peak <= 4 * 2 ** 20


def test_images_in_any_degree_order():
    # one action asked for degrees down and then up again: each answer is
    # that of a fresh action, whatever images the action keeps
    for make, top in ((s3, 5), (_conjugated_s3, 4)):
        action = make()
        for d in list(range(top, -1, -1)) + list(range(top + 1)):
            monos = monomials(action.dim, d)
            assert poisson._invariance_rows(action, monos) \
                == poisson._invariance_rows(make(), monos)
        for d in (3, 1, 2, 0, 3):
            assert poisson._functional_matrix(action, d) \
                == poisson._functional_matrix(make(), d)


def test_dual_check_builds_each_image_once(monkeypatch, capsys):
    # one `hp0 --dual-check`: every monomial image is built once per
    # substitution, each generator's for the invariance rows of degrees
    # 1..cutoff and then each element's for the orbit sums of degrees
    # 1..cutoff + 1
    from morita.cli import run
    built = []
    original = poisson._Substitution.image

    def counted(sub, e):
        if e not in sub.memo:
            built.append((sub, e))
        return original(sub, e)

    monkeypatch.setattr(poisson._Substitution, "image", counted)
    group = os.path.join(os.path.dirname(__file__), "golden", "s3.json")
    cutoff = 3
    assert run(["hp0", "--group", group, "--max-degree", str(cutoff),
                "--dual-check"]) == 1  # the known S_3 dual mismatch
    capsys.readouterr()
    assert len(set(built)) == len(built)
    action = s3()
    per_sub = {}
    for sub, e in built:
        per_sub.setdefault(sub, set()).add(e)
    # no degree-1 invariants, so the degree cutoff + 1 basis is never built
    bases = set().union(*(monomials(action.dim, d) for d in range(1, cutoff + 1)))
    sums = bases.union(monomials(action.dim, cutoff + 1))
    assert sorted(map(len, per_sub.values())) \
        == [len(bases)] * len(action.generators) + [len(sums)] * action.order
    assert all(exps in (bases, sums) for exps in per_sub.values())


def test_dual_check_substitutes_in_dim_variables(monkeypatch, capsys):
    # the dual reads orbit sums of the elements' images in the dim
    # variables: no shift map [I | g] into the 2*dim variables (u, v)
    from morita.cli import run
    nvars = []
    original = poisson._Substitution.__init__

    def recorded(sub, matrix, n):
        nvars.append(n)
        original(sub, matrix, n)

    monkeypatch.setattr(poisson._Substitution, "__init__", recorded)
    for name, cutoff, code in (("s3.json", 3, 1), ("z3.json", 4, 0)):
        group = os.path.join(os.path.dirname(__file__), "golden", name)
        assert run(["hp0", "--group", group, "--max-degree", str(cutoff),
                    "--dual-check"]) == code
    capsys.readouterr()
    assert sorted(set(nvars)) == [2, 4]


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
        seen |= {poisson._freeze(linalg.mat_mul(linalg.mat_mul(h, g), inverse[h]))
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
}


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


def _full_rank_bracket_span_dim(action, degree, bases):
    """The bracket span `bracket_span_dim` measured before it read the
    brackets on invariant coordinates and stopped at full rank, kept as
    the oracle: every pair, both orders, each bracket a dense row over
    all degree-d monomials, and the rank of the whole matrix."""
    column = {e: c for c, e in enumerate(monomials(action.dim, degree))}
    j_inv = action.form_inverse
    rows = []
    for i in range(1, degree // 2 + 2):
        j = degree + 2 - i
        if not bases[i] or not bases[j]:
            continue
        left = [poisson._gradient(p) for p in bases[i]]
        right = left if i == j else [poisson._gradient(q) for q in bases[j]]
        for dp in left:
            for dq in right:
                row = [0] * len(column)
                for e, x in poisson._bracket_terms(dp, dq, j_inv).items():
                    row[column[e]] = x
                if any(row):
                    rows.append(row)
    return _rank(rows)


def _fractional_form():
    # the form of test_linalg's fractional-form case
    return close_group([[[0, -1], [1, -1]]], [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])


BRACKET_SPAN_CASES = dict(
    [("afls_" + name, case[:2]) for name, case in AFLS_CASES.items()]
    + [("molien_" + name, (case[0], 6)) for name, case in MOLIEN_ACTIONS.items()]
    + [("trivial", (trivial, 4)), ("permutation_s3", (permutation_s3, 5)),
       ("fractional_file", (_conjugated_s3, 4)), ("fractional_form", (_fractional_form, 6))])


@pytest.mark.parametrize("name", sorted(BRACKET_SPAN_CASES))
def test_bracket_span_matches_full_rank(name):
    make, cutoff = BRACKET_SPAN_CASES[name]
    action = make()
    bases = [invariant_basis(action, k) for k in range(cutoff + 2)]
    for d in range(cutoff + 1):
        assert bracket_span_dim(action, d, bases) \
            == _full_rank_bracket_span_dim(action, d, bases)


def test_bracket_span_stops_at_full_rank(monkeypatch):
    # the full-rank span took 2252 brackets for S_3 through degree 10
    calls = []
    original = poisson._bracket_terms

    def counted(dp, dq, j_inv):
        calls.append(1)
        return original(dp, dq, j_inv)

    monkeypatch.setattr(poisson, "_bracket_terms", counted)
    assert hp0_dims(s3(), 10).total == 1
    assert 0 < len(calls) < 2252 // 2


@pytest.mark.parametrize("make, cutoff", [
    (plus_minus, 6), (order_three, 6), (s3, 4),
], ids=["pm", "z3", "s3"])
def test_dual_solutions_reynolds_rank(make, cutoff):
    # the solution space is G-stable, so Reynolds projects it onto its
    # invariant part, which is dual to HP_0 of the invariants
    action = make()
    graded = hp0_dims(action, cutoff)
    for d in range(cutoff + 1):
        matrix, p_monos = poisson._functional_matrix(action, d)
        null = linalg.nullspace(matrix, len(p_monos))
        images = [reynolds(action, MultiPoly(action.dim, dict(zip(p_monos, v))))
                  for v in null]
        rank = _rank([[p.terms.get(e, 0) for e in p_monos] for p in images])
        assert rank == functional_solutions_dim(action, d, invariant_only=True) \
            == graded.dims[d]


def test_s3_degree_two_solution_is_not_invariant():
    action = s3()
    matrix, p_monos = poisson._functional_matrix(action, 2)
    null = linalg.nullspace(matrix, len(p_monos))
    assert len(null) == functional_solutions_dim(action, 2) == 1
    assert reynolds(action, MultiPoly(action.dim, dict(zip(p_monos, null[0])))).is_zero()


def _full_solutions_dim(action, degree, invariant_only=False):
    # the count as taken before: the rank of every row of the full matrix
    rows, p_monos = _full_functional_matrix(action, degree)
    rows = list(rows.values())
    if invariant_only:
        rows += poisson._invariance_rows(action, p_monos)
    return len(p_monos) - _rank(rows)


DUAL_CASES = dict([(name, (case[0], 3 if name == "s4" else 4))
                   for name, case in AFLS_CASES.items()]
                  + [("fractional_file", (_conjugated_s3, 4)),
                     ("fractional_form", (_fractional_form, 4))])


@pytest.mark.parametrize("name", sorted(DUAL_CASES))
def test_functional_solutions_match_full_rank(name):
    make, top = DUAL_CASES[name]
    action = make()
    for n in range(top + 1):
        for invariant_only in (False, True):
            assert functional_solutions_dim(action, n, invariant_only) \
                == _full_solutions_dim(action, n, invariant_only)


def test_dual_rank_stops_at_full_rank(monkeypatch):
    # S_4 in degree 3 has no solution but P = 0: the rank is full before
    # every row is read
    added = []
    original = linalg.Echelon.add

    def counted(echelon, row):
        added.append(row)
        return original(echelon, row)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    action = s4()
    functional_solutions_dim(action, 3)  # the orbit sums, built once
    added.clear()
    assert functional_solutions_dim(action, 3) == 0
    matrix, p_monos = poisson._functional_matrix(action, 3)
    assert len(p_monos) <= len(added) < len(matrix)
