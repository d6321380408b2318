import itertools
from fractions import Fraction

import pytest

from euclid_oracle import Reduced
from morita.classify import (KTheoryVector, NonIntegralCoordinate, Rejection,
                             Relation, build_f, derive_relation, hook_matrix,
                             invert_hook_matrix, iso_obstruction,
                             recombination_failures, remark_identity_check,
                             search_relations)
from morita import partitions
from morita.exact import Poly
from morita.partitions import (OutOfRange, Partition, gamma_star,
                               hook_partition, kostka)
from morita.traces import content_polynomial, f_trivial


def vec(n, *values):
    return KTheoryVector.from_list(n, list(values))


def test_hook_matrix_examples():
    assert hook_matrix(2) == [[2]]
    assert hook_matrix(3) == [[-6, 12], [0, 6]]


def test_hook_matrix_triangular():
    for n in range(2, 11):
        mat = hook_matrix(n)
        for m in range(1, n):
            assert all(mat[m - 1][k - 1] == 0 for k in range(1, m))
            assert mat[m - 1][m - 1] != 0


def test_invert_hook_matrix_examples():
    c = invert_hook_matrix(3)
    assert c[0] == [Fraction(-1, 6), Fraction(1, 3)]
    assert c[1] == [Fraction(0), Fraction(1, 6)]
    assert invert_hook_matrix(2) == [[Fraction(1, 2)]]


def test_invert_hook_matrix_recombines():
    for n in range(2, 9):
        assert recombination_failures(n, invert_hook_matrix(n)) == []
    c = invert_hook_matrix(4)
    c[1][2] += 1
    assert recombination_failures(4, c) == [2]


def _recombination_by_rational_functions(n, c):
    """The RationalFunction-sum check that recombination_failures
    replaced, kept as its oracle: each G_hook from its definition,
    reduced by the gcd."""
    f = f_trivial(n)
    hooks = [Reduced(lam.dimension() * (f - content_polynomial(lam)), f)
             for lam in (hook_partition(n, m) for m in range(1, n))]
    zero = Reduced(Poly())
    return [k for k in range(1, n)
            if sum((coeff * g for coeff, g in zip(c[k - 1], hooks)), zero)
            != Reduced(Poly([1]), Poly([k, 1]))]


def _corrupted_inverses(n):
    c = invert_hook_matrix(n)
    yield c
    for i, j, delta in ((0, 0, 1), (n - 2, 0, Fraction(1, 7)),
                        (n // 2, n - 2, -2), ((n - 1) // 2, n // 2, Fraction(-3, 5))):
        bad = [row[:] for row in c]
        bad[i % (n - 1)][j % (n - 1)] += delta
        yield bad
    # every entry off by one, and the rows in reverse order
    yield [[x + 1 for x in row] for row in c]
    yield c[::-1]


def test_recombination_matches_rational_function_oracle():
    for n in range(2, 11):
        for c in _corrupted_inverses(n):
            assert recombination_failures(n, c) == \
                _recombination_by_rational_functions(n, c)
    assert recombination_failures(4, [[0] * 3] * 3) == [1, 2, 3]


def test_build_f_zero_vector():
    f, a = build_f(3, vec(3, 0, 0))
    assert f == Poly([2, 3, 1])
    assert a == [0, 0]


def test_build_f_worked_example():
    f, a = build_f(3, vec(3, 3, -2))
    assert f == Poly([20, 9, 1])
    assert a == [12, -6]


def test_build_f_single_coordinate():
    f, a = build_f(3, vec(3, 1, 0))
    assert f == Poly([8, 9, 1])
    assert a == [0, 6]


def test_build_f_monic_integer():
    import itertools
    for point in itertools.product(range(-2, 3), repeat=2):
        f, _ = build_f(3, vec(3, *point))
        assert f.is_monic() and f.has_integer_coeffs()
        assert f.degree == 2


def test_derive_relation_zero_vector():
    for n in range(3, 9):
        result = derive_relation(n, KTheoryVector(n))
        assert result == {Relation(1, 0), Relation(-1, 0)}


def test_derive_relation_worked_example():
    result = derive_relation(3, vec(3, 3, -2))
    assert result == {Relation(1, 1), Relation(-1, 1)}
    assert {r.describe() for r in result} == {"c = c' + 1", "c = -c' - 2"}


def test_derive_relation_nonunit_difference():
    result = derive_relation(3, vec(3, 1, 0))
    assert isinstance(result, Rejection)
    assert result.reason == "CommonDifferenceNotUnit"
    assert result.witness["roots"] == [-8, -1]
    assert result.witness["common_difference"] == 7


def test_derive_relation_irrational_roots():
    result = derive_relation(3, vec(3, 1, 1))
    assert isinstance(result, Rejection)
    assert result.reason == "NonIntegerRoots"


def test_derive_relation_n2_both_signs():
    result = derive_relation(2, vec(2, 1))
    assert result == {Relation(1, 1), Relation(-1, 1)}
    assert derive_relation(2, KTheoryVector(2)) == {Relation(1, 0), Relation(-1, 0)}


def test_relation_describe_zero():
    assert Relation(1, 0).describe() == "c = c'"
    assert Relation(-1, 0).describe() == "c = -c' - 1"


def test_viete_consistency():
    import itertools
    from morita.exact import rational_roots
    for point in itertools.product(range(-2, 3), repeat=2):
        v = vec(3, *point)
        f, a = build_f(3, v)
        roots, rem = rational_roots(f)
        if rem.degree == 0:
            assert sum(roots) == -(sum(range(1, 3)) + sum(a))


def test_remark_identity():
    assert remark_identity_check(3, KTheoryVector(3))
    assert remark_identity_check(3, vec(3, 3, -2))
    assert remark_identity_check(3, vec(3, 1, 0))
    for n in (4, 5):
        assert remark_identity_check(n, KTheoryVector.from_list(
            n, list(range(1, len(gamma_star(n)) + 1))))


def test_search_bound_zero():
    found = search_relations(3, 0)
    assert set(found) == {Relation(1, 0), Relation(-1, 0)}
    for witnesses in found.values():
        assert witnesses == [KTheoryVector(3)]


def test_search_contains_worked_example():
    found = search_relations(3, 3)
    assert Relation(1, 1) in found
    assert vec(3, 3, -2) in found[Relation(1, 1)]


def test_search_witnesses_revalidate():
    alpha = Partition((2, 1))
    found = search_relations(3, 2)
    for rel, witnesses in found.items():
        assert rel.q in (1, -1)
        for v in witnesses:
            result = derive_relation(3, v)
            assert rel in result
            # shift matches the Kostka form of the sum
            s = sum(kostka(lam.conjugate(), alpha) * c
                    for lam, c in v.coords.items())
            assert rel.s == s


def _scan_relations(n, bound):
    """The exhaustive box scan that search_relations replaced, kept as
    its oracle: derive_relation on every point of the box, in
    itertools.product order."""
    index = gamma_star(n)
    found = {}
    for point in itertools.product(range(-bound, bound + 1), repeat=len(index)):
        v = KTheoryVector.from_list(n, list(point))
        result = derive_relation(n, v)
        if isinstance(result, Rejection):
            continue
        for rel in result:
            found.setdefault(rel, []).append(v)
    return found


# Every box the tests and the benchmark search, plus small boxes for
# n = 3..5 and the larger (4, 4) and (5, 2).
ORACLE_BOXES = ((2, 0), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4),
                (3, 5), (3, 6), (3, 7), (3, 8), (4, 0), (4, 1), (4, 2),
                (4, 3), (4, 4), (5, 0), (5, 1), (5, 2))


@pytest.mark.parametrize("n, bound", ORACLE_BOXES)
def test_search_matches_scan(n, bound):
    # relations, witness lists and witness order
    found = search_relations(n, bound)
    assert found == _scan_relations(n, bound)
    assert found


def test_search_calls_derive_relation_only_on_hits(monkeypatch):
    from morita import classify
    calls = []
    derive = classify.derive_relation

    def counted(n, v):
        calls.append(v)
        return derive(n, v)

    monkeypatch.setattr(classify, "derive_relation", counted)
    found = search_relations(5, 2)
    # each accepted vector carries both signs of its shift
    assert len(calls) == sum(map(len, found.values())) // 2 == 18


def test_bound_zero_reads_only_hook_rows(monkeypatch):
    # every free coordinate is 0 at bound 0, so no free row is computed
    from morita import classify
    calls = []
    a_coefficients = classify.a_coefficients

    def counted(lam, n):
        calls.append(lam)
        return a_coefficients(lam, n)

    monkeypatch.setattr(classify, "a_coefficients", counted)
    n = 12
    classify._solve_box(n, 0)
    assert len(calls) == n - 1
    assert set(calls) == {hook_partition(n, m) for m in range(1, n)}


def test_ktheory_vector_enumerates_partitions_once(monkeypatch):
    calls = []
    enumerate_partitions = partitions.enumerate_partitions

    def counted(n):
        calls.append(n)
        return enumerate_partitions(n)

    monkeypatch.setattr(partitions, "enumerate_partitions", counted)
    partitions._partitions_of.cache_clear()
    for _ in range(3):
        KTheoryVector.from_list(7, [0] * 14)
        KTheoryVector(7)
    assert calls == [7]


def test_iso_obstruction_examples():
    assert iso_obstruction(3, 1, 1) == -54
    assert iso_obstruction(2, -1, -1) == 4
    for n in range(2, 6):
        for sign in (1, -1):
            assert iso_obstruction(n, 0, sign) == 0


def _obstruction_by_products(n, l, sign):
    # the multiplied-out product prod_k (sign*x + n*l + k) * x^n, evaluated
    # at x = -sign*n*l: the route iso_obstruction replaced, kept as its oracle
    p = Poly.from_roots([0] * n)
    for k in range(1, n):
        p = p * Poly([n * l + k, sign])
    return p(-sign * n * l)


def test_iso_obstruction_nonzero_iff_shift():
    import math
    for n in range(2, 11):
        for l in range(-10, 11):
            for sign in (1, -1):
                value = iso_obstruction(n, l, sign)
                assert type(value) is int
                assert value == math.factorial(n - 1) * (-sign * n * l) ** n
                assert value == _obstruction_by_products(n, l, sign)
                assert (value != 0) == (l != 0)


def test_ktheory_vector_validation():
    with pytest.raises(ValueError):
        KTheoryVector.from_list(3, [1])
    with pytest.raises(ValueError):
        KTheoryVector(3, {Partition((3,)): 1})
    with pytest.raises(ValueError):
        KTheoryVector(3, {Partition((2, 2)): 1})


def test_ktheory_vector_rejects_non_integral_coordinates():
    # int() used to truncate these to [2, -2] and [0, 1]
    with pytest.raises(NonIntegralCoordinate):
        KTheoryVector(3, {Partition((2, 1)): 2.7, Partition((1, 1, 1)): Fraction(-5, 2)})
    for values in ([0.5, 1], [1, Fraction(1, 3)], [0, "3/2"]):
        with pytest.raises(NonIntegralCoordinate):
            KTheoryVector.from_list(3, values)
    assert issubclass(NonIntegralCoordinate, ValueError)
    v = KTheoryVector.from_list(3, [Fraction(6, 3), -1.0])
    assert v.as_list() == [2, -1]
    assert all(type(c) is int for c in v.as_list())


def test_input_validation_raises_out_of_range():
    zero = KTheoryVector(3)
    for call in (lambda: Relation(2, 0), lambda: hook_matrix(1),
                 lambda: build_f(1, zero), lambda: remark_identity_check(1, zero),
                 lambda: iso_obstruction(1, 0, 1), lambda: iso_obstruction(3, 1, 0),
                 lambda: search_relations(1, 2), lambda: search_relations(0, 0)):
        with pytest.raises(OutOfRange):
            call()


def _derive_relation_by_roots(n, v):
    """`derive_relation` as it was before it accepted by comparing f with
    f_r, kept as its oracle: every vector goes through the root search."""
    from morita import classify
    from morita.exact import quotient, rational_roots
    f, a = build_f(n, v)
    roots, remainder = rational_roots(f)
    if remainder.degree > 0:
        return Rejection("NonIntegerRoots",
                         {"roots_found": roots, "remainder": remainder.to_json()})
    s = quotient(sum(a), n * (n - 1))
    if not isinstance(s, int):
        raise classify.InternalDivisibility("shift %s is not an integer for %r" % (s, v))
    if n == 2:
        return {Relation(1, s), Relation(-1, s)}
    diffs = sorted(set(roots[i + 1] - roots[i] for i in range(len(roots) - 1)))
    if len(diffs) > 1:
        return Rejection("NotArithmeticProgression",
                         {"roots": roots, "differences": diffs})
    d = diffs[0]
    if d != 1:
        return Rejection("CommonDifferenceNotUnit",
                         {"roots": roots, "common_difference": d})
    return {Relation(1, s), Relation(-1, s)}


def _same_result(n, v):
    new, old = derive_relation(n, v), _derive_relation_by_roots(n, v)
    if isinstance(old, Rejection):
        return isinstance(new, Rejection) and new.to_json() == old.to_json()
    return new == old


def _catalogue_vectors():
    """(n, coordinates) of every classify request of the benchmark."""
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "catalogue.py")
    spec = importlib.util.spec_from_file_location("bench_catalogue", path)
    catalogue = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalogue)
    out = []
    for req in catalogue.full_catalogue("classify"):
        argv = req["argv"]
        if argv[0] == "classify":
            out.append((int(argv[2]), [int(x) for x in argv[3].split("=")[1].split(",")]))
    return out


# the vectors of the tests above and of the classify goldens
_TEST_VECTORS = [(2, [1]), (2, [0]), (3, [0, 0]), (3, [3, -2]), (3, [1, 0]), (3, [1, 1]),
                 (6, [0, 0, 0, 1, 0, 0, 0, 0, 0, 2]), (3, [166666666666, 1]),
                 (3, [166666666666666666, 1])]


def test_accept_by_comparison_matches_the_root_search():
    vectors = _catalogue_vectors()
    assert len(vectors) > 30
    for n, values in vectors + _TEST_VECTORS:
        assert _same_result(n, KTheoryVector.from_list(n, values)), (n, values)


@pytest.mark.parametrize("n, bound", [(3, 4), (4, 3), (5, 2)])
def test_accept_by_comparison_on_every_point_of_small_boxes(n, bound):
    for point in itertools.product(range(-bound, bound + 1), repeat=len(gamma_star(n))):
        assert _same_result(n, KTheoryVector.from_list(n, list(point))), point


@pytest.mark.parametrize("n, bound", [(5, 2), (6, 2), (6, 3), (7, 1)])
def test_accept_by_comparison_on_the_solver_points(n, bound):
    from morita import classify
    index = gamma_star(n)
    points = classify._solve_box(n, bound)
    assert points
    for point in points:
        v = KTheoryVector(n, dict(zip(index, point)))
        assert not isinstance(derive_relation(n, v), Rejection)
        assert _same_result(n, v), point


def test_accept_searches_no_roots(monkeypatch):
    # an accepted vector is decided by one comparison; a rejection still
    # searches the roots for its witness
    from morita import classify
    calls = []
    original = classify.rational_roots

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(classify, "rational_roots", counted)
    for n, values in ((3, [3, -2]), (6, [0] * 9 + [-1]), (6, [0] * 10)):
        assert not isinstance(derive_relation(n, vec(n, *values)), Rejection)
    assert calls == []
    assert isinstance(derive_relation(3, vec(3, 1, 0)), Rejection)
    assert len(calls) == 1
