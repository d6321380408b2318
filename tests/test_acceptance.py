"""Acceptance suite: every criterion is exact (zero tolerance) and
prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they go by.
"""

import math
import random

from bracket_oracle import bracket
from morita import linalg
from morita.classify import (KTheoryVector, Rejection, Relation,
                             derive_relation, hook_matrix,
                             invert_hook_matrix, iso_obstruction,
                             recombination_failures, search_relations)
from morita.exact import Poly, RationalFunction, partial_fractions, rational_roots
from morita.partitions import Partition, enumerate_partitions, gamma_star, kostka
from morita.poisson import (MultiPoly, close_group, duality_check,
                            functional_solutions_dim, hp0_dims,
                            standard_form, _is_symplectic)
from morita.traces import (_a_via_conjugate_content, _a_via_partial_fractions,
                           _a_via_schur, a_coefficients, g_function,
                           verify_sum_identity)

J2 = standard_form(1)
PLUS_MINUS = close_group([[[-1, 0], [0, -1]]], J2)
TRIVIAL_GROUP = close_group([], J2)
ORDER_THREE = close_group([[[0, -1], [1, -1]]], J2)


def _record(name, ok):
    print("%s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


def test_criterion_1_divisibility():
    ok = True
    for n in range(2, 11):
        for lam in gamma_star(n):
            ok = ok and all(a % (n * (n - 1)) == 0
                            for a in a_coefficients(lam, n))
    _record("criterion 1 (divisibility by n(n-1), n <= 10)", ok)


def test_criterion_2_three_routes():
    ok = True
    for n in range(2, 11):
        for lam in gamma_star(n):
            r1 = _a_via_partial_fractions(lam, n)
            r2 = _a_via_conjugate_content(lam, n)
            r3 = _a_via_schur(lam, n)
            ok = ok and (r1 == r2 == r3 == a_coefficients(lam, n))
    _record("criterion 2 (three-route agreement with the production table, "
            "n <= 10)", ok)


def test_criterion_3_trace_identity():
    ok = all(verify_sum_identity(n) for n in range(2, 9))
    _record("criterion 3 (sum dim^2 F = n! x^n, n <= 8)", ok)


def test_criterion_4_hook_triangularity():
    ok = True
    for n in range(2, 11):
        mat = hook_matrix(n)
        for m in range(1, n):
            ok = ok and all(mat[m - 1][k - 1] == 0 for k in range(1, m))
            ok = ok and mat[m - 1][m - 1] != 0
        try:
            ok = ok and recombination_failures(n, invert_hook_matrix(n)) == []
        except linalg.SingularMatrix:
            ok = False
    _record("criterion 4 (hook triangularity, inversion and recombination, n <= 10)", ok)


def test_criterion_5_zero_vector_relations():
    ok = True
    for n in range(3, 9):
        result = derive_relation(n, KTheoryVector(n))
        ok = ok and result == {Relation(1, 0), Relation(-1, 0)}
    _record("criterion 5 (zero data gives exactly c=c' and c=-c'-1, n in 3..8)", ok)


def test_criterion_6_search_consistency():
    ok = True
    for n, bound in ((3, 3), (4, 2)):
        alpha = Partition((2,) + (1,) * (n - 2))
        found = search_relations(n, bound)
        for rel, witnesses in found.items():
            ok = ok and rel.q in (1, -1)  # hence c - c' or c + c' is an integer
            for v in witnesses:
                s = sum(kostka(lam.conjugate(), alpha) * c
                        for lam, c in v.coords.items())
                ok = ok and rel.s == s
    worked = KTheoryVector(3, {Partition((2, 1)): 3, Partition((1, 1, 1)): -2})
    result = derive_relation(3, worked)
    ok = ok and not isinstance(result, Rejection) and Relation(1, 1) in result
    _record("criterion 6 (exhaustive search: shifts match Kostka sums)", ok)


def test_criterion_7_iso_obstruction():
    ok = True
    for n in range(2, 7):
        for l in range(-5, 6):
            for sign in (1, -1):
                value = iso_obstruction(n, l, sign)
                expected = math.factorial(n - 1) * (-sign * n * l) ** n
                ok = ok and value == expected and (value != 0) == (l != 0)
    _record("criterion 7 (shift obstruction exact and nonzero iff l != 0)", ok)


def test_criterion_8_duality():
    ok = True
    for action in (PLUS_MINUS, ORDER_THREE, TRIVIAL_GROUP):
        ok = ok and duality_check(action, hp0_dims(action, 6))["pass"]
    _record("criterion 8 (graded dims match dual solution counts, degree <= 6)", ok)


def test_criterion_9_expected_totals():
    graded = hp0_dims(PLUS_MINUS, 8)
    ok = graded.dims[0] == 1 and all(graded.dims[n] == 0 for n in range(1, 9))
    ok = ok and graded.total == 1
    graded_triv = hp0_dims(TRIVIAL_GROUP, 8)
    ok = ok and graded_triv.total == 0
    _record("criterion 9 (sign action total 1, trivial group total 0)", ok)


def test_criterion_10_structural_suite():
    ok = True
    # partial fraction recombination
    for n in range(2, 9):
        for lam in gamma_star(n):
            g = g_function(lam, n)
            pf = partial_fractions(g.num, rational_roots(g.den)[0])
            ok = ok and pf.numerator_over(g.den) == g.num
    # Burnside
    for n in range(2, 11):
        ok = ok and sum(lam.dimension() ** 2
                        for lam in enumerate_partitions(n)) == math.factorial(n)
    # Jacobi spot checks
    rng = random.Random(5)
    for _ in range(8):
        polys = []
        for _ in range(3):
            terms = {tuple(rng.randrange(0, 3) for _ in range(2)):
                     rng.randrange(-4, 5) for _ in range(3)}
            polys.append(MultiPoly(2, terms))
        p, q, r = polys
        total = (bracket(p, bracket(q, r, J2), J2)
                 + bracket(q, bracket(r, p, J2), J2)
                 + bracket(r, bracket(p, q, J2), J2))
        ok = ok and total.is_zero()
    # symplectic closure verification
    for action in (PLUS_MINUS, ORDER_THREE, TRIVIAL_GROUP):
        ok = ok and all(_is_symplectic(g, action.form) for g in action.elements)
    _record("criterion 10 (recombination, Burnside, Jacobi, symplectic closure)", ok)
