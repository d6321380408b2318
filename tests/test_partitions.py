import math
import os
import subprocess
import sys

import pytest

from morita.partitions import (InvalidPartition, OutOfRange, Partition,
                               WeightMismatch, _schur_kostka, conjugate,
                               content_multiset, dimension,
                               enumerate_partitions, gamma_star,
                               hook_partition, kostka, monomial_eval_ones,
                               schur_eval_ones)


def test_enumerate_small():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(2)] == [(2,), (1, 1)]


def test_enumerate_counts():
    # brute-force partition counts
    assert len(enumerate_partitions(8)) == 22
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_head_is_trivial():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert parts[0] == Partition((n,))
        assert gamma_star(n) == parts[1:]


def test_conjugate_examples():
    assert conjugate(Partition((2, 1))) == Partition((2, 1))
    assert conjugate(Partition((3,))) == Partition((1, 1, 1))


def test_conjugate_hooks():
    # (m, 1^(n-m)) transposes to (n-m+1, 1^(m-1))
    for n in range(2, 9):
        for m in range(1, n + 1):
            assert conjugate(hook_partition(n, m)) == hook_partition(n, n - m + 1)


def test_conjugate_involution():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def _standard_tableaux_count(lam):
    # brute force: growth sequences of the diagram by addable corners
    def count(shape):
        if sum(shape) == 0:
            return 1
        total = 0
        for i in range(len(shape)):
            if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
                smaller = list(shape)
                smaller[i] -= 1
                total += count(tuple(smaller))
        return total

    return count(lam.parts)


def test_dimension_examples():
    for n in range(2, 8):
        assert dimension(Partition((n,))) == 1
        assert dimension(Partition((1,) * n)) == 1
    assert dimension(Partition((2, 1))) == 2


def test_dimension_matches_tableaux_enumeration():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == _standard_tableaux_count(lam)


def test_dimension_burnside():
    for n in range(2, 11):
        assert sum(dimension(lam) ** 2 for lam in enumerate_partitions(n)) \
            == math.factorial(n)


def test_dimension_conjugation_invariant():
    for n in range(2, 11):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == dimension(conjugate(lam))


def test_content_multiset():
    assert sorted(content_multiset(Partition((4,)))) == [0, 1, 2, 3]
    assert sorted(content_multiset(Partition((1, 1)))) == [-1, 0]
    assert sorted(content_multiset(Partition((2, 1)))) == [-1, 0, 1]


def test_kostka_examples():
    assert kostka(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert kostka(Partition((1, 1, 1)), Partition((2, 1))) == 0
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert kostka(lam, lam) == 1


def test_kostka_weight_mismatch():
    with pytest.raises(WeightMismatch):
        kostka(Partition((2,)), Partition((2, 1)))


def test_kostka_dominance_and_sign_column():
    for n in range(1, 7):
        ones = Partition((1,) * n)
        for lam in enumerate_partitions(n):
            assert kostka(lam, ones) == dimension(lam)
            for sigma in enumerate_partitions(n):
                if not lam.dominates(sigma):
                    assert kostka(lam, sigma) == 0


def test_monomial_eval_ones():
    assert monomial_eval_ones(Partition((3,)), 2) == 2
    assert monomial_eval_ones(Partition((2, 1)), 2) == 2
    assert monomial_eval_ones(Partition((1, 1, 1)), 2) == 0


def _monomial_count_brute(sigma, k):
    # enumerate exponent assignments of type sigma over k variables
    import itertools
    seen = set()
    for perm in itertools.permutations(list(sigma.parts) + [0] * (k - sigma.length)):
        seen.add(perm)
    return len(seen) if k >= sigma.length else 0


def test_monomial_eval_matches_enumeration():
    for n in range(1, 6):
        for sigma in enumerate_partitions(n):
            for k in range(0, 5):
                if k < sigma.length:
                    assert monomial_eval_ones(sigma, k) == 0
                else:
                    assert monomial_eval_ones(sigma, k) == _monomial_count_brute(sigma, k)


def test_schur_eval_examples():
    assert schur_eval_ones(Partition((3,)), 2) == 4
    assert schur_eval_ones(Partition((2, 1)), 2) == 2
    assert schur_eval_ones(Partition((2, 1, 1)), 2) == 0


def test_schur_two_routes_agree():
    # hook-content product against the Kostka expansion
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for k in range(0, n + 1):
                assert schur_eval_ones(lam, k) == _schur_kostka(lam, k), (lam, k)


def test_input_validation():
    for parts in ((1, 2), (2, 0), (-1,)):
        with pytest.raises(InvalidPartition):
            Partition(parts)
    for call in (lambda: enumerate_partitions(0), lambda: hook_partition(3, 4),
                 lambda: hook_partition(3, 0),
                 lambda: schur_eval_ones(Partition((2, 1)), -1)):
        with pytest.raises(OutOfRange):
            call()


def test_partition_validation_survives_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("from morita.partitions import InvalidPartition, Partition\n"
            "try:\n    Partition((1, 2))\n"
            "except InvalidPartition:\n    pass\n"
            "else:\n    raise SystemExit('Partition((1, 2)) was accepted')\n"
            "from morita.poisson import OutOfRange, symmetric_group_action\n"
            "try:\n    symmetric_group_action(1)\n"
            "except OutOfRange:\n    pass\n"
            "else:\n    raise SystemExit('symmetric_group_action(1) was accepted')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
