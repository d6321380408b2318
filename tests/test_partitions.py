import ast
import importlib
import itertools
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import types
from functools import lru_cache

import pytest

import morita
from morita import cli, exact, partitions, poisson, traces
from morita.partitions import (InvalidPartition, OutOfRange, Partition,
                               WeightMismatch, _schur_strips,
                               enumerate_partitions, gamma_star,
                               hook_partition, kostka, partition_count,
                               schur_eval_ones)


def test_enumerate_small():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(2)] == [(2,), (1, 1)]


def test_partition_count_matches_enumeration():
    for n in range(1, 21):
        assert partition_count(n) == len(enumerate_partitions(n))
    assert partition_count(60) == 966467
    with pytest.raises(OutOfRange):
        partition_count(0)


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
    assert Partition((2, 1)).conjugate() == Partition((2, 1))
    assert Partition((3,)).conjugate() == Partition((1, 1, 1))


def test_conjugate_hooks():
    # (m, 1^(n-m)) transposes to (n-m+1, 1^(m-1))
    for n in range(2, 9):
        for m in range(1, n + 1):
            assert hook_partition(n, m).conjugate() == hook_partition(n, n - m + 1)


def test_conjugate_involution():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert lam.conjugate().conjugate() == lam


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
        assert Partition((n,)).dimension() == 1
        assert Partition((1,) * n).dimension() == 1
    assert Partition((2, 1)).dimension() == 2


def test_dimension_matches_tableaux_enumeration():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert lam.dimension() == _standard_tableaux_count(lam)


def test_dimension_burnside():
    for n in range(2, 15):
        assert sum(lam.dimension() ** 2 for lam in enumerate_partitions(n)) \
            == math.factorial(n)


def test_dimension_conjugation_invariant():
    for n in range(2, 11):
        for lam in enumerate_partitions(n):
            assert lam.dimension() == lam.conjugate().dimension()


def test_trace_table_reads_each_dimension_once(monkeypatch):
    # the dimension is memoised per shape: the table's dim column, its G
    # and its a-coefficients compute the hooks of each shape once between
    # them, so the cache misses once per row
    dimension = partitions._dimension
    calls = []

    def counted(parts):
        calls.append(parts)
        return dimension(parts)

    monkeypatch.setattr(partitions, "_dimension", counted)
    dimension.cache_clear()
    traces._a_coefficients_cached.cache_clear()
    try:
        rows = traces.trace_table(10)
        misses = dimension.cache_info().misses
        hits = len(calls) - misses
    finally:
        traces._a_coefficients_cached.cache_clear()
    assert len(rows) == len(enumerate_partitions(10)) - 1
    assert misses == len(rows) and hits >= len(rows)


def _conjugate_by_columns(parts):
    # the column count the private conjugate replaced, kept as its oracle
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def test_built_partitions_match_validated():
    # the partitions the package builds skip Partition's checks; each must
    # be the partition the checked constructor makes from its parts
    def same(lam):
        ref = Partition(lam.parts)
        return (lam.parts, lam.weight, lam.length) == (ref.parts, ref.weight, ref.length)

    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            assert same(lam) and same(lam.conjugate())
            assert lam.conjugate().parts == _conjugate_by_columns(lam.parts)
        for m in range(1, n + 1):
            assert same(hook_partition(n, m))
    assert Partition(()).conjugate() == Partition(())


def test_content_multiset():
    assert sorted(Partition((4,)).content_multiset()) == [0, 1, 2, 3]
    assert sorted(Partition((1, 1)).content_multiset()) == [-1, 0]
    assert sorted(Partition((2, 1)).content_multiset()) == [-1, 0, 1]


def test_kostka_examples():
    assert kostka(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert kostka(Partition((1, 1, 1)), Partition((2, 1))) == 0
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert kostka(lam, lam) == 1


def test_kostka_weight_mismatch():
    with pytest.raises(WeightMismatch):
        kostka(Partition((2,)), Partition((2, 1)))


def _recursive_strips(shape, size):
    """The recursive generator that the strip enumerator replaced, kept as
    its oracle: choose each row of inner in [shape[i+1], shape[i]], pruning
    once more than size cells are removed."""
    rows = len(shape)

    def rec(i, remaining):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        hi = shape[i]
        for v in range(hi, lo - 1, -1):
            removed = hi - v
            if removed > remaining:
                break
            for tail in rec(i + 1, remaining - removed):
                yield (v,) + tail

    for inner in rec(0, size):
        yield tuple(p for p in inner if p > 0)


def _filtered_strips(shape):
    """The strip enumerator the sliced one replaced, kept as its oracle:
    one itertools.product over the row ranges, with the zeros filtered
    out of every inner shape."""
    ranges = (range(lo, hi + 1) for hi, lo in zip(shape, shape[1:] + (0,)))
    return tuple(tuple(p for p in inner if p > 0) for inner in itertools.product(*ranges))


def _recursive_partitions(n):
    """The nested generators the successor loop of enumerate_partitions
    replaced, kept as its oracle."""
    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return list(gen(n, n))


def _ssyt_count(shape, k, memo):
    """The per-(shape, k) recursion that the per-shape lists of
    _ssyt_counts replaced, kept as its oracle: s_shape(1^k) as the sum of
    s_inner(1^(k-1)) over the horizontal strips of k's."""
    if not shape:
        return 1
    if len(shape) > k:
        return 0
    if (shape, k) not in memo:
        memo[shape, k] = sum(_ssyt_count(inner, k - 1, memo)
                             for inner in _filtered_strips(shape))
    return memo[shape, k]


def test_enumerate_partitions_matches_recursive_oracle():
    for n in range(1, 21):
        assert [lam.parts for lam in enumerate_partitions(n)] == _recursive_partitions(n), n


def test_strips_match_filtered_oracle():
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            assert partitions._strips(lam.parts) == _filtered_strips(lam.parts), lam


def test_tableau_counts_match_per_k_oracle():
    memo = {}
    partitions._counts.cache_clear()
    for n in range(1, 14):
        ks = range(n + 3)
        for lam in enumerate_partitions(n):
            assert _schur_strips(lam, ks) == [_ssyt_count(lam.parts, k, memo) for k in ks], lam


def _package_modules():
    return [importlib.import_module("morita." + info.name)
            for info in pkgutil.iter_modules(morita.__path__)]


def _lru_memos():
    """(owner, name, wrapper) for each functools LRU wrapper that a module
    of the package defines, at module level or in a class body."""
    found = []
    for module in _package_modules():
        owners = [module] + [c for c in vars(module).values()
                             if isinstance(c, type) and c.__module__ == module.__name__]
        for owner in owners:
            found += [(owner, name, f) for name, f in vars(owner).items()
                      if hasattr(f, "cache_parameters") and f.__module__ == module.__name__]
    return found


_KNOWN_MEMOS = {"exact._pole_denominators", "partitions._dimension",
                "partitions._partitions_of", "partitions._counts", "partitions._strips",
                "polynomials.monomials", "traces.f_trivial", "traces._upper_factor",
                "traces._residue_denominators", "traces._a_coefficients_cached"}


def _memo_name(f):
    return "%s.%s" % (f.__module__.rpartition(".")[2], f.__qualname__)


def _starts_empty(value):
    # an empty dict display or constructor: a table filled at run time
    if isinstance(value, ast.Dict):
        return not value.keys
    name = getattr(getattr(value, "func", None), "id", None)
    return name == "defaultdict" or (
        name in ("dict", "OrderedDict") and not value.args and not value.keywords)


def test_every_memo_has_the_one_bound():
    # one memo policy: every lru_cache of the package is bounded by
    # exact._MEMO_SIZE, only the pole denominators are typed, and the one
    # memo that is a dict is the content memo, whose walk reads ancestors
    # without computing them; a future maxsize=None fails here
    params = {_memo_name(f): f.cache_parameters() for _, _, f in _lru_memos()}
    assert _KNOWN_MEMOS <= set(params)
    assert all(p["maxsize"] == exact._MEMO_SIZE for p in params.values()), params
    assert [name for name, p in params.items() if p["typed"]] == ["exact._pole_denominators"]
    bound_in, memo_dicts, calls = [], [], []
    for path in sorted(pathlib.Path(morita.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                bound_in += [path.stem for name in names if name == "_MEMO_SIZE"]
                if _starts_empty(node.value):
                    memo_dicts += ["%s.%s" % (path.stem, name) for name in names]
        calls += [(path.name, node.lineno, node) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lru_cache"]
    assert bound_in == ["exact"]
    assert memo_dicts == ["traces._content_memo"]
    assert len(calls) >= len(_KNOWN_MEMOS)
    for name, line, call in calls:
        maxsize = {k.arg: k.value for k in call.keywords}.get("maxsize")
        assert not call.args and getattr(maxsize, "id", None) == "_MEMO_SIZE", (name, line)


def test_bounded_memos_keep_the_routes(monkeypatch):
    # with a bound of 16, far below the shapes of n <= 12, every memo drops
    # entries as it goes, including counts lists still being extended, and
    # the four routes still agree on the same a-vectors; the other verify
    # checks, the trace table and hp0 on S_4 give what a cold run at the
    # full bound gives.  Each lru_cache is rewrapped at 16 wherever the
    # package holds it; the content memo reads its bound at each store
    memos = _lru_memos()

    def clear():
        for owner, name, _ in memos:
            getattr(owner, name).cache_clear()
        traces._content_memo.clear()

    def outputs():
        clear()
        return ([traces.check_routes(lam, n) for n in range(2, 13) for lam in gamma_star(n)],
                {check: run(12) for check, run in cli._VERIFY_CHECKS.items()},
                traces.trace_table(12),
                poisson.hp0_dims(poisson.symmetric_group_action(4), 6).dims)

    want = outputs()
    holders = _package_modules() + [morita]
    for owner, name, f in memos:
        small = lru_cache(maxsize=16, typed=f.cache_parameters()["typed"])(f.__wrapped__)
        for holder in holders + [owner]:
            if getattr(holder, name, None) is f:
                monkeypatch.setattr(holder, name, small)
    monkeypatch.setattr(traces, "_MEMO_SIZE", 16)
    try:
        assert outputs() == want
        assert cli._verify_routes(12) == []
        infos = {_memo_name(getattr(owner, name)): getattr(owner, name).cache_info()
                 for owner, name, _ in memos}
        assert all(0 < info.currsize <= info.maxsize == 16 for info in infos.values()), infos
        assert 0 < len(traces._content_memo) <= 16
    finally:
        clear()


def test_horizontal_strips_match_recursive_oracle():
    for n in range(1, 12):
        for lam in enumerate_partitions(n):
            for size in range(n + 1):
                got = [inner for inner in partitions._strips(lam.parts)
                       if sum(inner) == n - size]
                want = list(_recursive_strips(lam.parts, size))
                assert len(got) == len(set(got)) and set(got) == set(want), (lam, size)


def test_verify_routes_enumerates_each_shape_once(monkeypatch):
    # the Schur route reads s(1^k) for every k by peeling strips; with cold
    # caches each shape's strips are enumerated once, not once per k
    partitions._strips.cache_clear()
    partitions._counts.cache_clear()
    traces._a_coefficients_cached.cache_clear()
    shapes = []

    def product(*ranges):
        shapes.append(tuple(r.stop - 1 for r in ranges))
        return itertools.product(*ranges)

    monkeypatch.setattr(partitions, "itertools", types.SimpleNamespace(product=product))
    assert cli._verify_routes(11) == []
    info = partitions._strips.cache_info()
    assert len(shapes) == len(set(shapes)) == info.currsize == info.misses == 192


def _dominates(lam, sigma):
    """Dominance order: partial sums of lam bound those of sigma."""
    if lam.weight != sigma.weight:
        return False
    a = b = 0
    for i in range(max(lam.length, sigma.length)):
        a += lam.parts[i] if i < lam.length else 0
        b += sigma.parts[i] if i < sigma.length else 0
        if a < b:
            return False
    return True


def _monomial_eval_ones(sigma, k):
    """m_sigma at k ones: the number of distinct monomials of exponent
    type sigma in k variables; 0 when k < length(sigma)."""
    l = sigma.length
    if k < l:
        return 0
    denom = 1
    for p in set(sigma.parts):
        denom *= math.factorial(sigma.parts.count(p))
    return math.comb(k, l) * math.factorial(l) // denom


def _schur_kostka(lam, ks):
    """The Kostka expansion that _schur_strips replaced, kept as its
    oracle: [sum over sigma of K[lam, sigma] * m_sigma(1^k) for k in ks],
    reading K[lam, sigma] only for the sigma that lam dominates."""
    row = [(kostka(lam, sigma), sigma) for sigma in enumerate_partitions(lam.weight)
           if _dominates(lam, sigma)]
    return [sum(K * _monomial_eval_ones(sigma, k) for K, sigma in row) for k in ks]


def test_kostka_dominance_and_sign_column():
    for n in range(1, 7):
        ones = Partition((1,) * n)
        for lam in enumerate_partitions(n):
            assert kostka(lam, ones) == lam.dimension()
            for sigma in enumerate_partitions(n):
                if not _dominates(lam, sigma):
                    assert kostka(lam, sigma) == 0


def test_monomial_eval_ones():
    assert _monomial_eval_ones(Partition((3,)), 2) == 2
    assert _monomial_eval_ones(Partition((2, 1)), 2) == 2
    assert _monomial_eval_ones(Partition((1, 1, 1)), 2) == 0


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
                    assert _monomial_eval_ones(sigma, k) == 0
                else:
                    assert _monomial_eval_ones(sigma, k) == _monomial_count_brute(sigma, k)


def test_schur_eval_examples():
    assert schur_eval_ones(Partition((3,)), 2) == 4
    assert schur_eval_ones(Partition((2, 1)), 2) == 2
    assert schur_eval_ones(Partition((2, 1, 1)), 2) == 0


def test_schur_two_routes_agree():
    # the tableau count against the hook-content product and the Kostka
    # expansion
    for n in range(1, 13):
        ks = list(range(0, n + 2))
        for lam in enumerate_partitions(n):
            got = _schur_strips(lam, ks)
            assert got == [schur_eval_ones(lam, k) for k in ks], lam
            assert got == _schur_kostka(lam, ks), lam


def _schur_kostka_per_k(lam, k):
    """The one-k Kostka sum with no dominance skip, reading K[lam, sigma]
    again for every k: the oracle of the all-k expansion."""
    total = 0
    for sigma in enumerate_partitions(lam.weight):
        if sigma.length > k:
            continue
        total += kostka(lam, sigma) * _monomial_eval_ones(sigma, k)
    return total


def test_schur_kostka_all_k_matches_per_k_sum():
    for n in range(1, 11):
        ks = list(range(0, n + 2))
        for lam in enumerate_partitions(n):
            assert _schur_kostka(lam, ks) == [_schur_kostka_per_k(lam, k) for k in ks]


def test_schur_strips_reads_no_kostka_number(monkeypatch):
    def no_kostka(*args):
        raise AssertionError("the tableau count read a Kostka number")

    monkeypatch.setattr(partitions, "kostka", no_kostka)
    partitions._counts.cache_clear()
    for lam in enumerate_partitions(6):
        assert _schur_strips(lam, range(8)) == [schur_eval_ones(lam, k) for k in range(8)]


def test_kostka_nonzero_exactly_on_dominance():
    # K[lam', sigma] != 0 <=> lam' dominates sigma, over the shapes lam' the
    # Schur route of the a-coefficients reads, which is why the Kostka
    # expansion reads only the dominated sigma
    for n in range(1, 12):
        sigmas = enumerate_partitions(n)
        for lam in sigmas:
            conj = lam.conjugate()
            for sigma in sigmas:
                assert (kostka(conj, sigma) != 0) == _dominates(conj, sigma), (conj, sigma)


def test_input_validation():
    # non-integer parts are refused, not truncated or parsed
    for parts in ((1, 2), (2, 0), (-1,), (2.7, 1), ("3",), (1.0,)):
        with pytest.raises(InvalidPartition):
            Partition(parts)
    for call in (lambda: enumerate_partitions(0), lambda: hook_partition(3, 4),
                 lambda: hook_partition(3, 0),
                 lambda: schur_eval_ones(Partition((2, 1)), -1)):
        with pytest.raises(OutOfRange):
            call()


def test_one_out_of_range():
    # one class, so an except clause on either import path catches both
    assert poisson.OutOfRange is partitions.OutOfRange
    with pytest.raises(partitions.OutOfRange):
        poisson.symmetric_group_action(1)


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
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
