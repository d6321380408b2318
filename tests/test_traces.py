import contextlib
import io
import math
import os
import subprocess
import sys

import pytest

from euclid_oracle import Reduced, poly_gcd
from morita import classify, cli, exact, partitions, traces
from morita.classify import KTheoryVector, build_f, hook_matrix
from morita.exact import (PartialFraction, Poly, RationalFunction,
                          partial_fractions, rational_roots)
from morita.partitions import (OutOfRange, Partition, WeightMismatch,
                               enumerate_partitions, gamma_star)
from morita.traces import (RouteDisagreement, TrivialPartition,
                           a_coefficients, check_routes, chi_B, chi_H,
                           content_polynomial, f_trivial, g_function,
                           morita_phi_factor, trace_table, verify_sum_identity)


def test_content_polynomial_trivial_row():
    for n in range(1, 7):
        assert content_polynomial(Partition((n,))) == f_trivial(n)


def test_content_polynomial_small():
    assert content_polynomial(Partition((1, 1))) == Poly.from_roots([0, 1])
    assert content_polynomial(Partition((2, 1))) == Poly.from_roots([0, -1, 1])


def _content_polynomial_from_cells(lam):
    # every cell's factor at once, as content_polynomial built F before
    # it grew F from the shape one cell smaller; kept as its oracle
    return Poly.from_roots([-c for c in lam.content_multiset()])


def test_content_polynomial_matches_cells_in_any_order():
    by_n = [enumerate_partitions(n) for n in range(1, 15)]
    ascending = [lam for lams in by_n for lam in lams]
    deepest = max(ascending, key=lambda lam: (lam.weight, lam.length))
    for order in (ascending, ascending[::-1], [deepest] + ascending):
        traces._content_memo.clear()
        for lam in order:
            assert content_polynomial(lam) == _content_polynomial_from_cells(lam), lam
        assert len(traces._content_memo) <= exact._MEMO_SIZE


def test_content_polynomial_of_long_row_and_column():
    # a 3000-cell walk from the empty shape, which must not recurse per cell
    traces._content_memo.clear()
    n = 3000
    row = content_polynomial(Partition((n,)))
    column = content_polynomial(Partition((1,) * n))
    traces._content_memo.clear()
    # x(x+1)...(x+n-1) and x(x-1)...(x-n+1), read at a few points
    assert row.degree == column.degree == n
    assert row.coeffs[-1] == column.coeffs[-1] == 1
    assert row(1) == column(n) == column(-1) == math.factorial(n)
    assert row(-1) == row(1 - n) == column(1) == column(n - 1) == 0
    assert row(2) == math.factorial(n + 1)


def test_content_memo_stays_bounded():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["verify", "sum-identity", "--max-n", "30"]) == 0
    assert 0 < len(traces._content_memo) <= exact._MEMO_SIZE
    assert sum(map(len, map(enumerate_partitions, range(2, 31)))) > exact._MEMO_SIZE
    traces._content_memo.clear()


class _CountingMemo(dict):
    """The content memo, counting the shapes looked up in it: one per
    call, and one per cell walked back."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


@pytest.mark.parametrize("check, max_n", [("triangularity", 30), ("routes", 12)])
def test_verify_walks_one_cell_per_new_shape(check, max_n, monkeypatch):
    # a verify check asks for the shapes of n after those of n - 1, so
    # every new shape finds its parent memoised, or one row long and read
    # from f_trivial: (n-1, 1) used to walk back all n cells to the empty
    # shape (870 steps for the 435 shapes of triangularity through 30)
    memo, calls = _CountingMemo(), []

    def counted(lam):
        calls.append(lam)
        return content_polynomial(lam)

    monkeypatch.setattr(traces, "_content_memo", memo)
    monkeypatch.setattr(traces, "content_polynomial", counted)
    monkeypatch.setattr(classify, "content_polynomial", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", check, "--max-n", str(max_n)]) == 0
    assert len(memo) == len(set(calls)) < exact._MEMO_SIZE
    assert memo.lookups - len(calls) == len(memo)
    if check == "triangularity":
        assert len(memo) == 435


_NO_ROOTS_ON_THE_CONTENT_PATH = """
import sys
sys.path.insert(0, %r)
from morita import traces
from morita.exact import Poly
from morita.partitions import enumerate_partitions

def no_roots(*args):
    raise AssertionError("Poly.from_roots called on the content path")

from_roots, Poly.from_roots = Poly.from_roots, no_roots
for n in range(2, 13):
    assert traces.verify_sum_identity(n)
shapes = [lam for n in range(12, 0, -1) for lam in enumerate_partitions(n)]
got = [traces.content_polynomial(lam) for lam in shapes]
Poly.from_roots = from_roots
for lam, f in zip(shapes, got):
    assert f == Poly.from_roots([-c for c in lam.content_multiset()]), lam
print("ok")
"""


def test_content_path_builds_no_roots():
    # a fresh interpreter, so that the content memo starts empty; asserts
    # are checked there even under python -O
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-c", _NO_ROOTS_ON_THE_CONTENT_PATH % src],
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_g_function_examples():
    assert g_function(Partition((1, 1)), 2) == RationalFunction(Poly([2]), Poly([1, 1]))
    assert g_function(Partition((2, 1)), 3) == RationalFunction(Poly([6]), Poly([2, 1]))
    assert g_function(Partition((1, 1, 1)), 3) == \
        RationalFunction(Poly([0, 6]), Poly.from_roots([-1, -2]))


def _g_by_gcd(lam, n):
    """The definition dim * (F_triv - F_lam) / F_triv reduced by the
    Euclidean gcd, which g_function replaced; kept as its oracle."""
    f = f_trivial(n)
    return Reduced(lam.dimension() * (f - content_polynomial(lam)), f)


def test_g_function_matches_gcd_reduced_definition():
    for n in range(2, 13):
        for lam in gamma_star(n):
            g, oracle = g_function(lam, n), _g_by_gcd(lam, n)
            assert (g.num, g.den) == (oracle.num, oracle.den)
            assert poly_gcd(g.num, g.den) == Poly([1])


def _to_rational_function(pf):
    """The reassembly of a PartialFraction that g_function replaced, kept
    as its oracle: den = prod (x - p) over the poles with nonzero
    residue, num = numerator_over(den).  num(p) = r_p * prod_{q != p}
    (p - q) is nonzero at every root p of den, so it is in lowest terms."""
    den = Poly.from_roots(p for p, r in pf.residues.items() if r)
    return RationalFunction(pf.numerator_over(den), den)


def _g_by_reassembly(lam, n):
    """G_lam = sum a_k/(x+k) reassembled from a_coefficients."""
    a = a_coefficients(lam, n)
    return _to_rational_function(PartialFraction({-k: a[k - 1] for k in range(1, n)}))


def test_g_function_matches_reassembly():
    # exact tuples, so also the same lowest terms and all-int coefficients
    for n in range(2, 17):
        for lam in gamma_star(n):
            g, oracle = g_function(lam, n), _g_by_reassembly(lam, n)
            assert (g.num.coeffs, g.den.coeffs) == (oracle.num.coeffs, oracle.den.coeffs)
            assert all(type(c) is int for c in g.num.coeffs + g.den.coeffs)


def test_g_function_reads_no_a_coefficients(monkeypatch):
    # G comes from chi_B's linear factors, so the g and a columns of the
    # table are independent and their recombination checks something
    def banned(*args):
        raise AssertionError("g_function reassembled the a-coefficients")

    expected = {(lam, n): _g_by_reassembly(lam, n)
                for n in range(2, 11) for lam in gamma_star(n)}
    monkeypatch.setattr(traces, "a_coefficients", banned)
    monkeypatch.setattr(PartialFraction, "numerator_over", banned)
    for (lam, n), oracle in expected.items():
        g = g_function(lam, n)
        assert (g.num.coeffs, g.den.coeffs) == (oracle.num.coeffs, oracle.den.coeffs)


def test_tables_path_takes_no_polynomial_gcd():
    # the package has no polynomial Euclid left to call, and the tables
    # and verify paths run without it
    modules = [m for name, m in sys.modules.items()
               if name == "morita" or name.startswith("morita.")]
    assert exact in modules and traces in modules
    assert not any(hasattr(m, "poly_gcd") for m in modules)
    for name in ("monic", "__floordiv__", "__mod__"):
        assert not hasattr(Poly, name), name
    for name in ("_raw", "__add__", "__sub__", "__mul__", "__neg__"):
        assert not hasattr(RationalFunction, name), name
    traces._a_coefficients_cached.cache_clear()
    assert len(trace_table(10)) == len(gamma_star(10))
    for n in range(2, 10):
        for lam in gamma_star(n):
            assert check_routes(lam, n) == a_coefficients(lam, n)
    assert cli._verify_triangularity(10) == []


def test_g_function_trivial_rejected():
    with pytest.raises(TrivialPartition):
        g_function(Partition((4,)), 4)


def test_g_function_vanishes_at_infinity():
    for n in range(2, 11):
        for lam in gamma_star(n):
            g = g_function(lam, n)
            assert g.num.degree < g.den.degree


def test_a_coefficients_examples():
    assert a_coefficients(Partition((2, 1)), 3) == [0, 6]
    assert a_coefficients(Partition((1, 1, 1)), 3) == [-6, 12]
    assert a_coefficients(Partition((1, 1)), 2) == [2]


def test_a_coefficients_recombine_to_g():
    for n in range(2, 10):
        for lam in gamma_star(n):
            a = a_coefficients(lam, n)
            total = Reduced(Poly())
            for k in range(1, n):
                total = total + Reduced(Poly([a[k - 1]]), Poly([k, 1]))
            g = g_function(lam, n)
            assert (total.num, total.den) == (g.num, g.den)


def _a_by_expanded_conjugate_content(lam, n):
    """The conjugate-content form with F_{lam'} expanded into a Poly and
    evaluated at k, which _a_via_conjugate_content replaced; kept as its
    oracle."""
    f_conj = content_polynomial(lam.conjugate())
    return [exact.quotient((-1) ** (n - k - 1) * lam.dimension() * f_conj(k),
                           math.factorial(k) * math.factorial(n - 1 - k))
            for k in range(1, n)]


def test_a_coefficients_match_expanded_conjugate_content():
    for n in range(2, 15):
        for lam in gamma_star(n):
            assert traces._a_via_conjugate_content(lam, n) == \
                _a_by_expanded_conjugate_content(lam, n)


_NO_POLY_ON_A_PATH = """
import sys
sys.path.insert(0, %r)
from morita import traces
from morita.classify import hook_matrix, search_relations
from morita.exact import Poly
from morita.partitions import gamma_star

def no_poly(*args):
    raise AssertionError("Poly built on the a-coefficient path")

traces.content_polynomial = no_poly
poly_init, Poly.__init__ = Poly.__init__, no_poly
for n in range(2, 13):
    for lam in gamma_star(n):
        assert len(traces.a_coefficients(lam, n)) == n - 1
assert len(hook_matrix(12)) == 11
Poly.__init__ = poly_init
assert search_relations(5, 1)
print("ok")
"""


def test_a_coefficient_path_builds_no_poly():
    # a fresh interpreter, so that no memo the a path reads was filled by
    # an earlier test; asserts are checked there even under python -O
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-c", _NO_POLY_ON_A_PATH % src],
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_a_coefficients_divisibility():
    for n in range(2, 9):
        for lam in gamma_star(n):
            assert all(x % (n * (n - 1)) == 0 for x in a_coefficients(lam, n))


def test_chi_H_examples():
    n = 4
    assert chi_H(Partition((n,)), n) == \
        Reduced(f_trivial(n), math.factorial(n) * Poly.from_roots([0] * n))
    assert chi_H(Partition((1, 1)), 2) == Reduced(Poly([-1, 1]), Poly([0, 2]))


def _chi_by_gcd(lam, n):
    """chi_H, chi_B and the Morita factor from their definitions, reduced
    by the Euclidean gcd as the package computed them before it built
    them from cancelled linear factors; kept as their oracle."""
    f, x_n = f_trivial(n), math.factorial(n) * Poly.from_roots([0] * n)
    top = lam.dimension() * content_polynomial(lam)
    return Reduced(top, x_n), Reduced(top, f), Reduced(x_n, f)


def test_chi_match_gcd_reduced_definitions():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            oracles = _chi_by_gcd(lam, n)
            got = (chi_H(lam, n), chi_B(lam, n)) + ((morita_phi_factor(n),) if n > 1 else ())
            for rf, oracle in zip(got, oracles):
                assert (rf.num, rf.den) == (oracle.num, oracle.den), (lam, rf, oracle)


def test_chi_H_sums_to_one():
    for n in range(2, 9):
        total = Reduced(Poly())
        for lam in enumerate_partitions(n):
            total = total + Reduced(lam.dimension()) * chi_H(lam, n)
        assert total == RationalFunction(Poly([1]))


def test_chi_B_examples():
    for n in range(2, 7):
        assert chi_B(Partition((n,)), n) == RationalFunction(Poly([1]))
    assert chi_B(Partition((1, 1)), 2) == RationalFunction(Poly([-1, 1]), Poly([1, 1]))


def test_chi_B_relates_to_g():
    # G is built from chi_B's factors; read it against the definition
    # G = dim (1 - F_lam / F_triv), from the content polynomials alone, at
    # x = 1..n + 1, where F_triv has no root
    for n in range(2, 13):
        f_triv = f_trivial(n)
        for lam in gamma_star(n):
            d = lam.dimension()
            f_lam = content_polynomial(lam)
            g = g_function(lam, n)
            for x in range(1, n + 2):
                assert g(x) == d * (1 - exact.quotient(f_lam(x), f_triv(x)))


def test_morita_phi_factor():
    assert morita_phi_factor(2) == RationalFunction(Poly([0, 2]), Poly([1, 1]))
    assert morita_phi_factor(3) == \
        RationalFunction(Poly([0, 0, 6]), Poly.from_roots([-1, -2]))


def test_morita_factor_carries_chi():
    for n in range(2, 9):
        phi = morita_phi_factor(n)
        phi = Reduced(phi.num, phi.den)
        for lam in enumerate_partitions(n):
            assert phi * chi_H(lam, n) == chi_B(lam, n)


def test_sum_identity_small_expansions():
    # n = 2: x(x+1) + x(x-1) = 2x^2
    assert Poly.from_roots([0, -1]) + Poly.from_roots([0, 1]) == Poly([0, 0, 2])
    # n = 3: F_(3) + 4 F_(2,1) + F_(1^3) = 6x^3
    lhs = (content_polynomial(Partition((3,)))
           + 4 * content_polynomial(Partition((2, 1)))
           + content_polynomial(Partition((1, 1, 1))))
    assert lhs == Poly([0, 0, 0, 6])


def test_sum_identity():
    for n in range(2, 9):
        assert verify_sum_identity(n)


def _sum_identity_by_polys(n):
    # the Poly sum verify_sum_identity replaced, kept as its oracle
    lhs = Poly()
    for lam in enumerate_partitions(n):
        lhs = lhs + lam.dimension() ** 2 * traces.content_polynomial(lam)
    return lhs == math.factorial(n) * Poly.from_roots([0] * n)


def test_sum_identity_matches_poly_sum(monkeypatch):
    for n in range(2, 15):
        assert verify_sum_identity(n) is _sum_identity_by_polys(n) is True
    # one dimension off by one breaks the identity on both paths
    with monkeypatch.context() as patch:
        dimension = Partition.dimension
        patch.setattr(Partition, "dimension",
                      lambda lam: dimension(lam) + (lam.parts == (3, 2, 1)))
        assert verify_sum_identity(6) is _sum_identity_by_polys(6) is False
    # so does one content polynomial off below its leading term, which
    # leaves the sum of dim^2, the x^n coefficient, as it is
    monkeypatch.setattr(traces, "content_polynomial",
                        lambda lam: content_polynomial(lam)
                        + Poly([0, 1] if lam.parts == (3, 2, 1) else []))
    assert verify_sum_identity(6) is _sum_identity_by_polys(6) is False


def test_partial_fraction_of_g_matches_table():
    # Eq of the table against direct residue extraction
    for lam, n in ((Partition((2, 1)), 3), (Partition((3, 1)), 4)):
        g = g_function(lam, n)
        pf = partial_fractions(g.num, rational_roots(g.den)[0])
        a = a_coefficients(lam, n)
        for k in range(1, n):
            assert pf.residues.get(-k, 0) == a[k - 1]


def _trace_table_by_chi_b(n):
    """The row builder that the one-product table replaced, kept as its
    oracle: F from every cell, G = dim - chi_B over chi_B's factors, and
    a from the conjugate-content closed form."""
    rows = []
    for lam in gamma_star(n):
        b = chi_B(lam, n)
        rows.append({
            "partition": lam.to_json(),
            "dim": lam.dimension(),
            "content_poly": content_polynomial(lam).to_json(),
            "g": RationalFunction(lam.dimension() * b.den - b.num, b.den).to_json(),
            "a": traces._a_via_conjugate_content(lam, n),
        })
    return rows


def test_trace_table_matches_chi_b_rows():
    for n in range(2, 23):
        assert trace_table(n) == _trace_table_by_chi_b(n), n


def test_a_coefficients_match_closed_form():
    for n in range(2, 23):
        for lam in gamma_star(n):
            assert a_coefficients(lam, n) == traces._a_via_conjugate_content(lam, n), lam


def _traces_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


def test_traces_output_matches_chi_b_rows(monkeypatch):
    cases = [["traces", "--n", str(n), "--format", fmt]
             for n in (2, 3, 6, 12, 16) for fmt in ("json", "csv")]
    got = [_traces_stdout(argv) for argv in cases]
    monkeypatch.setattr(traces, "trace_table", _trace_table_by_chi_b)
    assert got == [_traces_stdout(argv) for argv in cases]


def test_trace_table_shape():
    rows = trace_table(4)
    assert len(rows) == 4
    assert all(len(r["a"]) == 3 for r in rows)


def test_production_path_is_single(monkeypatch):
    def reference_route(*args):
        raise AssertionError("reference route called on the production path")

    monkeypatch.setattr(traces, "_a_via_partial_fractions", reference_route)
    monkeypatch.setattr(traces, "_a_via_conjugate_content", reference_route)
    monkeypatch.setattr(traces, "_a_via_schur", reference_route)
    monkeypatch.setattr(partitions, "_schur_strips", reference_route)
    traces._a_coefficients_cached.cache_clear()
    assert len(trace_table(10)) == len(gamma_star(10))
    assert len(hook_matrix(10)) == 9
    f, _ = build_f(6, KTheoryVector.from_list(6, list(range(-5, 5))))
    assert f.is_monic()


def test_check_routes_makes_no_root_search(monkeypatch):
    # the partial-fraction route is handed the poles 0..-(n-1) of F_triv
    def no_root_search(p):
        raise AssertionError("check_routes searched for roots")

    monkeypatch.setattr(exact, "rational_roots", no_root_search)
    for n in range(2, 10):
        for lam in gamma_star(n):
            check_routes(lam, n)


def test_check_routes_computes_closed_form_once(monkeypatch):
    calls = []
    closed_form = traces._a_via_conjugate_content

    def counted(lam, n):
        calls.append((lam, n))
        return closed_form(lam, n)

    monkeypatch.setattr(traces, "_a_via_conjugate_content", counted)
    traces._a_coefficients_cached.cache_clear()
    checked = [(lam, n) for n in range(2, 10) for lam in gamma_star(n)]
    for lam, n in checked:
        check_routes(lam, n)
    traces._a_coefficients_cached.cache_clear()
    assert calls == checked


def test_check_routes_flags_disagreement(monkeypatch):
    lam = Partition((2, 1))
    assert check_routes(lam, 3) == a_coefficients(lam, 3)
    monkeypatch.setattr(traces, "_a_via_schur", lambda lam, n: [0] * (n - 1))
    with pytest.raises(RouteDisagreement):
        check_routes(lam, 3)


def test_input_validation():
    with pytest.raises(WeightMismatch):
        chi_H(Partition((2, 1)), 4)
    with pytest.raises(WeightMismatch):
        chi_B(Partition((2, 1)), 4)
    with pytest.raises(WeightMismatch):
        a_coefficients(Partition((2, 1)), 4)
    with pytest.raises(TrivialPartition):
        a_coefficients(Partition((3,)), 3)
    for call in (lambda: morita_phi_factor(1), lambda: verify_sum_identity(1)):
        with pytest.raises(OutOfRange):
            call()
