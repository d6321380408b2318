import json
import types
from fractions import Fraction

import pytest

from morita import classify, traces
from morita.cli import (DimensionOdd, MalformedFile, parse_group_file, run)
from morita.exact import Poly, rational_from_str
from morita.partitions import Partition


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_verify_divisibility_passes(capsys):
    code, report = run_json(capsys, ["verify", "divisibility", "--max-n", "6"])
    assert code == 0
    assert report["status"] == "pass"


def test_verify_all_checks_pass(capsys):
    for check in ("sum-identity", "triangularity", "routes"):
        code, report = run_json(capsys, ["verify", check, "--max-n", "5"])
        assert code == 0, check
        assert report["status"] == "pass"


def test_verify_routes_reports_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(traces, "_a_via_schur", lambda lam, n: [0] * (n - 1))
    code, report = run_json(capsys, ["verify", "routes", "--max-n", "3"])
    assert code == 1
    assert report["status"] == "fail"
    assert len(report["payload"]["failures"]) == 3


def test_verify_triangularity_reports_bad_inverse(monkeypatch, capsys):
    monkeypatch.setattr(classify, "invert_hook_matrix",
                        lambda n: [[Fraction(0)] * (n - 1) for _ in range(n - 1)])
    code, report = run_json(capsys, ["verify", "triangularity", "--max-n", "3"])
    assert code == 1
    assert [(f["n"], f["k"]) for f in report["payload"]["failures"]] == \
        [(2, 1), (3, 1), (3, 2)]


@pytest.fixture
def fresh_a_cache():
    traces._a_coefficients_cached.cache_clear()
    yield
    traces._a_coefficients_cached.cache_clear()


def _raises(exc):
    def call(*args):
        raise exc("injected")
    return call


def _inject_route_disagreement(monkeypatch):
    monkeypatch.setattr(traces, "trace_table", _raises(traces.RouteDisagreement))
    return ["traces", "--n", "3"]


def _inject_non_integer(monkeypatch):
    monkeypatch.setattr(traces, "_a_via_conjugate_content",
                        lambda lam, n: [Fraction(1, 2)] * (n - 1))
    return ["traces", "--n", "3"]


def _inject_non_integer_shift(monkeypatch):
    monkeypatch.setattr(classify, "build_f",
                        lambda n, v: (Poly.from_roots([-1, -2]), [1, 0]))
    return ["classify", "--n", "3", "--nvec", "0,0"]


def _inject_obstruction_mismatch(monkeypatch):
    monkeypatch.setattr(classify, "math", types.SimpleNamespace(factorial=lambda n: 0))
    return ["iso-obstruction", "--n", "3", "--l-min", "1", "--l-max", "1"]


@pytest.mark.parametrize("inject, message", [
    (_inject_route_disagreement, "injected"),
    (_inject_non_integer, "non-integer a-coefficient"),
    (_inject_non_integer_shift, "is not an integer"),
    (_inject_obstruction_mismatch, "!= closed form"),
])
def test_internal_error_exit_one(inject, message, monkeypatch, capsys,
                                 fresh_a_cache):
    code = run(inject(monkeypatch))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert message in captured.err


def test_classify_accept(capsys):
    code, report = run_json(capsys, ["classify", "--n", "3", "--nvec", "3,-2"])
    assert code == 0
    rels = {(r["q"], r["s"]) for r in report["payload"]["relations"]}
    assert rels == {(1, 1), (-1, 1)}


def test_classify_rejection_exit_code(capsys):
    code, report = run_json(capsys, ["classify", "--n", "3", "--nvec", "1,0"])
    assert code == 1
    assert report["status"] == "rejection"
    assert report["payload"]["rejection"]["reason"] == "CommonDifferenceNotUnit"


def test_classify_bad_nvec(capsys):
    assert run(["classify", "--n", "3", "--nvec", "1"]) == 2
    assert run(["classify", "--n", "3", "--nvec", "a,b"]) == 2


def test_traces_invalid_n(capsys):
    assert run(["traces", "--n", "-1"]) == 2


def test_traces_json_roundtrip(capsys):
    code, report = run_json(capsys, ["traces", "--n", "4"])
    assert code == 0
    for row in report["payload"]:
        lam = Partition(row["partition"])
        assert lam.weight == 4
        coeffs = [rational_from_str(c) for c in row["content_poly"]]
        assert Poly(coeffs).is_monic()


def test_traces_csv(capsys):
    assert run(["traces", "--n", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("partition,")
    assert len(out.splitlines()) == 3  # header + two nontrivial rows


def test_classify_search(capsys):
    code, report = run_json(capsys, ["classify-search", "--n", "3", "--bound", "1"])
    assert code == 0
    rels = {(r["relation"]["q"], r["relation"]["s"])
            for r in report["payload"]["relations"]}
    assert (1, 0) in rels and (-1, 0) in rels


def test_iso_obstruction_cmd(capsys):
    code, report = run_json(capsys, ["iso-obstruction", "--n", "3",
                                     "--l-min", "-2", "--l-max", "2"])
    assert code == 0
    for row in report["payload"]["rows"]:
        assert row["nonzero"] == (row["l"] != 0)


def test_unknown_command_exit_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def _write_group(tmp_path, data):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_group_file_valid(tmp_path):
    path = _write_group(tmp_path, {
        "dim": 2,
        "form": [[0, 1], [-1, 0]],
        "generators": [[[-1, 0], [0, -1]]],
    })
    form, gens = parse_group_file(path)
    assert len(form) == 2 and len(gens) == 1


def test_parse_group_file_string_rationals(tmp_path):
    from fractions import Fraction
    path = _write_group(tmp_path, {
        "dim": 2,
        "form": [[0, "1/3"], ["-1/3", 0]],
        "generators": [],
    })
    form, _ = parse_group_file(path)
    assert form[0][1] == Fraction(1, 3)


def test_parse_group_file_odd_dimension(tmp_path):
    path = _write_group(tmp_path, {"dim": 3, "form": [[0] * 3] * 3,
                                   "generators": []})
    with pytest.raises(DimensionOdd):
        parse_group_file(path)


def test_parse_group_file_malformed(tmp_path):
    ragged = _write_group(tmp_path, {"dim": 2, "form": [[0, 1], [-1]],
                                     "generators": []})
    with pytest.raises(MalformedFile):
        parse_group_file(ragged)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedFile):
        parse_group_file(str(bad))
    floats = _write_group(tmp_path, {"dim": 2, "form": [[0, 0.5], [-0.5, 0]],
                                     "generators": []})
    with pytest.raises(MalformedFile):
        parse_group_file(floats)


def test_hp0_command(tmp_path, capsys):
    path = _write_group(tmp_path, {
        "dim": 2,
        "form": [[0, 1], [-1, 0]],
        "generators": [[[-1, 0], [0, -1]]],
    })
    code, report = run_json(capsys, ["hp0", "--group", path,
                                     "--max-degree", "6", "--dual-check"])
    assert code == 0
    graded = report["payload"]["graded"]
    assert graded["dims"]["0"] == 1
    assert graded["total_up_to_cutoff"] == 1
    assert report["payload"]["dual_check"]["pass"]


def test_hp0_bad_file_exit_two(tmp_path):
    bad = tmp_path / "nope.json"
    assert run(["hp0", "--group", str(bad), "--max-degree", "2"]) == 2
