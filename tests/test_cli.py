import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morita import classify, cli, poisson, traces
from morita.cli import (DimensionOdd, MalformedFile, parse_group_file, run)
from morita.exact import Poly, rational
from morita.partitions import Partition, gamma_star


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


def _inject_type_error(monkeypatch):
    monkeypatch.setattr(traces, "trace_table", _raises(TypeError))
    return ["traces", "--n", "3"]


def _inject_zero_division(monkeypatch):
    monkeypatch.setattr(traces, "trace_table", _raises(ZeroDivisionError))
    return ["traces", "--n", "3"]


def _inject_key_error(monkeypatch):
    monkeypatch.setattr(traces, "trace_table", _raises(KeyError))
    return ["traces", "--n", "3"]


def _inject_index_error(monkeypatch):
    monkeypatch.setattr(classify, "search_relations", _raises(IndexError))
    return ["classify-search", "--n", "3", "--bound", "1"]


def _inject_attribute_error(monkeypatch):
    monkeypatch.setattr(classify, "derive_relation", _raises(AttributeError))
    return ["classify", "--n", "3", "--nvec", "3,-2"]


def _inject_negative_dimension(monkeypatch):
    monkeypatch.setattr(poisson, "bracket_span_dim", lambda action, n, bases: n + 1)
    group = os.path.join(os.path.dirname(__file__), "golden", "z3.json")
    return ["hp0", "--group", group, "--max-degree", "2"]


@pytest.mark.parametrize("inject, message", [
    (_inject_route_disagreement, "injected"),
    (_inject_non_integer, "non-integer a-coefficient"),
    (_inject_non_integer_shift, "is not an integer"),
    (_inject_type_error, "injected"),
    (_inject_zero_division, "injected"),
    (_inject_key_error, "injected"),
    (_inject_index_error, "injected"),
    (_inject_attribute_error, "injected"),
    (_inject_negative_dimension, "bracket span exceeds invariants"),
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
        coeffs = [rational(c) for c in row["content_poly"]]
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


def test_classify_n30_zero_vector(capsys):
    # f = prod_{k=1}^{29} (x + k) has constant term 29!; the root finder
    # must not trial-divide up to sqrt(29!) before trying a root
    zeros = ",".join(["0"] * len(gamma_star(30)))
    code, report = run_json(capsys, ["classify", "--n", "30", "--nvec", zeros])
    assert code == 0
    assert [r["relation"] for r in report["payload"]["relations"]] \
        == ["c = c'", "c = -c' - 1"]


def test_iso_obstruction_cmd(capsys):
    code, report = run_json(capsys, ["iso-obstruction", "--n", "3",
                                     "--l-min", "-2", "--l-max", "2"])
    assert code == 0
    for row in report["payload"]["rows"]:
        assert row["nonzero"] == (row["l"] != 0)


def test_unknown_command_exit_two(capsys):
    for argv in ([], ["frobnicate"], ["--bogus"], ["classify", "--n", "3"],
                 ["traces", "--n", "x"], ["traces", "--n", "3", "--format", "xml"],
                 ["classify", "--n"], ["iso-obstruction", "--n", "3", "--l", "1"],
                 ["verify", "routes", "extra"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        command = argv[0] if argv and argv[0] in cli._COMMANDS else "<command>"
        assert captured.err.startswith("usage: morita %s " % command), argv


def test_run_builds_one_parser():
    # a fresh interpreter, as a `morita` process: running a command never
    # imports argparse (whose first parser cost more than the command)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, %r); from morita import cli; "
            "code = cli.run(['classify', '--n', '3', '--nvec', '3,-2']); "
            "print(code, 'argparse' in sys.modules)" % src)
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_classify_does_not_import_dataclasses():
    # a fresh interpreter, as a `morita` process: the golden classify
    # requests import no dataclasses (with its inspect chain, a cost of
    # every process beyond what cli itself imports)
    src = os.path.join(os.path.dirname(_GOLDEN), os.pardir, "src")
    with open(os.path.join(_GOLDEN, "cases.json")) as fh:
        cases = [c for c in json.load(fh).values() if c["argv"][0] == "classify"]
    assert cases
    code = ("import io, sys; sys.path.insert(0, %r); from morita import cli; "
            "sys.stdout = io.StringIO(); codes = [cli.run(a) for a in %r]; "
            "sys.stdout = sys.__stdout__; print(codes, 'dataclasses' in sys.modules)"
            % (os.path.abspath(src), [c["argv"] for c in cases]))
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "%s False" % [c["exit"] for c in cases]


def test_classify_rejects_a_huge_constant_term_promptly():
    # f = x^2 + (1e18 + 5) x + (1e18 - 2): trial division up to
    # sqrt|f(0)| ran for minutes; a fresh `morita` process now answers,
    # with the exit code of a rejection
    src = os.path.join(os.path.dirname(_GOLDEN), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, %r); from morita import cli; "
            "sys.exit(cli.main())" % os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-I", "-c", code, "classify", "--n", "3",
                           "--nvec=166666666666666666,1"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1, proc.stderr
    rejection = json.loads(proc.stdout)["payload"]["rejection"]
    assert rejection["reason"] == "NonIntegerRoots"
    assert rejection["witness"]["roots_found"] == []
    c, b, one = (int(x) for x in rejection["witness"]["remainder"])
    assert one == 1 and c > 10 ** 17
    # a monic quadratic has an integer root iff its discriminant is a square
    disc = b * b - 4 * c
    assert disc < 0 or math.isqrt(disc) ** 2 != disc


@pytest.mark.parametrize("argv, name, least", [
    (["traces", "--n", "1"], "--n", 2),
    (["verify", "routes", "--max-n", "1"], "--max-n", 2),
    (["classify", "--n", "1", "--nvec="], "--n", 2),
    (["classify-search", "--n", "3", "--bound", "-1"], "--bound", 0),
    (["iso-obstruction", "--n", "1", "--l-min", "0", "--l-max", "0"], "--n", 2),
    (["hp0", "--group", os.path.join(_GOLDEN, "z3.json"), "--max-degree", "-1"],
     "--max-degree", 0),
])
def test_declared_bounds(argv, name, least):
    code, out, err = _run_captured(argv)
    assert (code, out) == (2, "")
    assert err == "error: %s must be at least %d\n" % (name, least)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help(flag):
    code, out, err = _run_captured([flag])
    assert (code, err) == (0, "")
    assert out.startswith("usage: morita")
    for command in ("traces", "verify", "classify", "classify-search",
                    "iso-obstruction", "hp0"):
        assert "\n  %s " % command in out


@pytest.mark.parametrize("argv", [
    *(pytest.param([command, "--help"], id=command) for command in cli._COMMANDS),
    pytest.param(["hp0", "--max-degree", "2", "-h"], id="hp0-after-options"),
])
def test_command_help(argv):
    code, out, err = _run_captured(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: morita %s " % argv[0])
    for name, keywords, _ in cli._COMMANDS[argv[0]][2]:
        assert "\n  %s " % name in out, name
        assert keywords.get("help", "") in out, name


def _oracle_values(argv):
    """The attributes the argparse parser built from the same _COMMANDS
    (the CLI's parser before it read _COMMANDS itself) gives argv, or
    None when that parser rejects it."""
    parser = argparse.ArgumentParser(prog="morita " + argv[0])
    for name, keywords, _ in cli._COMMANDS[argv[0]][2]:
        parser.add_argument(name, **keywords)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv[1:]))
        except SystemExit:
            return None


def _catalogue_argvs(workload):
    # loaded by path, so that bench/ does not go on sys.path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_catalogue", os.path.join(root, "bench", "catalogue.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [["group.json" if a is None else a for a in request["argv"]]
            for request in module.full_catalogue(workload)]


_EDGE_ARGVS = [
    ["traces", "--n=3"],
    ["hp0", "--group", "group.json", "--max", "4"],
    ["traces", "--n", "3", "--format", "csv", "--format", "json"],
    ["iso-obstruction", "--n", "3", "--l-min", "-3", "--l-max", "3"],
    ["classify", "--nv=3,-2", "--n=3"],
    ["classify", "--n", "3", "--nvec", "-1,2"],
    ["classify-search", "--b", "1", "--n", "3", "--n", "4"],
    ["verify", "--max", "3", "--", "routes"],
    ["hp0", "--group=", "--max-degree=2", "--dual-check", "--dual-c"],
    ["traces", "--n", " 3 "], ["traces", "--n", "+3"], ["traces", "--n", "1_0"],
    ["traces"], ["traces", "--n", "x"], ["traces", "--n", "3", "--format", "xml"],
    ["classify", "--n"], ["iso-obstruction", "--n", "3", "--l-max", "1", "--l", "0"],
    ["verify", "routes", "extra"], ["verify"], ["verify", "nope"],
    ["traces", "--n", "3", "-3"], ["traces", "--bogus", "--n", "3"],
    ["traces", "--n", "3", "--help=x"], ["classify-search", "--n", "3", "--bound=1", "-"],
    ["hp0", "--group", "g.json", "--max-degree", "2", "--dual-check=yes"],
]

# the one intended widening: an option's value is the next token even
# when it starts with a minus, which argparse reads only after `=`
_ORACLE_FORM = {("classify", "--n", "3", "--nvec", "-1,2"):
                ["classify", "--n", "3", "--nvec=-1,2"]}


@pytest.mark.parametrize("source", ["golden", "tables", "classify", "hp0", "edge"])
def test_parser_matches_argparse_oracle(source):
    if source == "golden":
        with open(os.path.join(_GOLDEN, "cases.json")) as fh:
            argvs = [case["argv"] for case in json.load(fh).values()]
    elif source == "edge":
        argvs = _EDGE_ARGVS
    else:
        argvs = _catalogue_argvs(source)
    assert argvs
    for argv in argvs:
        expected = _oracle_values(_ORACLE_FORM.get(tuple(argv), argv))
        if expected is None:
            code, out, err = _run_captured(argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage: morita %s " % argv[0]), argv
        else:
            args = cli._parse_args(cli._COMMANDS[argv[0]][2], argv[1:])
            assert vars(args) == expected, argv


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


@pytest.mark.parametrize("generators", [5, None, {"g": [[1, 0], [0, 1]]}, "[]"])
def test_parse_group_file_generators_not_a_list(tmp_path, generators):
    path = _write_group(tmp_path, {"dim": 2, "form": [[0, 1], [-1, 0]],
                                   "generators": generators})
    with pytest.raises(MalformedFile):
        parse_group_file(path)


@pytest.mark.parametrize("bad", ["1/0", "1e4000000", "0.5", "1.", "1e3", " 1",
                                 "1/-2", "inf", "nan", "\u0663", "1" * 5000, True,
                                 None, [1]])
def test_parse_group_file_rejects_entry(tmp_path, bad):
    # integers and "p/q" strings only; decimals and exponents are refused
    # before any arithmetic, so a huge exponent cannot stall the parser
    path = _write_group(tmp_path, {"dim": 2, "form": [[0, bad], [-1, 0]],
                                   "generators": []})
    with pytest.raises(MalformedFile):
        parse_group_file(path)


def _mostly(strategy, other, odds=4):
    """strategy odds - 1 times in odds, other otherwise."""
    return st.integers(1, odds).flatmap(lambda k: strategy if k > 1 else other)


_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON = _LEAF | st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12)
_ENTRY = _mostly(st.integers(-3, 3) | st.fractions(max_denominator=5).map(str)
                 | st.sampled_from(["+1", "-0/7", "12/4"]),
                 st.sampled_from(["1/0", "2e3", "0.5", " 1", "1" * 5000]) | _JSON,
                 odds=16)


def _matrix(dim):
    return _mostly(st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim),
                            min_size=dim, max_size=dim), _JSON)


_GROUP_FILE = _mostly(st.sampled_from([0, 2, 3, 4]).flatmap(
    lambda dim: st.fixed_dictionaries(
        {"dim": _mostly(st.just(dim), _JSON),
         "form": _matrix(dim),
         "generators": _mostly(st.lists(_matrix(dim), max_size=3), _JSON)})), _JSON)


@settings(max_examples=300, deadline=None)
@given(data=_GROUP_FILE)
def test_parse_group_file_fuzz(data):
    # whatever JSON a group file holds, the parser returns matrices or
    # raises one of its two input errors
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        try:
            form, gens = parse_group_file(path)
        except (MalformedFile, DimensionOdd):
            return
    dim = data["dim"]
    for m in [form] + gens:
        assert len(m) == dim and all(len(row) == dim for row in m)
        assert all(type(x) in (int, Fraction) for row in m for x in row)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 5),
       text=st.text(max_size=12)
       | st.lists(st.integers(-30, 30), max_size=7).map(lambda v: ",".join(map(str, v)))
       | st.lists(st.integers(-30, 30) | st.text(max_size=3), min_size=1, max_size=6)
       .map(lambda v: ",".join(map(str, v))))
def test_nvec_fuzz(n, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # `--nvec TEXT` is the same (test_nvec_leading_minus_without_equals)
        code = run(["classify", "--n", str(n), "--nvec=" + text])
    if code == 2:
        assert err.getvalue().startswith("error: bad --nvec")
        assert out.getvalue() == ""
        return
    assert code in (0, 1)
    report = json.loads(out.getvalue())
    assert report["command"] == "classify"
    assert len(report["payload"]["nvec"]) == len(gamma_star(n))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_nvec_length_checked_before_listing_partitions(monkeypatch):
    # p(60) - 1 = 966466 coordinates are expected; the length is compared
    # with that count before any partition of 60 is listed, which took
    # 13.7 s and 261 MB when it came first
    def listing(n):
        raise RuntimeError("gamma_star(%d) listed the partitions" % n)

    monkeypatch.setattr(classify, "gamma_star", listing)
    code, out, err = _run_captured(["classify", "--n", "60", "--nvec", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --nvec: expected 966466 coordinates, got 1")


@pytest.mark.parametrize("n, text", [(3, "-1,2"), (3, "-3,-2"), (3, "-1,0"),
                                     (4, "-1,0,0,0"), (3, "3,-2")])
def test_nvec_leading_minus_without_equals(n, text):
    # `--nvec -1,2` reaches the --nvec parser exactly as `--nvec=-1,2` does
    spaced = _run_captured(["classify", "--n", str(n), "--nvec", text])
    joined = _run_captured(["classify", "--n", str(n), "--nvec=" + text])
    assert spaced == joined
    assert spaced[0] in (0, 1) and json.loads(spaced[1])["payload"]["nvec"]


@pytest.mark.parametrize("text", ["-1,x", "-", "-1", "--1,2", "-1,,2", "-h"])
def test_nvec_malformed_leading_minus(text):
    code, out, err = _run_captured(["classify", "--n", "3", "--nvec", text])
    assert code == 2 and out == ""
    assert err.startswith("error: bad --nvec")


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


def test_hp0_infinite_group_exit_two(tmp_path, capsys):
    # a shear is symplectic but of infinite order: closure stops at the cap
    path = _write_group(tmp_path, {"dim": 2, "form": [[0, 1], [-1, 0]],
                                   "generators": [[[1, 1], [0, 1]]]})
    assert run(["hp0", "--group", path, "--max-degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: group order exceeds cap")
