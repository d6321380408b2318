"""Every function in src/morita is reached by a command or named below.

One fresh interpreter (no lru_cache warm from earlier tests) runs
`cli.run` in-process under `sys.setprofile` on every golden command line
(tests/golden/cases.json, group files resolved as CI resolves them), on
`--help` and each command's `--help`, and on one usage error.  It
reports every code object of the package that ran, as (file,
co_firstlineno, co_name).  An `ast` walk of src/morita/*.py finds every
`def`, methods and nested functions included; a decorated def's code
object starts at its first decorator.  (`co_qualname` would name the
code objects directly, but Python 3.10 lacks it.)

A dunder is protocol, called by the language and exempt.  Every other
function that no command reaches is listed in EXEMPT with one of the
REASONS, and an entry names a function that exists and is not reached.
To add a function to the package, call it from a command (a golden that
reaches it pins it), or list it here with its reason.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

from morita import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "morita")
GOLDEN = os.path.join(ROOT, "tests", "golden")

PAPER_API = "paper API"
BENCHMARK_TARGET = "benchmark target"
ENTRY_POINT = "entry point"
VALIDATES_INPUT = "validates Partition(...) input"
ITEM_8 = "ROADMAP item 8"
REASONS = {PAPER_API, BENCHMARK_TARGET, ENTRY_POINT, VALIDATES_INPUT, ITEM_8}

# module.qualname -> why it stays in the package though no command reaches it
EXEMPT = {
    # the quantities the paper names; only the tests call them
    "traces.g_function": PAPER_API,
    "traces.chi_H": PAPER_API,
    "traces.chi_B": PAPER_API,
    "traces.morita_phi_factor": PAPER_API,
    "classify.remark_identity_check": PAPER_API,
    "partitions.kostka": PAPER_API,
    "partitions.schur_eval_ones": PAPER_API,
    "poisson.symmetric_group_action": PAPER_API,
    "poisson.standard_form": PAPER_API,
    # bench/spans.py traces it: it leaves with a change to the benchmark
    "polynomials.MultiPoly.substitute": BENCHMARK_TARGET,
    # the console script `morita` calls it; the tests call cli.run
    "cli.main": ENTRY_POINT,
    # the package builds its partitions with Partition._from_parts
    "partitions._part": VALIDATES_INPUT,
    # test-only code that moves into the tests with the benchmark change
    "polynomials._unit": ITEM_8,
    "polynomials.MultiPoly._raw": ITEM_8,
    "polynomials.MultiPoly.variable": ITEM_8,
    "polynomials.MultiPoly.monomial": ITEM_8,
    "polynomials.MultiPoly.constant": ITEM_8,
    "polynomials.MultiPoly.is_zero": ITEM_8,
    "polynomials.MultiPoly.diff": ITEM_8,
    "polynomials._add_product": ITEM_8,
    "polynomials._Packing.unpack": ITEM_8,
}

# Runs in the child: reads [argv, ...] on stdin, runs each through
# cli.run with stdout and stderr captured, and prints the exit codes and
# the (file, first line, name) of every code object under the package
# directory (argv[1]) that was called.
_SCAN = r"""
import io, json, os, sys

package = os.path.realpath(sys.argv[1])
commands = json.load(sys.stdin)
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


stdout, stderr = sys.stdout, sys.stderr
sys.setprofile(profile)
from morita import cli
codes = []
for argv in commands:
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    codes.append(cli.run(argv))
sys.setprofile(None)
sys.stdout, sys.stderr = stdout, stderr
places = sorted({(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
                 for c in called})
json.dump({"package": os.path.realpath(os.path.dirname(cli.__file__)),
           "codes": codes,
           "called": [p for p in places if os.path.dirname(p[0]) == package]},
          sys.stdout)
"""


def _commands():
    """(argv, expected exit code) of every command line the scan runs."""
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    commands = [([os.path.join(GOLDEN, a) if a.endswith(".json") else a
                  for a in case["argv"]], case["exit"])
                for _, case in sorted(cases.items())]
    commands.append((["--help"], 0))
    commands += [([name, "--help"], 0) for name in sorted(cli._COMMANDS)]
    commands.append((["traces", "--n", "x"], 2))
    return commands


def _scan(commands):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _SCAN, PACKAGE],
                          input=json.dumps([argv for argv, _ in commands]),
                          capture_output=True, text=True, encoding="utf-8",
                          timeout=120, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _defs():
    """module.qualname -> (file, first line, name) of every def in the
    package, methods and nested functions included."""
    found = {}

    def walk(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found[module + "." + qualname] = (path, first, child.name)
                walk(child, module, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".")
            else:
                walk(child, module, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, name))
            with open(path, "rb") as fh:
                tree = ast.parse(fh.read(), path)
            walk(tree, name[:-3], path, "")
    return found


def _dunder(qualname):
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _benchmark_targets():
    """module.qualname of each function bench/spans.py traces, as it is
    defined (a target named through a re-export resolves to its owner)."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = set()
    for _, module_name, qual in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in qual.split("."):
            owner = getattr(owner, part)
        targets.add("%s.%s" % (owner.__module__.rpartition(".")[2], owner.__qualname__))
    return targets


def test_every_function_is_reached_or_exempt():
    commands = _commands()
    scan = _scan(commands)
    assert scan["package"] == os.path.realpath(PACKAGE)
    # every command ran to its recorded exit, so the scan saw all of it
    assert scan["codes"] == [code for _, code in commands]
    called = {tuple(place) for place in scan["called"]}
    defs = _defs()
    reached = {name for name, place in defs.items() if place in called}
    unreached = sorted(name for name in defs
                       if name not in reached and not _dunder(name)
                       and name not in EXEMPT)
    assert not unreached, "no command reaches, and EXEMPT does not list: %s" % unreached
    stale = sorted(name for name in EXEMPT if name not in defs or name in reached)
    assert not stale, "EXEMPT lists a function that is reached or not defined: %s" % stale


def test_exempt_reasons():
    assert set(EXEMPT.values()) <= REASONS, set(EXEMPT.values()) - REASONS
    targets = _benchmark_targets()
    untraced = sorted(name for name, reason in EXEMPT.items()
                      if reason == BENCHMARK_TARGET and name not in targets)
    assert not untraced, "bench/spans.py TARGETS does not name: %s" % untraced
