"""The benchmark's span targets still name functions of the package.

bench/spans.py wraps each (module, qualified name) in its TARGETS and
looks the function up in its owner's ``__dict__``; a rename or removal
in the package makes the traced benchmark worker crash at start.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _spans():
    # loaded by path, so that bench/ does not go on sys.path; install()
    # is not called here, as it rebinds the package's module globals
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  os.path.join(BENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_its_owner():
    targets = _spans().TARGETS
    assert targets
    for layer, module_name, qual in targets:
        owner = importlib.import_module(module_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, (module_name, qual)
        assert callable(owner.__dict__[attr]), (module_name, qual)


def test_traced_worker_reaches_ready():
    # install() runs in a separate process, which then reads an empty stdin
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), ROOT, "1"],
                          input="", capture_output=True, text=True, encoding="utf-8",
                          timeout=60, cwd=BENCH, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["ready"] is True
