"""Self-test of the benchmark's output check.

Usage: python3 bench/selftest.py   (exit code 0 when every case holds)

For one request per workload it shows that the request, sent through a
request server, passes the check against bench/expected.json, and that
the check flags the same request's output with one stdout character
changed, with a wrong exit code and as a crash.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import catalogue
import run
from worker import digest


def _stdout_of(argv):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from morita import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def main():
    with open(run.EXPECTED_PATH) as fh:
        expected = json.load(fh)
    errors = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        worker = run.Worker(trace=False)
        try:
            for workload in catalogue.WORKLOADS:
                req = catalogue.materialise(catalogue.full_catalogue(workload)[:1], tmp)[0]
                want = expected[req["key"]]
                served = worker.request(req["argv"])
                code, stdout = _stdout_of(req["argv"])
                flipped = stdout[:-2] + ("x" if stdout[-2] != "x" else "y") + stdout[-1:]
                cases = [
                    ("served", served, True),
                    ("in process", {"exit": code, "stdout_sha256": digest(stdout)}, True),
                    ("corrupted stdout", {"exit": code, "stdout_sha256": digest(flipped)}, False),
                    ("wrong exit code", dict(served, exit=served["exit"] + 1), False),
                    ("crash", {"crash": "Traceback ...\nRuntimeError: boom"}, False),
                ]
                for name, result, should_pass in cases:
                    reason = run.check(want, result)
                    ok = (reason is None) == should_pass
                    print("%-4s %-8s %-18s %s" % ("ok" if ok else "FAIL", workload, name,
                                                  reason or "passes"))
                    if not ok:
                        errors.append((workload, name))
        finally:
            worker.close()
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
