"""Record the expected output of every catalogue request.

Usage: python3 bench/record.py

Runs each request of every workload twice, each time in a fresh process,
and writes bench/expected.json: exit code and stdout SHA-256 per request
key.  It refuses to record a request that crashes or whose two outputs
differ, and it never rewrites an entry that is already recorded: it
fails instead when the program's output for that request has changed,
so the file keeps the outputs of the commit that defined the benchmark.
"""

import json
import sys
import tempfile

import catalogue
import run


def main():
    try:
        with open(run.EXPECTED_PATH) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    expected = {}
    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        worker = run.Worker(trace=False)
        try:
            for workload in catalogue.WORKLOADS:
                for req in catalogue.materialise(catalogue.full_catalogue(workload), tmp):
                    first, second = (worker.request(req["argv"]) for _ in range(2))
                    if "crash" in first or "crash" in second:
                        problems.append("%s crashed" % req["key"])
                        continue
                    outcome = {"exit": first["exit"],
                               "stdout_sha256": first["stdout_sha256"]}
                    if outcome != {"exit": second["exit"],
                                   "stdout_sha256": second["stdout_sha256"]}:
                        problems.append("%s is not deterministic" % req["key"])
                    if recorded.get(req["key"], outcome) != outcome:
                        problems.append("%s differs from its recorded output" % req["key"])
                    expected[req["key"]] = outcome
        finally:
            worker.close()
    for key in catalogue.KNOWN_FAILURES:
        if expected.get(key, {}).get("exit") != 1:
            problems.append("%s no longer exits 1" % key)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d requests in %s" % (len(expected), run.EXPECTED_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
