"""Benchmark of the morita command line: three workloads through cli.run.

Usage:
    python3 bench/run.py --workload {tables,classify,hp0} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src and
nothing needs building.  The load is a closed loop with one client: one
request in flight, sent from this process to a request server
(bench/worker.py), which forks a fresh process per request so that every
request starts with cold module caches, as a fresh ``morita``
invocation does.  Each request's exit code and stdout digest are
checked against bench/expected.json, recorded when the benchmark was
defined (bench/record.py).

The seed picks the order of each pass over the fixed catalogue (see
catalogue.py).  A run sends whole passes until --seconds have passed
and at least MIN_SAMPLES requests were sent, so every request is sent
equally often and the 75th percentile has at least ten samples beyond
it.

The host this runs on is shared: for fractions of a second to minutes
at a time the same work runs up to twice as slow while neighbours load
the same cores.  Every time the benchmark reports is therefore measured
next to a fixed reference probe (probe.py) run in the same process
before, during and after the timed work, and scaled to the reference
speed at which the probe takes probe.PROBE_REF_S: a reported
millisecond is about a millisecond on the unloaded host.  The scaling cancels
the host's slow spells and keeps the program's own cost, which the
probe does not share.

With --trace 0 the last stdout line carries the end-to-end metrics,
all times at the reference speed:
    setup_s         median time to generate the inputs and group files,
                    load the expected outputs and start the request
                    server, over SETUP_REPEATS set-ups spread over the
                    run
    throughput_rps  requests completed per second of time inside
                    cli.run, by one closed-loop client
    latency_p50_ms, latency_p75_ms
                    Harrell-Davis estimates of the 50th and 75th
                    percentile of the time inside cli.run per request; a
                    failed request counts as the request timeout
    ok_ratio        requests that passed the check over requests sent
                    (1 - error ratio; the error ratio itself is 0 on a
                    good run, and failed/attempted are in the result)
    peak_rss_mb     largest peak RSS of a request process

With --trace 1 every request of the full catalogue is sent once to a
plain server and once to a server with span wrappers (spans.py), in
alternating order, and the last line carries the per-layer metrics
per pass over the catalogue: ``<layer>.<fn>.calls`` and ``.total_s``,
``<layer>.self_s`` (times at the reference speed), three
useful-over-attempted ratios (their bases are the ``.calls`` of the
function named in spans.RATIOS), and ``trace_overhead``, the traced
over the plain throughput, from the time inside cli.run.

The line before the last one records the Python version, git SHA (when
the checkout has one), a digest of src/, nproc, seed and sample counts.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

import catalogue
import probe
import spans
from worker import REQUEST_TIMEOUT_S

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
SETUP_REPEATS = 15
MIN_SAMPLES = 40
MAX_RUN_S = 120.0


class Worker:
    """Client side of one request server process."""

    def __init__(self, trace):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), ROOT, str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        ready = json.loads(line) if line else {}
        if not ready.get("ready"):
            self.close()
            raise RuntimeError("request server failed to start")
        self.probe_s = ready["probe_s"]

    def request(self, argv):
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("request server exited")
        return json.loads(line)

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REQUEST_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check(expected, result):
    """None when the result matches its expectation, else the reason."""
    if "crash" in result:
        return "crashed: %s" % result["crash"].strip().splitlines()[-1]
    if result["exit"] != expected["exit"]:
        return "exit code %d, expected %d" % (result["exit"], expected["exit"])
    if result["stdout_sha256"] != expected["stdout_sha256"]:
        return "stdout differs from the recorded output"
    return None


def setup(workload, workdir, modes):
    """Generate the requests and group files, load their expected
    outputs and start one request server per tracing mode."""
    requests = catalogue.materialise(catalogue.full_catalogue(workload), workdir)
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    missing = [r["key"] for r in requests if r["key"] not in expected]
    if missing:
        raise RuntimeError("no expected output for %s" % ", ".join(missing))
    argv = {r["key"]: r["argv"] for r in requests}
    workers = []
    try:
        for trace in modes:
            workers.append(Worker(trace))
    except BaseException:
        for w in workers:
            w.close()
        raise
    return argv, expected, workers


def timed_setup(workload, tmp, modes):
    """One set-up in a fresh directory under tmp, and its duration at
    the reference speed."""
    workdir = tempfile.mkdtemp(prefix="setup", dir=tmp)
    probes = [probe.probe() for _ in range(probe.EDGE_PROBES)]
    start = time.perf_counter()
    argv, expected, workers = setup(workload, workdir, modes)
    elapsed = time.perf_counter() - start
    probes += [probe.probe() for _ in range(probe.EDGE_PROBES)]
    # starting the request servers is most of the set-up, so their own
    # probes count as much as the ones run here
    mean_probe_s = statistics.mean([statistics.mean(probes)] + [w.probe_s for w in workers])
    return elapsed * probe.scale(mean_probe_s), argv, expected, workers


def setup_again(workload, tmp):
    """Duration of one more set-up, whose request server is stopped again."""
    setup_s, _, _, workers = timed_setup(workload, tmp, (False,))
    for w in workers:
        w.close()
    return setup_s


def _betacf(a, b, x):
    # continued fraction for the incomplete beta function (modified Lentz)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return h


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights.  The workloads mix requests of very different cost, so one
    order statistic jumps between request types from run to run; the
    weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def measure(workload, seed, seconds, argv, expected, worker, first_setup_s, again):
    """Send whole passes and time SETUP_REPEATS set-ups in all (the
    first took first_setup_s; ``again()`` times one more), spread evenly
    over the run."""
    passes = catalogue.passes(workload, seed)
    setup_s = [first_setup_s]
    latencies, rss_kb, failures = [], [], []
    npasses = 0
    start = time.perf_counter()
    elapsed = 0.0
    # whole passes keep the request mix the same in every run
    while elapsed < MAX_RUN_S and (elapsed < seconds or len(latencies) < MIN_SAMPLES):
        for req in next(passes):
            if (len(setup_s) < SETUP_REPEATS
                    and elapsed >= seconds * len(setup_s) / SETUP_REPEATS):
                setup_s.append(again())
            result = worker.request(argv[req["key"]])
            failure = check(expected[req["key"]], result)
            if failure:
                failures.append({"key": req["key"], "reason": failure})
                latencies.append(REQUEST_TIMEOUT_S)
            else:
                rss_kb.append(result["peak_rss_kb"])
                latencies.append(result["latency_s"] * probe.scale(result["probe_s"]))
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_RUN_S:
                break
        else:
            npasses += 1
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(again())
    attempted = len(latencies)
    ok = attempted - len(failures)
    latencies_ms = [t * 1000.0 for t in latencies]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_rps": (ok / sum(latencies), "1/s"),
        "latency_p50_ms": (quantile(latencies_ms, 0.50), "ms"),
        "latency_p75_ms": (quantile(latencies_ms, 0.75), "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (max(rss_kb, default=0) / 1024.0, "MB"),
    }
    info = {"passes": npasses, "pass_size": len(catalogue.full_catalogue(workload)),
            "samples": attempted, "samples_beyond_p75": attempted - int(0.75 * attempted),
            "seconds_measured": elapsed}
    return metrics, attempted, failures, info


def measure_traced(workload, seed, seconds, argv, expected, plain, traced):
    order = list(catalogue.full_catalogue(workload))
    random.Random("%s:%d:trace" % (workload, seed)).shuffle(order)
    busy = {False: 0.0, True: 0.0}
    calls = dict.fromkeys(spans.FUNCTIONS, 0)
    total_s = dict.fromkeys(spans.FUNCTIONS, 0.0)
    self_s = dict.fromkeys(spans.LAYERS, 0.0)
    counts = {}
    failures = []
    attempted = traced_done = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < seconds and elapsed < MAX_RUN_S:
        for i, req in enumerate(order):
            # alternate which server goes first, so drift hits both alike
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                result = (traced if is_traced else plain).request(argv[req["key"]])
                attempted += 1
                failure = check(expected[req["key"]], result)
                if failure:
                    failures.append({"key": req["key"], "traced": is_traced,
                                     "reason": failure})
                    continue
                scale = probe.scale(result["probe_s"])
                busy[is_traced] += result["latency_s"] * scale
                if is_traced:
                    traced_done += 1
                    summary = result["trace"]
                    for name in spans.FUNCTIONS:
                        calls[name] += summary["calls"][name]
                        total_s[name] += summary["total_s"][name] * scale
                    for layer in spans.LAYERS:
                        self_s[layer] += summary["self_s"][layer] * scale
                    for key, value in summary["counts"].items():
                        counts[key] = counts.get(key, 0) + value
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_RUN_S:
                break
    npasses = max(traced_done, 1) / len(order)

    def per_pass(value):
        value /= npasses
        return int(value) if value.is_integer() else value

    metrics = {}
    for name in spans.FUNCTIONS:
        metrics[name + ".calls"] = (per_pass(calls[name]), "count")
        metrics[name + ".total_s"] = (total_s[name] / npasses, "s")
    for layer in spans.LAYERS:
        metrics[layer + ".self_s"] = (self_s[layer] / npasses, "s")
    for ratio, (useful, base) in spans.RATIOS.items():
        metrics[ratio] = (counts.get(useful, 0) / calls[base] if calls[base] else 0.0,
                          "ratio")
    metrics["trace_overhead"] = (busy[False] / busy[True], "ratio")
    info = {"passes": npasses, "pass_size": len(order), "samples": attempted,
            "seconds_measured": elapsed}
    return metrics, attempted, failures, info


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=catalogue.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "morita", "cli.py")):
        print("error: no morita sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    traced = bool(args.trace)
    modes = (False, True) if traced else (False,)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        setup_s, req_argv, expected, workers = timed_setup(args.workload, tmp, modes)
        try:
            if traced:
                metrics, attempted, failures, info = measure_traced(
                    args.workload, args.seed, args.seconds, req_argv, expected, *workers)
            else:
                metrics, attempted, failures, info = measure(
                    args.workload, args.seed, args.seconds, req_argv, expected, workers[0],
                    setup_s, lambda: setup_again(args.workload, tmp))
        finally:
            for w in workers:
                w.close()

    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "python": platform.python_version(), "git_sha": _git_sha(),
                 "src_sha256": _src_sha256(), "nproc": os.cpu_count(),
                 "known_failures": [k for k in catalogue.KNOWN_FAILURES
                                    if k in req_argv],
                 "failures": failures[:20]})
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
