"""Request server: one forked process per request, with cold caches.

Usage: python3 bench/worker.py ROOT TRACE

Imports the morita package from ROOT/src (with the span wrappers when
TRACE is 1) and then runs nothing of it, so that the process is a clean
template.  For each JSON request line on stdin, ``{"argv": [...]}``, it
forks a child that runs ``morita.cli.run(argv)`` exactly as a fresh
``morita`` invocation would, with empty module caches; the child reports
its exit code, a digest of its stdout, the time spent in ``cli.run``
(without the probes run during it), the mean time of the reference
probes (probe.py) run just before, during (when not tracing) and just
after it, its peak RSS and, when tracing, its span totals.  The server
answers with one JSON line per request.  The first line it writes is
``{"ready": true, "probe_s": ...}`` once the template is prepared, with
the mean time of probes run at the start and the end of preparing it.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback

import probe

REQUEST_TIMEOUT_S = 30.0


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _child(argv, tracer):
    from morita import cli

    out, err = io.StringIO(), io.StringIO()
    edge = [probe.probe() for _ in range(probe.EDGE_PROBES)]
    ticks = []
    if tracer is None:  # probes inside a traced request would count in its spans
        signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(probe.probe()))
        signal.setitimer(signal.ITIMER_REAL, probe.TICK_S, probe.TICK_S)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    edge += [probe.probe() for _ in range(probe.EDGE_PROBES)]
    result = {"exit": code, "stdout_sha256": digest(out.getvalue()),
              "latency_s": elapsed - sum(ticks),
              "probe_s": statistics.mean(edge + ticks),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def _read_all(fd, deadline):
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def serve(argv, tracer):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = _child(argv, tracer)
        except BaseException:  # report any crash, then leave without cleanup
            payload = {"crash": traceback.format_exc()}
            code = 1
        data = json.dumps(payload).encode()
        while data:
            data = data[os.write(wfd, data):]
        os._exit(code)
    os.close(wfd)
    try:
        data = _read_all(rfd, time.monotonic() + REQUEST_TIMEOUT_S)
    finally:
        os.close(rfd)
    if data is None:
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    if data is None:
        return {"crash": "timed out after %.0f s" % REQUEST_TIMEOUT_S}
    if not data:
        return {"crash": "child died with wait status %d" % status}
    return json.loads(data)


def main():
    probes = [probe.probe() for _ in range(probe.EDGE_PROBES)]
    root, trace = sys.argv[1], sys.argv[2] == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import morita.cli

    if not os.path.abspath(morita.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("morita was imported from %s, not from %s" % (morita.__file__, src))
    tracer = None
    if trace:
        import spans
        tracer = spans.install()
    probes += [probe.probe() for _ in range(probe.EDGE_PROBES)]
    gc.collect()
    gc.freeze()
    print(json.dumps({"ready": True, "probe_s": statistics.mean(probes)}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(serve(request["argv"], tracer)), flush=True)


if __name__ == "__main__":
    main()
