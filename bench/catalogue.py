"""Fixed request catalogues for the three benchmark workloads.

A workload is a fixed list of requests.  One pass of a workload sends
every request of its catalogue once; the seed picks the order of the
requests inside each pass.  Every run therefore does the same mix of
work whatever the seed, and every request is sent once per pass, so a
run measures each request several times at different moments.

Every request has a stable key; ``expected.json`` maps each key to the
exit code and stdout digest that the program produced when the
benchmark was defined.

Which end-to-end metric a faster layer should move:
  - poisson (invariant_basis, substitute) and linalg.rref: hp0
    throughput and latency; linalg moves tables only slightly, through
    invert_hook_matrix.
  - exact.rational_roots: classify p75 latency and throughput (the
    |f(0)| ~ 1e6..1e7 rejections), and tables a little, through
    partial_fractions.
  - traces.a_coefficients and partitions: tables throughput and peak
    RSS; barely classify (a_coefficients is cached within a request);
    not hp0, which never calls them.
  - classify (derive_relation, build_f, search_relations): classify
    throughput.
  - cli self time: classify p50 latency, where requests are smallest.
"""

import json
import os
import random

WORKLOADS = ("tables", "classify", "hp0")

# Requests whose expected output is a verification failure (exit 1,
# "status": "fail").  S_3 on h + h*: at degree 2 the bracket quotient
# has dimension 0 while the dual functional count is 1.
KNOWN_FAILURES = ("hp0-s3-d2-dual", "hp0-s3-d3-dual")

# Accepted data vectors (unit-step root progressions), found by box search.
_WITNESSES = {
    3: [(0, -1), (0, 0), (3, -5), (3, -2)],
    4: [(0, 0, 0, -1), (0, 0, 0, 0)],
    5: [(0, 0, 0, 0, 0, -1), (0, 0, 0, 0, 0, 0)],
    6: [(0,) * 9 + (-1,), (0,) * 10],
}

# Small vectors that are rejected.
_REJECTED = {
    3: [(1, 0), (2, 1), (-1, 2)],
    4: [(1, 0, 0, 0), (0, 1, -1, 0), (2, 0, 0, 1)],
    5: [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, -1, 0)],
    6: [(1,) + (0,) * 9, (0, 0, 0, 1, 0, 0, 0, 0, 0, 2)],
}

# Vectors whose f has no integer root and |f(0)| near 1e5, 1e6 and 1e7, so
# rational_roots scans every divisor candidate up to |f(0)|.
_LARGE = {
    "1e5": [(16666, -3), (1, -2, -3, 8335), (2, 2, 1, 827, 1, 1),
            (3, 2, -2, -3, 1, 1, 2, -2, 204, -3)],
    "1e6": [(166666, 1), (0, -3, -2, 83337), (-3, -2, 8334, 1, 3, -2),
            (0, 1, 0, 1670, -1, -2, 3, -2, 2, 3)],
    "1e7": [(1666666, 1), (-3, 833340, 1, -3), (0, -2, 1, -3, 83337, -1),
            (-3, 9261, -1, 1, 0, -1, 2, 0, -1, 1)],
}


def _req(key, *argv, group=None):
    return {"key": key, "argv": list(argv), "group": group}


def _classify_req(key, vec):
    n = {2: 3, 4: 4, 6: 5, 10: 6}[len(vec)]  # one coordinate per partition but (n)
    # one token, so a leading minus sign is not read as an option
    return _req(key, "classify", "--n", str(n),
                "--nvec=" + ",".join(str(x) for x in vec))


def _tables():
    reqs = [_req("traces-n%d-%s" % (n, fmt), "traces", "--n", str(n),
                 *(("--format", "csv") if fmt == "csv" else ()))
            for n, fmt in ((8, "json"), (9, "csv"), (10, "json"), (11, "csv"),
                           (12, "json"))]
    # every check at two or more of --max-n 8..11, so a pass stays short
    for check, sizes in (("divisibility", (9, 11)), ("sum-identity", (8, 9, 10, 11)),
                         ("triangularity", (8, 10)), ("routes", (9, 11))):
        reqs += [_req("verify-%s-n%d" % (check, m), "verify", check, "--max-n", str(m))
                 for m in sizes]
    return reqs


def _classify():
    reqs = []
    for n in range(3, 7):
        reqs += [_classify_req("classify-accept-n%d-%d" % (n, i), v)
                 for i, v in enumerate(_WITNESSES[n])]
    for n in range(3, 7):
        reqs += [_classify_req("classify-reject-n%d-%d" % (n, i), v)
                 for i, v in enumerate(_REJECTED[n])]
    for size, vecs in _LARGE.items():
        reqs += [_classify_req("classify-large%s-n%d" % (size, n), v)
                 for n, v in zip(range(3, 7), vecs)]
    reqs += [_req("search-n%d-b%d" % (n, bound), "classify-search",
                  "--n", str(n), "--bound", str(bound))
             for n, bound in ((3, 6), (4, 2), (5, 1))]
    reqs += [_req("iso-n%d" % n, "iso-obstruction", "--n", str(n),
                  "--l-min", "-3", "--l-max", "3") for n in (3, 4, 5)]
    reqs += [_req("iso-n%d-wide" % n, "iso-obstruction", "--n", str(n),
                  "--l-min", "-10", "--l-max", "10") for n in (6, 7, 8)]
    return reqs


def _hp0_req(group, degree, dual=False):
    key = "hp0-%s-d%d%s" % (group, degree, "-dual" if dual else "")
    argv = ["hp0", "--group", None, "--max-degree", str(degree)]
    if dual:
        argv.append("--dual-check")
    return _req(key, *argv, group=group)


def _hp0():
    # degrees 8..14 spread over the cyclic groups, so a pass stays short
    reqs = [_hp0_req(group, d) for group, degrees in
            (("z3", (8, 11, 14)), ("z4", (9, 12)), ("z6", (10, 13)))
            for d in degrees]
    reqs += [_hp0_req("s3", d) for d in (3, 4, 5)]
    reqs.append(_hp0_req("s4", 2))
    reqs += [_hp0_req("z4", 8, dual=True), _hp0_req("s3", 2, dual=True),
             _hp0_req("s3", 3, dual=True)]
    return reqs


def full_catalogue(workload):
    return {"tables": _tables, "classify": _classify, "hp0": _hp0}[workload]()


def passes(workload, seed):
    """Endless sequence of seeded passes: the whole catalogue, shuffled."""
    rng = random.Random("%s:%d" % (workload, seed))
    reqs = full_catalogue(workload)
    while True:
        batch = list(reqs)
        rng.shuffle(batch)
        yield batch


# --- group files, written from generators only -------------------------

def _cyclic(generator):
    return {"dim": 2, "form": [[0, 1], [-1, 0]], "generators": [generator]}


def _symmetric(n):
    """S_n on its reflection representation plus the dual, generated by
    the adjacent transpositions in the simple-root basis, each acting as
    diag(s, (s^-1)^T) with the canonical pairing as the form."""
    d = n - 1
    gens = []
    for i in range(d):
        s = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
        s[i][i] = -1
        if i > 0:
            s[i - 1][i] = 1
        if i < d - 1:
            s[i + 1][i] = 1
        square = [[sum(s[a][k] * s[k][b] for k in range(d)) for b in range(d)]
                  for a in range(d)]
        if square != [[int(a == b) for b in range(d)] for a in range(d)]:
            raise ValueError("s_%d is not an involution" % (i + 1))
        # s is its own inverse, so (s^-1)^T is s^T
        g = [[0] * (2 * d) for _ in range(2 * d)]
        for a in range(d):
            for b in range(d):
                g[a][b] = s[a][b]
                g[d + a][d + b] = s[b][a]
        gens.append(g)
    form = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        form[i][d + i] = 1
        form[d + i][i] = -1
    return {"dim": 2 * d, "form": form, "generators": gens}


GROUPS = {
    "z3": lambda: _cyclic([[0, -1], [1, -1]]),
    "z4": lambda: _cyclic([[0, -1], [1, 0]]),
    "z6": lambda: _cyclic([[1, -1], [1, 0]]),
    "s3": lambda: _symmetric(3),
    "s4": lambda: _symmetric(4),
}


def materialise(requests, workdir):
    """Write the group files the requests need into workdir and return
    the requests with every group placeholder replaced by its path."""
    paths = {}
    out = []
    for req in requests:
        argv = list(req["argv"])
        group = req["group"]
        if group is not None:
            if group not in paths:
                paths[group] = os.path.join(workdir, "%s.json" % group)
                with open(paths[group], "w") as fh:
                    json.dump(GROUPS[group](), fh)
            argv[argv.index(None)] = paths[group]
        out.append({"key": req["key"], "argv": argv})
    return out
