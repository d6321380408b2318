"""Command line front end.

Exit codes are a contract: 0 when every asserted identity held, 1 on a
verification failure, a rejected classification or an internal error
(a failed internal consistency check, or a TypeError or ZeroDivisionError
out of program code), 2 on usage or input errors.
Reports go to stdout as JSON (CSV where tabular).
"""

import argparse
import csv
import io
import json
import re
import sys

from . import classify, poisson, traces
from .exact import rational
from .partitions import gamma_star


class MalformedFile(ValueError):
    pass


class DimensionOdd(ValueError):
    pass


def _report(command, status, payload, diagnostics=()):
    return {"command": command, "status": status, "payload": payload,
            "diagnostics": list(diagnostics)}


def _emit_json(report):
    print(json.dumps(report, indent=2))


def _emit_csv(rows, fieldnames):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames)
    w.writeheader()
    for row in rows:
        w.writerow({k: json.dumps(v) if isinstance(v, (list, dict)) else v
                    for k, v in row.items()})
    sys.stdout.write(buf.getvalue())


def _cmd_traces(args):
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    rows = traces.trace_table(args.n)
    if args.format == "csv":
        _emit_csv(rows, ["partition", "dim", "content_poly", "g", "a"])
    else:
        _emit_json(_report("traces", "pass", rows))
    return 0


def _verify_divisibility(max_n):
    failures = []
    for n in range(2, max_n + 1):
        for lam in gamma_star(n):
            for k, a in enumerate(traces.a_coefficients(lam, n), start=1):
                if a % (n * (n - 1)) != 0:
                    failures.append({"n": n, "partition": lam.to_json(),
                                     "k": k, "a": a})
    return failures


def _verify_sum_identity(max_n):
    return [{"n": n} for n in range(2, max_n + 1)
            if not traces.verify_sum_identity(n)]


def _verify_triangularity(max_n):
    failures = []
    for n in range(2, max_n + 1):
        mat = classify.hook_matrix(n)
        for m in range(1, n):
            row = mat[m - 1]
            if any(row[k - 1] != 0 for k in range(1, m)) or row[m - 1] == 0:
                failures.append({"n": n, "m": m, "row": row})
        inverse = classify.invert_hook_matrix(n)
        failures.extend({"n": n, "k": k, "error": "hook-basis recombination failed"}
                        for k in classify.recombination_failures(n, inverse))
    return failures


def _verify_routes(max_n):
    failures = []
    for n in range(2, max_n + 1):
        for lam in gamma_star(n):
            try:
                traces.check_routes(lam, n)
            except (traces.RouteDisagreement, traces.NonIntegerCoefficient) as e:
                failures.append({"n": n, "partition": lam.to_json(),
                                 "error": str(e)})
    return failures


_VERIFY_CHECKS = {
    "divisibility": _verify_divisibility,
    "sum-identity": _verify_sum_identity,
    "triangularity": _verify_triangularity,
    "routes": _verify_routes,
}


def _cmd_verify(args):
    if args.max_n < 2:
        raise ValueError("--max-n must be at least 2")
    failures = _VERIFY_CHECKS[args.check](args.max_n)
    status = "pass" if not failures else "fail"
    _emit_json(_report("verify %s" % args.check, status,
                       {"max_n": args.max_n, "failures": failures}))
    return 0 if not failures else 1


def _parse_nvec(s, n):
    values = [int(x) for x in s.split(",")] if s else []
    return classify.KTheoryVector.from_list(n, values)


def _cmd_classify(args):
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    try:
        v = _parse_nvec(args.nvec, args.n)
    except ValueError as e:
        raise ValueError("bad --nvec: %s" % e)
    result = classify.derive_relation(args.n, v)
    if isinstance(result, classify.Rejection):
        _emit_json(_report("classify", "rejection",
                           {"n": args.n, "nvec": v.to_json(),
                            "rejection": result.to_json()}))
        return 1
    rels = sorted(result, key=lambda r: (-r.q, r.s))
    _emit_json(_report("classify", "pass",
                       {"n": args.n, "nvec": v.to_json(),
                        "relations": [r.to_json() for r in rels]}))
    return 0


def _cmd_classify_search(args):
    if args.n < 2 or args.bound < 0:
        raise ValueError("need --n >= 2 and --bound >= 0")
    found = classify.search_relations(args.n, args.bound)
    payload = {"n": args.n, "bound": args.bound,
               "gamma_star_order": [lam.to_json() for lam in gamma_star(args.n)],
               "relations": [{"relation": rel.to_json(),
                              "witnesses": [v.to_json() for v in vs]}
                             for rel, vs in sorted(found.items(),
                                                   key=lambda kv: (-kv[0].q, kv[0].s))]}
    _emit_json(_report("classify-search", "pass", payload))
    return 0


def _cmd_iso_obstruction(args):
    if args.n < 2 or args.l_min > args.l_max:
        raise ValueError("need --n >= 2 and --l-min <= --l-max")
    rows = []
    ok = True
    for l in range(args.l_min, args.l_max + 1):
        for sign in (1, -1):
            value = classify.iso_obstruction(args.n, l, sign)
            nonzero = value != 0
            if (l != 0) != nonzero:
                ok = False
            rows.append({"l": l, "sign": sign, "value": str(value),
                         "nonzero": nonzero})
    _emit_json(_report("iso-obstruction", "pass" if ok else "fail",
                       {"n": args.n, "rows": rows}))
    return 0 if ok else 1


_RATIONAL_STR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_group_file(path):
    """Read a symplectic group action description from JSON.

    Expected shape: {"dim": 2d, "form": [[..]], "generators": [[[..]]]}
    with entries given as integers or exact "p/q" strings (q nonzero).
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError covers JSON and encoding errors
        raise MalformedFile("cannot read group file: %s" % e)

    def entry(x):
        if type(x) is int or isinstance(x, str) and _RATIONAL_STR.fullmatch(x):
            try:
                return rational(x)
            except (ValueError, ZeroDivisionError):  # too many digits, or q = 0
                pass
        raise MalformedFile("non-rational entry: %r" % (x,))

    def matrix(m, dim):
        if not isinstance(m, list) or len(m) != dim \
                or any(not isinstance(r, list) or len(r) != dim for r in m):
            raise MalformedFile("ragged or mis-sized matrix")
        return [[entry(x) for x in row] for row in m]

    if not isinstance(data, dict) or "dim" not in data or "form" not in data:
        raise MalformedFile("group file needs dim, form, generators")
    dim = data["dim"]
    if not isinstance(dim, int) or dim <= 0:
        raise MalformedFile("dim must be a positive integer")
    if dim % 2:
        raise DimensionOdd("symplectic dimension must be even, got %d" % dim)
    form = matrix(data["form"], dim)
    generators = data.get("generators", [])
    if not isinstance(generators, list):
        raise MalformedFile("generators must be a list of matrices")
    return form, [matrix(g, dim) for g in generators]


def _cmd_hp0(args):
    if args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    form, generators = parse_group_file(args.group)  # input errors exit 2 in run()
    action = poisson.close_group(generators, form)
    graded = poisson.hp0_dims(action, args.max_degree)
    payload = {"group_order": action.order, "graded": graded.to_json()}
    status = "pass"
    if args.dual_check:
        dual = poisson.duality_check(action, graded)
        payload["dual_check"] = dual
        if not dual["pass"]:
            status = "fail"
    _emit_json(_report("hp0", status, payload))
    return 0 if status == "pass" else 1


def build_parser():
    p = argparse.ArgumentParser(prog="morita",
                                description="Exact trace, classification and "
                                            "Poisson homology computations")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("traces", help="trace table for one n")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--format", choices=["json", "csv"], default="json")
    t.set_defaults(func=_cmd_traces)

    v = sub.add_parser("verify", help="identity suites")
    v.add_argument("check", choices=sorted(_VERIFY_CHECKS))
    v.add_argument("--max-n", type=int, default=8)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("classify", help="relations for one data vector")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--nvec", type=str, required=True,
                   help="comma-separated integers in canonical order "
                        "(descending lexicographic, trivial omitted)")
    c.set_defaults(func=_cmd_classify)

    s = sub.add_parser("classify-search", help="exhaustive box search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--bound", type=int, required=True)
    s.set_defaults(func=_cmd_classify_search)

    o = sub.add_parser("iso-obstruction", help="shift obstruction values")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--l-min", type=int, required=True)
    o.add_argument("--l-max", type=int, required=True)
    o.set_defaults(func=_cmd_iso_obstruction)

    h = sub.add_parser("hp0", help="graded bracket-quotient dimensions")
    h.add_argument("--group", type=str, required=True)
    h.add_argument("--max-degree", type=int, required=True)
    h.add_argument("--dual-check", action="store_true")
    h.set_defaults(func=_cmd_hp0)

    return p


def _attach_nvec(argv):
    """`--nvec VALUE` as `--nvec=VALUE`: --nvec always takes the next token
    as its value, also when it starts with a minus (`--nvec -1,2`), which
    argparse would otherwise read as an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--nvec":
            value = next(tokens, None)
            if value is not None:
                token = "--nvec=" + value
        out.append(token)
    return out


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_nvec(argv))
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except (AssertionError, TypeError, ZeroDivisionError) as e:  # bugs, not bad input
        print("internal error: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:  # malformed input must not crash the process
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
