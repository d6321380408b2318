"""Command line front end.

Each command is declared once, in _COMMANDS.  Exit codes are a contract,
kept by run() alone: 0 when every asserted identity held, 1 on a
verification failure, a rejected classification or an internal error
(any exception out of program code other than the input errors below,
reported as `internal error: ...`), 2 on usage or input errors (argparse
errors, any ValueError such as a value below its declared least, a bad
--nvec, a malformed group file or a group past the order cap, reported
as `error: ...`).
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
    rows = traces.trace_table(args.n)
    if args.format == "csv":
        _emit_csv(rows, ["partition", "dim", "content_poly", "g", "a"])
        return None
    return _report("traces", "pass", rows)


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
    failures = _VERIFY_CHECKS[args.check](args.max_n)
    return _report("verify %s" % args.check, "fail" if failures else "pass",
                   {"max_n": args.max_n, "failures": failures})


def _parse_nvec(s, n):
    values = [int(x) for x in s.split(",")] if s else []
    return classify.KTheoryVector.from_list(n, values)


def _cmd_classify(args):
    try:
        v = _parse_nvec(args.nvec, args.n)
    except ValueError as e:
        raise ValueError("bad --nvec: %s" % e)
    result = classify.derive_relation(args.n, v)
    if isinstance(result, classify.Rejection):
        return _report("classify", "rejection",
                       {"n": args.n, "nvec": v.to_json(),
                        "rejection": result.to_json()})
    rels = sorted(result, key=lambda r: (-r.q, r.s))
    return _report("classify", "pass",
                   {"n": args.n, "nvec": v.to_json(),
                    "relations": [r.to_json() for r in rels]})


def _cmd_classify_search(args):
    found = classify.search_relations(args.n, args.bound)
    payload = {"n": args.n, "bound": args.bound,
               "gamma_star_order": [lam.to_json() for lam in gamma_star(args.n)],
               "relations": [{"relation": rel.to_json(),
                              "witnesses": [v.to_json() for v in vs]}
                             for rel, vs in sorted(found.items(),
                                                   key=lambda kv: (-kv[0].q, kv[0].s))]}
    return _report("classify-search", "pass", payload)


def _cmd_iso_obstruction(args):
    if args.l_min > args.l_max:
        raise ValueError("need --l-min <= --l-max")
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
    return _report("iso-obstruction", "pass" if ok else "fail",
                   {"n": args.n, "rows": rows})


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
    return _report("hp0", status, payload)


_REQUIRED_INT = {"type": int, "required": True}

# name -> (handler, help line, arguments); each argument is (name,
# argparse keywords, least accepted value or None)
_COMMANDS = {
    "traces": (_cmd_traces, "trace table for one n", [
        ("--n", _REQUIRED_INT, 2),
        ("--format", {"choices": ["json", "csv"], "default": "json"}, None)]),
    "verify": (_cmd_verify, "identity suites", [
        ("check", {"choices": sorted(_VERIFY_CHECKS)}, None),
        ("--max-n", {"type": int, "default": 8}, 2)]),
    "classify": (_cmd_classify, "relations for one data vector", [
        ("--n", _REQUIRED_INT, 2),
        ("--nvec", {"required": True,
                    "help": "comma-separated integers in canonical order "
                            "(descending lexicographic, trivial omitted)"},
         None)]),
    "classify-search": (_cmd_classify_search, "exhaustive box search", [
        ("--n", _REQUIRED_INT, 2), ("--bound", _REQUIRED_INT, 0)]),
    "iso-obstruction": (_cmd_iso_obstruction, "shift obstruction values", [
        ("--n", _REQUIRED_INT, 2), ("--l-min", _REQUIRED_INT, None), ("--l-max", _REQUIRED_INT, None)]),
    "hp0": (_cmd_hp0, "graded bracket-quotient dimensions", [
        ("--group", {"required": True}, None),
        ("--max-degree", _REQUIRED_INT, 0),
        ("--dual-check", {"action": "store_true"}, None)]),
}

_USAGE = "usage: morita <command> [options]\n\ncommands:\n" + "".join(
    "  %-17s %s\n" % (name, entry[1]) for name, entry in _COMMANDS.items())


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
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if not argv or argv[0] not in _COMMANDS:
        sys.stderr.write(_USAGE)
        return 2
    handler, _, arguments = _COMMANDS[argv[0]]
    parser = argparse.ArgumentParser(prog="morita " + argv[0])
    for name, keywords, _ in arguments:
        parser.add_argument(name, **keywords)
    try:
        args = parser.parse_args(_attach_nvec(argv[1:]))
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        for name, _, least in arguments:
            value = getattr(args, name.lstrip("-").replace("-", "_"))
            if least is not None and value < least:
                raise ValueError("%s must be at least %d" % (name, least))
        report = handler(args)
        if report is None:
            return 0
        _emit_json(report)
        return 0 if report["status"] == "pass" else 1
    except ValueError as e:  # bad input
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a bug in the program
        print("internal error: %s" % e, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
