"""Command line front end.

Each command is declared once, in _COMMANDS.  Exit codes are a contract,
kept by run() alone: 0 when every asserted identity held, 1 on a
verification failure, a rejected classification or an internal error
(any exception out of program code other than the input errors below,
reported as `internal error: ...`), 2 on usage or input errors (a
malformed command line, reported after a usage line, or any ValueError
such as a value below its declared least, a bad --nvec, a malformed
group file or a group past the order cap, reported as `error: ...`).
Reports go to stdout as JSON (CSV where tabular), the JSON through the
module's own writer, _json_text, byte-identical to json.dumps with an
indent of 2.
"""

import csv
import io
import json
import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii as _quote

from . import classify, poisson, traces
from .exact import rational
from .partitions import gamma_star


class MalformedFile(ValueError):
    pass


class DimensionOdd(ValueError):
    pass


def _report(command, status, payload):
    return {"command": command, "status": status, "payload": payload,
            "diagnostics": []}


def _json_key(key):
    """A dict key as json writes it: a str as is; an int, float, bool or
    None as its JSON text, quoted."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(json.dumps(key))
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % key.__class__.__name__)


def _json_text(obj, pad="\n"):
    """obj as json.dumps writes it with an indent of 2, byte for byte.

    With an indent, json runs its pure-Python encoder, whose first call
    in a fresh process costs more than a small report; the tests keep it
    as the oracle.  A list of plain ints or plain strs is joined in one
    pass.  Floats and every other scalar go to json.dumps, so they are
    written, or refused with TypeError, as json does.  Reports are trees:
    a cycle ends in RecursionError, not json's ValueError."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        elif all(type(x) is str for x in obj):
            items = map(_quote, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_json_key(k) + ": " + _json_text(v, inner)
             for k, v in obj.items()]) + pad + "}"
    return json.dumps(obj)


def _emit_json(report):
    print(_json_text(report))


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
    """Read a symplectic group action description from UTF-8 JSON.

    Expected shape: {"dim": 2d, "form": [[..]], "generators": [[[..]]]}
    with entries given as integers or exact "p/q" strings (q nonzero).
    """
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as e:  # JSON, encoding or nesting errors
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
        raise MalformedFile("group file needs dim and form")
    dim = data["dim"]
    if type(dim) is not int or dim <= 0:
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
    graded = poisson.hp0_dims(action, args.max_degree, args.dual_check)
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
# keywords, least accepted value or None).  The keywords are those of
# argparse's add_argument that _parse_args and _help read (type, choices,
# default, required, action="store_true", help); the tests build an
# argparse parser from them as the reference for _parse_args.
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
        ("--dual-check", {"action": "store_true",
                          "help": "compare each degree with the dual "
                                  "functional-equation count"}, None)]),
}

_USAGE = "usage: morita <command> [options]\n\ncommands:\n" + "".join(
    "  %-17s %s\n" % (name, entry[1]) for name, entry in _COMMANDS.items())


class _UsageError(Exception):
    pass


def _dest(name):
    return name.lstrip("-").replace("-", "_")


def _flag(keywords):
    return keywords.get("action") == "store_true"


def _required(name, keywords):
    return keywords.get("required", not name.startswith("-"))


def _convert(name, keywords, text):
    value = text
    if "type" in keywords:
        try:
            value = keywords["type"](text)
        except ValueError:
            raise _UsageError("argument %s: invalid %s value: %r"
                              % (name, keywords["type"].__name__, text))
    if "choices" in keywords and value not in keywords["choices"]:
        raise _UsageError("argument %s: invalid choice: %r (choose from %s)"
                          % (name, value, ", ".join(map(repr, keywords["choices"]))))
    return value


def _parse_args(arguments, tokens):
    """One command's declared arguments read from its tokens, left to
    right, as argparse reads them: `--name value` or `--name=value`, a
    unique prefix of a long option name, the last of a repeated option,
    positionals in order and none after `--` taken as an option.  An
    option's value is always the next token, also when it starts with a
    minus.  Returns the values as attributes named as argparse names
    them, or None when it reads -h/--help.  A malformed command line
    raises _UsageError: at a bad or missing value or an ambiguous
    prefix, at the end for an unknown token or a missing argument."""
    options = {"-h": None, "--help": None}
    positionals = []
    values = {}
    for name, keywords, _ in arguments:
        values[_dest(name)] = keywords.get("default", False if _flag(keywords) else None)
        if name.startswith("-"):
            options[name] = keywords
        else:
            positionals.append((name, keywords))
    extras = []
    options_end = False
    tokens = iter(tokens)
    for token in tokens:
        if options_end or not token.startswith("-"):
            if positionals:
                name, keywords = positionals.pop(0)
                values[name] = _convert(name, keywords, token)
            else:
                extras.append(token)
            continue
        if token == "--":
            options_end = True
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            matches = ([option for option in options if option.startswith(name)]
                       if name.startswith("--") else [])
            if len(matches) > 1:
                raise _UsageError("ambiguous option: %s could match %s"
                                  % (name, ", ".join(matches)))
            if not matches:
                extras.append(token)
                continue
            name = matches[0]
        keywords = options[name]
        if keywords is None or _flag(keywords):
            if eq:
                raise _UsageError("argument %s: ignored explicit argument %r"
                                  % (name, value))
            if keywords is None:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise _UsageError("argument %s: expected one argument" % name)
            value = _convert(name, keywords, value)
        values[_dest(name)] = value
    missing = [name for name, keywords, _ in arguments  # a given value is never None
               if _required(name, keywords) and values[_dest(name)] is None]
    if missing:
        raise _UsageError("the following arguments are required: %s"
                          % ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: %s" % " ".join(extras))
    return types.SimpleNamespace(**values)


def _synopsis(name, keywords):
    """An argument as usage and help show it: `--n N`, `--dual-check`, `check`."""
    if not name.startswith("-") or _flag(keywords):
        return name
    return "%s %s" % (name, _dest(name).upper())


def _usage(command):
    parts = ["[-h]"]
    for name, keywords, _ in _COMMANDS[command][2]:
        part = _synopsis(name, keywords)
        parts.append(part if _required(name, keywords) else "[%s]" % part)
    return "usage: morita %s %s\n" % (command, " ".join(parts))


def _help(command):
    _, line, arguments = _COMMANDS[command]
    rows = [("-h, --help", "show this help and exit")]
    for name, keywords, least in arguments:
        notes = ["required"] if _required(name, keywords) else []
        if "choices" in keywords:
            notes.append("one of %s" % ", ".join(keywords["choices"]))
        if "default" in keywords:
            notes.append("default %s" % keywords["default"])
        if least is not None:
            notes.append("at least %d" % least)
        if "help" in keywords:
            notes.append(keywords["help"])
        rows.append((_synopsis(name, keywords), "; ".join(notes)))
    width = max(len(left) for left, _ in rows)
    return "%s\n%s\n\narguments:\n%s" % (_usage(command), line, "".join(
        "  %-*s  %s\n" % (width, left, right) for left, right in rows))


def run(argv):
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if not argv or argv[0] not in _COMMANDS:
        sys.stderr.write(_USAGE)
        return 2
    handler, _, arguments = _COMMANDS[argv[0]]
    try:
        args = _parse_args(arguments, argv[1:])
    except _UsageError as e:
        sys.stderr.write("%smorita %s: error: %s\n" % (_usage(argv[0]), argv[0], e))
        return 2
    if args is None:
        sys.stdout.write(_help(argv[0]))
        return 0
    try:
        for name, _, least in arguments:
            value = getattr(args, _dest(name))
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
    except BrokenPipeError:  # the reader closed stdout: no program fault
        return 1
    except Exception as e:  # anything else is a bug in the program
        print("internal error: %s" % (str(e) or type(e).__name__), file=sys.stderr)
        return 1


def main():
    status = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at
        # shutdown cannot fail again with "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
