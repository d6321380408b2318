"""Span recording around the public functions of each morita layer.

``install`` replaces each traced function at every name it is bound to
in the loaded ``morita`` modules (module globals, re-exports and class
attributes) with a wrapper that opens a span on entry and closes it on
exit.  A span knows its name, start, end and parent (the enclosing open
span); when it closes, its duration and the part of it not covered by
child spans are added to the totals, so spans are aggregated as they
close instead of being kept.

The totals are per process.  The benchmark forks one process per
request from a template that has installed the wrappers but run
nothing, so each request starts from empty totals.
"""

import functools
import sys
import time

# (layer, module, qualified name) of every traced function.
TARGETS = (
    ("cli", "morita.cli", "run"),
    ("cli", "morita.cli", "parse_group_file"),
    ("exact", "morita.exact", "rational_roots"),
    ("exact", "morita.exact", "partial_fractions"),
    ("exact", "morita.exact", "Poly.__mul__"),
    ("exact", "morita.exact", "Poly.__divmod__"),
    ("partitions", "morita.partitions", "schur_eval_ones"),
    ("partitions", "morita.partitions", "kostka"),
    ("traces", "morita.traces", "a_coefficients"),
    ("traces", "morita.traces", "g_function"),
    ("traces", "morita.traces", "content_polynomial"),
    ("classify", "morita.classify", "derive_relation"),
    ("classify", "morita.classify", "build_f"),
    ("classify", "morita.classify", "search_relations"),
    ("classify", "morita.classify", "invert_hook_matrix"),
    ("poisson", "morita.poisson", "close_group"),
    ("poisson", "morita.poisson", "invariant_basis"),
    ("poisson", "morita.poisson", "bracket_span_dim"),
    ("poisson", "morita.poisson", "functional_solutions_dim"),
    ("poisson", "morita.poisson", "MultiPoly.substitute"),
    ("linalg", "morita.linalg", "rref"),
    ("linalg", "morita.linalg", "invert"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
FUNCTIONS = tuple("%s.%s" % (layer, qual) for layer, _, qual in TARGETS)

# Useful-over-attempted ratios: metric name -> (useful counter, base function).
RATIOS = {
    "classify.accept_ratio": ("classify.accepted", "classify.derive_relation"),
    "poisson.invariant_basis.distinct_ratio":
        ("poisson.invariant_basis.distinct", "poisson.invariant_basis"),
    "traces.a_coefficients.distinct_ratio":
        ("traces.a_coefficients.distinct", "traces.a_coefficients"),
}


class Tracer:
    """Open-span stack and per-request totals."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.total_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.useful = {"classify.accepted": 0}
        self.distinct = {"poisson.invariant_basis.distinct": set(),
                         "traces.a_coefficients.distinct": set()}
        self._stack = []  # open spans, innermost last: [start, child_s]
        self._depth = dict.fromkeys(FUNCTIONS, 0)

    def wrap(self, fn, name, layer, observe=None):
        stack = self._stack
        depth = self._depth
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            span = [clock(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - span[0]
                self_s[layer] += duration - span[1]
                if stack:  # the parent span
                    stack[-1][1] += duration
                if not depth[name]:  # count recursive calls once
                    total_s[name] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def summary(self):
        counts = dict(self.useful)
        counts.update((k, len(v)) for k, v in self.distinct.items())
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "counts": counts}


def _observers(tracer):
    from morita import classify

    accepted = tracer.useful
    basis_keys = tracer.distinct["poisson.invariant_basis.distinct"]
    coeff_keys = tracer.distinct["traces.a_coefficients.distinct"]

    def derive_relation(args, result):
        if not isinstance(result, classify.Rejection):
            accepted["classify.accepted"] += 1

    def invariant_basis(args, result):
        # the action object lives for the whole request, so id() is stable
        basis_keys.add((id(args[0]), args[1]))

    def a_coefficients(args, result):
        coeff_keys.add((args[0], args[1]))

    return {"classify.derive_relation": derive_relation,
            "poisson.invariant_basis": invariant_basis,
            "traces.a_coefficients": a_coefficients}


def install():
    """Wrap every target at every name bound to it; return the Tracer."""
    tracer = Tracer()
    observers = _observers(tracer)
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "morita" or name.startswith("morita.")) and m is not None]
    for layer, module_name, qual in TARGETS:
        name = "%s.%s" % (layer, qual)
        owner = sys.modules[module_name]
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(original, name, layer, observers.get(name))
        for namespace in [owner] if path else modules:
            for binding, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, binding, wrapped)
    return tracer
