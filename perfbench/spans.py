"""Spans and counters around the public functions and methods of `cumalg`.

`install()` wraps each layer's entry points from the outside: it replaces the
module attribute and every rebinding of the same object in other `cumalg`
modules (the `from .x import name` copies), and the class attribute for
methods.  Nothing under `src/` changes.

A span has a name, start, end, parent span and job id.  Spans of coarse
boundaries (parsing, handlers, extension evaluations, checks, ...) are kept
one by one; spans of hot leaf operations (sparse-vector arithmetic, wedge,
products, coproducts, operator application) are called hundreds of thousands
of times per job, so they are folded into their totals as they close instead
of being stored.  Either way a span's self time is its duration minus the
time covered by its child spans, and it is added to its name's total.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

HOT = frozenset({
    "algebra.multiply", "coalgebra.wedge", "coalgebra.coproduct",
    "coalgebra.selement", "morphisms.smap_call",
})


class Tracer:
    def __init__(self):
        self.job = 0
        self.stack = []          # open spans: [span id, name, start, child time]
        self.spans = []          # closed coarse spans: (id, name, start, end, parent, job)
        self.calls = Counter()   # span name -> closed spans
        self.self_s = Counter()  # span name -> summed self time
        self.counts = Counter()  # named counters
        self.weights = Counter()  # weight -> monomials evaluated by coalgebra-map extensions
        self._tau_used = defaultdict(set)
        self._keep = []          # keeps traced objects alive so their ids stay unique
        self._next = 0

    # -- spans ---------------------------------------------------------------
    def wrap(self, name, fn):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        keep = name not in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next += 1
            frame = [self._next, name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                calls[name] += 1
                self_s[name] += duration - frame[3]
                if keep:
                    spans.append((frame[0], name, frame[2], end,
                                  parent[0] if parent else None, self.job))

        return traced

    def innermost(self):
        return self.stack[-1][1] if self.stack else None

    # -- output --------------------------------------------------------------
    def dump(self, path):
        """Write totals, counters and the kept spans as one JSON document."""
        doc = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "weights": {str(k): v for k, v in self.weights.items()},
            "tau_used": sum(len(s) for s in self._tau_used.values()),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(original, replacement):
    """Point every cumalg module attribute that is `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cumalg" or name.startswith("cumalg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layers of an imported `cumalg` with spans and counters."""
    import cumalg  # noqa: F401  (loads every layer module)
    import cumalg.cli as cli
    from cumalg import algebra, coalgebra, cumulant, linalg, morphisms, probability, transfer

    counts = tracer.counts

    def replace(owner, attr, make):
        """Swap owner.attr for make(original): on a module, every cumalg
        binding of the same object; on a class or instance, the attribute."""
        original = getattr(owner, attr)
        if isinstance(owner, types.ModuleType):
            _rebind(original, make(original))
        else:
            setattr(owner, attr, make(original))

    def span(owner, attr, name):
        replace(owner, attr, lambda original: tracer.wrap(name, original))

    def before(owner, attr, hook):
        """Call `hook(*args)` ahead of every call."""
        def make(original):
            def call(*args, **kwargs):
                hook(*args, **kwargs)
                return original(*args, **kwargs)
            return call
        replace(owner, attr, make)

    def then(owner, attr, after, name=None):
        """Call `after(result, *args)` once the call returns, around a span
        when a name is given."""
        def make(original):
            inner = original if name is None else tracer.wrap(name, original)

            def call(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(result, *args)
                return result
            return call
        replace(owner, attr, make)

    def count(name):
        return lambda *args, **kwargs: counts.update((name,))

    # algebra
    span(algebra, "parse_algebra", "algebra.parse_algebra")
    span(algebra.AlgebraPresentation, "multiply", "algebra.multiply")

    # coalgebra
    span(coalgebra, "wedge", "coalgebra.wedge")
    span(coalgebra, "coproduct", "coalgebra.coproduct")
    for attr in ("__add__", "__sub__", "__neg__", "__rmul__"):
        span(coalgebra.SElement, attr, "coalgebra.selement")

    # morphisms: an extension gets one span per evaluation of its function
    set_partitions = coalgebra.set_partitions

    def ext_map_eval(w):
        n = w.weight
        tracer.weights[n] += 1
        counts["coalgebra.set_partitions.partitions"] += len(set_partitions(n))
        if n > 1:
            counts["workload.ext_map.multi_factor"] += 1
            if len(set(w.indices)) < n:
                counts["workload.ext_map.repeated_even"] += 1

    def trace_evaluations(name, on_eval=None):
        def after(smap, *args):
            smap._fn = tracer.wrap(name, smap._fn)
            if on_eval is not None:
                before(smap, "_fn", on_eval)
        return after

    then(morphisms, "extend_coalgebra_map", trace_evaluations("morphisms.ext_map", ext_map_eval))
    then(morphisms, "extend_coderivation", trace_evaluations("morphisms.ext_coder"))
    then(morphisms, "triangular_inverse", trace_evaluations("morphisms.inverse"))

    def on_monomial(smap, w):
        counts["morphisms.on_monomial.calls"] += 1
        if w not in smap._cache:
            counts["morphisms.on_monomial.misses"] += 1

    before(morphisms.SMap, "on_monomial", on_monomial)
    span(morphisms.SMap, "__call__", "morphisms.smap_call")
    before(morphisms.SMap, "compose", count("morphisms.compose.calls"))

    def checked(report, *args):
        counts["morphisms.check.monomials"] += report.checked

    for attr in ("check_comorphism", "check_coderivation", "check_filtration_one_identity"):
        then(morphisms, attr, checked, "morphisms.check")
    for attr in ("extract_family", "taylor_extract", "taylor_coefficient"):
        span(morphisms, attr, "morphisms.extract")

    # cumulant
    def tabulated(*args):
        if tracer.innermost() == "cumulant.tau_family":
            counts["cumulant.tau_family.tabulated"] += 1

    before(cumulant, "tau", tabulated)

    def register(family, *args):
        tracer._keep.append(family)
        tracer._tau_used[id(family)]  # a defaultdict: this registers the family

    then(cumulant, "tau_family", register, "cumulant.tau_family")

    def used(family, mono):
        seen = tracer._tau_used.get(id(family))
        if seen is not None:
            seen.add(mono)

    before(morphisms.TaylorFamily, "coefficient", used)

    def context(algebra_, cap=coalgebra.DEFAULT_WEIGHT_CAP):
        hit = (algebra_.uid, int(cap)) in cumulant._contexts
        counts["cumulant.context.hits" if hit else "cumulant.context.misses"] += 1

    before(cumulant, "cumulant_context", context)
    before(cumulant, "conjugate", count("cumulant.conjugate.calls"))

    # transfer
    span(transfer, "validate_retract", "transfer.validate")
    span(transfer, "validate_transfer_input", "transfer.validate")
    span(transfer, "induced_cumulant_bijection", "transfer.induce")
    for attr in ("_difference_check", "_injectivity_check", "_triangular_and_invertible"):
        span(transfer, attr, "transfer.certify")

    # linalg
    def cells(result, matrix):
        counts["linalg.rank.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    then(linalg, "rank", cells, "linalg.rank")

    # probability
    span(probability, "cumulants_from_moments", "probability.cumulants")
    span(probability, "oracle_cumulants", "probability.oracle")

    # cli
    span(cli, "_load_json", "cli.load")

    def emitted(result, report, args):
        if args.output and os.path.exists(args.output):
            counts["cli.emit.bytes"] += os.path.getsize(args.output)

    then(cli, "_emit", emitted, "cli.emit")
    for command, handler in list(cli.HANDLERS.items()):
        cli.HANDLERS[command] = tracer.wrap("cli.handler", handler)


def end_of_process(tracer: Tracer) -> None:
    """Counters read once a process has finished its jobs."""
    from cumalg import coalgebra

    tracer.counts["coalgebra.coproduct.memo_size"] = len(coalgebra._coproduct_memo)
