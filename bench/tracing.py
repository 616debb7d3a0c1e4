"""Layer tracing from the benchmark's side.

Each layer's entry point is replaced, under the name its caller looks
up, by a wrapper that records a span (layer, start, end, parent span,
operation) and a few counts.  The program's own code runs unchanged;
outside an operation the wrappers only pass the call through.  A name
that the program no longer has is reported as missing.
"""

from __future__ import annotations

import collections
import functools
import time

# Per-layer metrics, in BENCHMARK.json order: times are layer self time
# in ms per round, counts are per round.
TIMES = ("kbio.parse", "evidence.resolve", "lattice.skeleton", "propagation.derive",
         "roughset.approx", "minimizer.minimize", "metrics.measure", "kbio.load",
         "kbio.serialize", "kbio.render", "lattice.edit")
COUNTS = ("evidence.groups", "lattice.nodes_built", "propagation.nodes_derived",
          "minimizer.regions", "minimizer.minterms", "minimizer.primes", "minimizer.terms",
          "minimizer.literals", "minimizer.budget_hits", "metrics.rules_measured",
          "kbio.bytes_read", "kbio.bytes_written", "lattice.cone_nodes",
          "lattice.decisions_changed")
UNITS = {"kbio.bytes_read": "B", "kbio.bytes_written": "B"}
ROOT = "cli"


def _nodes(counts, args, result):
    counts["lattice.nodes_built"] += len(result[1])


def _derived(counts, args, result):
    counts["propagation.nodes_derived"] += 2 ** result.n - result.n - 1


def _rederived(counts, args, result):
    counts["propagation.nodes_derived"] += len(result)
    counts["lattice.cone_nodes"] += len(result)


def _minimized(counts, args, result):
    counts["minimizer.regions"] += 1
    counts["minimizer.minterms"] += len(set(args[0]))
    counts["minimizer.terms"] += len(result.terms)
    counts["minimizer.literals"] += sum(len(t) for t in result.terms)


def entry_points(prog):
    """(module, name, layer, counter): every wrapped name, as its caller
    spells it (``kbio`` imports most layers' functions by name)."""
    k, lat, mini = prog.kbio, prog.lattice, prog.minimizer
    return (
        (k, "parse_evidence", "kbio.parse", None),
        (k, "_resolved_decisions", "evidence.resolve",
         lambda c, a, r: c.update({"evidence.groups": len(r)})),
        (k, "build_kb", "lattice.skeleton", None),
        (k, "_build_structure", "lattice.skeleton", _nodes),
        (lat, "_build_structure", "lattice.skeleton", _nodes),
        (k, "propagate", "propagation.derive", _derived),
        (lat, "_repropagate", "propagation.derive", _rederived),
        (k, "approximations", "roughset.approx", None),
        (k, "generate_rules", "minimizer.minimize", None),
        (mini, "minimize", "minimizer.minimize", _minimized),
        (mini, "_prime_implicants", "minimizer.minimize",
         lambda c, a, r: c.update({"minimizer.primes": len(r)})),
        (prog.metrics, "measure", "metrics.measure",
         lambda c, a, r: c.update({"metrics.rules_measured": 1})),
        (k, "load_kb", "kbio.load", lambda c, a, r: c.update({"kbio.bytes_read": len(a[0])})),
        (k, "serialize_kb", "kbio.serialize",
         lambda c, a, r: c.update({"kbio.bytes_written": len(r)})),
        (k, "render_rules_records", "kbio.render", None),
        (k, "render_rules_text", "kbio.render", None),
        (k, "modify_node", "lattice.edit", None),
        (k, "insert_fact", "lattice.edit", None),
        (k, "delete_fact", "lattice.edit", None),
    )


class Tracer:
    """Spans and counts of the operations run while installed."""

    def __init__(self, prog):
        self.prog = prog
        self.spans = []           # [layer, start, end, parent index, op index]
        self.stack = []
        self.counts = collections.Counter()
        self.op = None            # id of the running operation, if any
        self.orders = []          # op id -> lattice order
        self.measured = []        # op id -> its time as measured outside the tracer
        self.missing = []
        self._undo = []

    def install(self):
        for module, name, layer, count in entry_points(self.prog):
            original = getattr(module, name, None)
            if original is None:
                self.missing.append("%s.%s" % (module.__name__, name))
                continue
            setattr(module, name, self._wrap(original, layer, count))
            self._undo.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo = []

    def _wrap(self, original, layer, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            span = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(tracer.counts, args, result)
            return result
        return traced

    def _open(self, layer):
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.op])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def run(self, order, call):
        """Run one operation under a root span and return its result."""
        self.op = len(self.orders)
        self.orders.append(order)
        span = self._open(ROOT)
        try:
            return call()
        except BaseException as exc:
            # free the frames of a cut operation inside its span, not after it
            exc.with_traceback(None)
            raise
        finally:
            self._close(span)
            self.op = None

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self, rounds, factor):
        """Per-layer metrics per round, per-order figures, and the largest
        gap between an operation's summed self times (its root span) and
        its time measured outside the tracer.  Times are scaled by
        ``factor`` to the reference speed."""
        own = self.self_times()
        per_layer = collections.Counter()
        per_order = collections.defaultdict(collections.Counter)
        op_total = collections.Counter()
        for (layer, _, _, _, op), t in zip(self.spans, own):
            per_layer[layer] += t
            per_order[layer][self.orders[op]] += t
            op_total[op] += t
        gap = max((abs(measured - op_total[op]) for op, measured in enumerate(self.measured)),
                  default=0.0)
        metrics = {}
        for layer in TIMES:
            metrics[layer + "_ms"] = (1000 * factor * per_layer[layer] / rounds, "ms")
        metrics["trace.outside_ms"] = (1000 * factor * per_layer[ROOT] / rounds, "ms")
        for name in COUNTS:
            metrics[name] = (self.counts[name] / rounds, UNITS.get(name, "count"))
        orders = {layer: {str(n): 1000 * factor * t / rounds for n, t in sorted(by.items())}
                  for layer, by in per_order.items()}
        return metrics, orders, gap

    def dump(self):
        return [[layer, round(start, 7), round(end, 7), parent, op]
                for layer, start, end, parent, op in self.spans]
