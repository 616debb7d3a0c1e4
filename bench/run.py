#!/usr/bin/env python3
"""Benchmark of the roughkb CLI: four workloads, end to end and per layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload {build,rules,edit,ragged,all} --seed N
                         [--seconds S] [--trace 0|1]

One workload runs in this process, on one thread: it generates its
inputs from the seed, measures set-up, then calls ``kbio.cli`` in a
closed loop with one caller, round after round of the same operations,
until ``--seconds`` have passed.  The first round's outputs are checked
after it ends; every later round must reproduce them.  ``--trace 1``
runs half the time untraced and half traced and reports per-layer
metrics instead of end-to-end ones.  ``--workload all`` runs each
workload in its own process and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calibration

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(BENCH, "out")
NEEDED = (os.path.join(SRC, "roughkb", "__init__.py"),
          os.path.join(TESTS, "oracles.py"), os.path.join(TESTS, "expected_lbp.py"))
WORKLOAD_NAMES = ("build", "rules", "edit", "ragged")
RUN_SECONDS = 10          # run_seconds of BENCHMARK.json
SETUP_SAMPLES = 7
MIN_ROUNDS = 3
PASSES = 3                # calibration passes after each op
SPAN_GAP_S = 0.002        # how far the root span may fall short of an op's time

# Set-up as a user's process pays it: import the package, then fill the
# lazy per-order caches (label enumeration) for every order the workload
# touches.  Run in a fresh interpreter each time, then time the
# calibration loop there.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from roughkb import lattice
for n in map(int, sys.argv[2].split(",")):
    lattice.build_kb([lattice.Fact(i, "a%d" % i, "v") for i in range(1, n + 1)], {})
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
import calibration
print(setup, sum(calibration.seconds() for _ in range(20)) / 20)
"""


class Budget(BaseException):
    """Raised by the interval timer when an operation runs out of time."""


def _on_alarm(signum, frame):
    raise Budget()


class Program:
    """The modules of the package under test, imported after set-up."""

    def __init__(self):
        from roughkb import kbio, lattice, metrics, minimizer, propagation, roughset
        self.kbio, self.lattice, self.metrics = kbio, lattice, metrics
        self.minimizer, self.propagation, self.roughset = minimizer, propagation, roughset


class Result:
    __slots__ = ("rc", "out", "text", "seconds")

    def __init__(self, rc, out, text, seconds):
        self.rc, self.out, self.text, self.seconds = rc, out, text, seconds

    def digest(self):
        blob = "%s\0%s\0%s" % (self.rc, self.out, self.text)
        return hashlib.sha256(blob.encode()).hexdigest()


def _read(path):
    with open(path, encoding="utf-8") as stream:
        return stream.read()


def run_op(prog, op, tracer=None, speed=1.0):
    """One timed CLI call; reading the written file is not timed.

    The budget is held at the reference speed: at ``speed`` (the
    calibration loop's reference time over its time just now) the timer
    is armed at ``op.budget / speed``.
    """
    out = io.StringIO()
    call = (lambda: prog.kbio.cli(op.argv))
    if tracer is not None:
        call = (lambda inner=call: tracer.run(op.order, inner))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, op.budget / speed)
            try:
                rc = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Budget:
        rc = "budget"
    except Exception as exc:  # a fault of the program is an outcome here
        rc = type(exc).__name__
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.measured.append(seconds)
    text = _read(op.writes) if op.writes and rc == 0 else None
    return Result(rc, out.getvalue(), text, seconds)


def judged(op, result, before):
    """The op's check; a check that raises on the output is a problem too."""
    try:
        return op.check(result, before)
    except Exception as exc:
        return ["check raised %s: %s" % (type(exc).__name__, exc)]


def setup_seconds(orders):
    """Median set-up time: raw, and at the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC,
                               ",".join(map(str, orders)), BENCH],
                              capture_output=True, text=True, timeout=120, check=True)
        setup, loop = map(float, done.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup * calibration.REFERENCE_S / loop)
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Rounds of one workload: timings, outputs, and the check verdicts.

    The first round's outputs, and the files its edits start from, are
    kept; every later round must reproduce them byte for byte.  They are
    checked only by ``judge``, after the timed rounds, so that the checks
    set neither a time nor the process's peak memory.
    """

    def __init__(self, prog, workload):
        self.prog, self.w = prog, workload
        self.first = None         # per op: (result, the file before it)
        self.differs = []         # per round: ops whose output differs from round 1
        self.problems = []
        self.passes = [calibration.seconds() for _ in range(PASSES)]

    def round(self, tracer=None):
        """One round: its op times raw and at the reference speed, and its
        speed factor.  Each op lies between two sets of passes of the
        calibration loop, and its time is scaled by the loop's reference
        time over the median of those passes: the machine's speed while
        the op ran.  Its budget is held at the speed of the passes before
        it, and a cut is scaled by that speed, so that it reads the budget.
        The round's factor is the reference time over the mean of the ops'
        medians."""
        self.w.reset()
        results, befores, loops, scaled = [], [], [], []
        for op in self.w.ops:
            before = self.passes
            if self.first is None:
                befores.append(_read(op.writes) if op.writes and os.path.exists(op.writes)
                               else None)
            speed = calibration.REFERENCE_S / statistics.median(before)
            result = run_op(self.prog, op, tracer, speed)
            self.passes = [calibration.seconds() for _ in range(PASSES)]
            loops.append(statistics.median(before + self.passes))
            if result.rc != "budget":
                speed = calibration.REFERENCE_S / loops[-1]
            scaled.append(result.seconds * speed)
            if tracer is not None:
                if result.rc == "budget":
                    tracer.counts["minimizer.budget_hits"] += 1
                if op.argv[0] == "set-decision":
                    tracer.counts["lattice.decisions_changed"] += sum(
                        1 for line in result.out.splitlines()
                        if line.split(" ", 1)[0] in ("added", "removed", "changed"))
            results.append(result)
        if self.first is None:
            self.first = list(zip(results, befores))
            self.digests = [r.digest() for r in results]
        self.differs.append({i for i, r in enumerate(results) if r.digest() != self.digests[i]})
        factor = len(loops) * calibration.REFERENCE_S / sum(loops)
        return [r.seconds for r in results], scaled, factor

    def judge(self):
        """Check the first round's outputs; the failed count of all rounds."""
        bad = []
        for op, (result, before) in zip(self.w.ops, self.first):
            problems = judged(op, result, before)
            if problems and op.fault is None:
                self.problems.append("%s %s: %s" % (op.kind, " ".join(op.argv),
                                                    "; ".join(problems[:3])))
            if problems and op.fault is not None:
                print("probe %s %s fails: %s" % (op.fault, op.kind, problems[0]), file=sys.stderr)
            if not problems and op.fault is not None:
                print("probe %s %s no longer fails" % (op.fault, op.kind), file=sys.stderr)
            bad.append(bool(problems))
        failed = 0
        for differs in self.differs:
            for i in sorted(differs):
                op = self.w.ops[i]
                self.problems.append("%s %s: output differs between rounds" % (op.kind, op.argv))
            failed += sum(1 for i, b in enumerate(bad) if b or i in differs)
        return failed

    def rounds(self, seconds, min_rounds, tracer=None):
        """Rounds until ``seconds`` have passed: (raw, scaled, factor) each."""
        times = []
        start = time.perf_counter()
        while len(times) < min_rounds or time.perf_counter() - start < seconds:
            times.append(self.round(tracer))
        return times


def min_rounds(workload):
    """Enough rounds that ten operations lie beyond the tail percentile."""
    beyond = len(workload.ops) * (100 - workload.tail_pct) / 100
    return max(MIN_ROUNDS, math.ceil(10 / beyond))


def end_to_end(rounds, tail_pct, setup, peak_mb, scale=True):
    """The five end-to-end metrics; times at the reference speed unless
    ``scale`` is false."""
    times = [scaled if scale else raw for raw, scaled, _ in rounds]
    ops = [t for round_times in times for t in round_times]
    cuts = statistics.quantiles(ops, n=100, method="inclusive")
    return {
        "setup_s": (setup[1] if scale else setup[0], "s"),
        "wall_s": (statistics.median(sum(r) for r in times), "s"),
        "op_p50_ms": (1000 * statistics.median(ops), "ms"),
        "op_tail_ms": (1000 * cuts[tail_pct - 1], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(args):
    sys.path[:0] = [SRC, BENCH]
    sys.path.append(TESTS)
    import workloads

    work = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        prog = Program()
        import roughkb
        if os.path.dirname(os.path.dirname(roughkb.__file__)) != SRC:
            raise RuntimeError("roughkb imported from %s, not from %s" % (roughkb.__file__, SRC))
        w = workloads.WORKLOADS[args.workload](prog, random.Random(args.seed), work, ROOT)
        setup = None if args.trace else setup_seconds(w.orders())
        for n in w.orders():   # the same warm-up, in this process
            prog.lattice.build_kb([prog.lattice.Fact(i, "a%d" % i, "v")
                                   for i in range(1, n + 1)], {})
        ready_mb = peak_rss_mb()
        runner = Runner(prog, w)
        need = min_rounds(w)
        if args.trace:
            from tracing import Tracer
            plain = runner.rounds(args.seconds / 2, need)
            tracer = Tracer(prog)
            tracer.install()
            try:
                traced = runner.rounds(args.seconds / 2, need, tracer)
            finally:
                tracer.uninstall()
            times = plain + traced
            factor = statistics.median(f for _, _, f in traced)
            metrics, orders, gap = tracer.summary(len(traced), factor)
            overhead = (statistics.median(sum(t) for _, t, _ in traced)
                        - statistics.median(sum(t) for _, t, _ in plain))
            metrics["trace.overhead_ms"] = (1000 * overhead, "ms")
            print("trace: spans cover every operation to within %.3f ms" % (1000 * gap),
                  file=sys.stderr)
            if gap > SPAN_GAP_S:
                runner.problems.append("spans miss an operation's time by %.3g s" % gap)
            if tracer.missing:
                print("trace: missing entry points %s" % ", ".join(tracer.missing), file=sys.stderr)
            path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
            with open(path, "w", encoding="utf-8") as stream:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "rounds": len(traced), "missing": tracer.missing,
                           "per_layer": {k: v for k, (v, _) in metrics.items()},
                           "per_layer_per_order_ms": orders,
                           "ops": [[op.kind, op.order, op.argv[0]] for op in w.ops],
                           "spans": tracer.dump()}, stream)
        else:
            times = runner.rounds(args.seconds, need)
            peak = peak_rss_mb()
            metrics = end_to_end(times, w.tail_pct, setup, peak)
            raw = end_to_end(times, w.tail_pct, setup, peak, scale=False)
            print("raw: %s; speed factor %.3f; peak before the timed rounds %.2f MB" % (
                ", ".join("%s %.4g" % (k, v) for k, (v, _) in raw.items()),
                statistics.median(f for _, _, f in times), ready_mb), file=sys.stderr)
        failed = runner.judge()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print("check: " + problem, file=sys.stderr)
    if w.screened_out:
        print("screen: %d seeded inputs drawn again" % w.screened_out, file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(times) * len(w.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_workloads(seed, seconds, trace=0):
    """Each workload in its own process: {workload: result} of those that
    exited 0, and the last non-zero exit status."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print("%s seed %d exited %d" % (name, seed, done.returncode), file=sys.stderr)
            status = done.returncode
            continue
        results[name] = json.loads(done.stdout.splitlines()[-1])
    return results, status


def run_all(args):
    """Every workload; one table of every metric."""
    results, status = run_workloads(args.seed, args.seconds, args.trace)
    for name, result in results.items():
        print("%-7s attempted %d, failed %d, correct %s"
              % (name, result["attempted"], result["failed"], result["correct"]))
        for metric, entry in result["metrics"].items():
            print("  %-28s %14.4f %s" % (metric, entry["value"], entry["unit"]))
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not os.path.isfile(p)]
    if missing:
        print("error: the benchmark needs the repository's %s" % ", ".join(
            os.path.relpath(p, ROOT) for p in missing), file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
