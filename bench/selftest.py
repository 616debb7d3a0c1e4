#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute and a half).

    python3 bench/selftest.py

Runs one round of every workload at seed 1 and requires that every
seeded operation passes its check and every probe fails it.  Then feeds
each kind of check a deliberately corrupted output (a dropped term, a
flipped decision, a truncated file) and requires a complaint.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import sys

import run

sys.path[:0] = [run.SRC, run.BENCH]
sys.path.append(run.TESTS)

import workloads  # noqa: E402


def drop_term(records):
    """Remove one term from the first condition that has two or more."""
    lines = records.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split("\t")
        terms = fields[3].split(" OR ")
        if len(terms) > 1:
            fields[3] = " OR ".join(terms[1:])
            lines[i] = "\t".join(fields)
            return "".join(lines)
    raise AssertionError("no rule with two terms to drop one from")


def flip_decision(text, level_min=2):
    """Change the truth value of the first decision at a composite node."""
    node = None
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("node "):
            node = line.split()[1]
        elif line.startswith("decision ") and node.count("1") >= level_min:
            vd = int(re.search(r"vd=(\d)", line).group(1))
            lines[i] = line.replace("vd=%d" % vd, "vd=%d" % ((vd + 1) % 3), 1)
            return "".join(lines)
    raise AssertionError("no composite decision to flip")


def truncate(text):
    return text[:len(text) // 2]


def rejects(op, result, before, field, corrupt):
    """The op's check must complain about a corrupted copy of its output."""
    bad = run.Result(result.rc, result.out, result.text, result.seconds)
    setattr(bad, field, corrupt(getattr(result, field)))
    return bool(run.judged(op, bad, before))


def main():
    signal.signal(signal.SIGALRM, run._on_alarm)
    prog = run.Program()
    failures = []
    corrupted = {}
    for name, make in workloads.WORKLOADS.items():
        work = os.path.join(run.OUT, "selftest-%s-%d" % (name, os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            w = make(prog, random.Random(1), work, run.ROOT)
            w.reset()
            for op in w.ops:
                before = run._read(op.writes) if op.writes and os.path.exists(op.writes) else None
                result = run.run_op(prog, op)
                problems = run.judged(op, result, before)
                if bool(problems) != bool(op.fault):
                    failures.append("%s %s %s: %s" % (name, op.kind, op.fault or "seeded",
                                                      problems or "passed"))
                if op.fault or result.rc != 0:
                    continue
                trials = [("flipped decision", "text", flip_decision),
                          ("truncated file", "text", truncate)] if op.writes else []
                if op.kind == "rules":
                    trials.append(("dropped term", "out", drop_term))
                for label, field, corrupt in trials:
                    try:
                        ok = rejects(op, result, before, field, corrupt)
                    except AssertionError:   # nothing of that shape to corrupt
                        continue
                    key = (name, op.kind, label)
                    corrupted[key] = corrupted.get(key, True) and ok
            print("%-7s %3d operations, %d probes" % (name, len(w.ops),
                                                     sum(1 for op in w.ops if op.fault)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for (name, kind, label), ok in sorted(corrupted.items()):
        print("%-7s %-12s %-16s %s" % (name, kind, label, "rejected" if ok else "ACCEPTED"))
        if not ok:
            failures.append("%s %s accepts a %s" % (name, kind, label))
    for name, label in (("rules", "dropped term"), ("ragged", "dropped term"),
                        ("build", "flipped decision"), ("build", "truncated file"),
                        ("edit", "flipped decision"), ("edit", "truncated file")):
        if not any(k[0] == name and k[2] == label for k in corrupted):
            failures.append("%s: no output was corrupted with a %s" % (name, label))
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
