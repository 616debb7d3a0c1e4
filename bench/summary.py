#!/usr/bin/env python3
"""Run every workload on a set of seeds and tabulate the end-to-end metrics.

    python3 bench/summary.py --seeds 1-10

Each seed runs every workload, each in its own ``bench/run.py`` process,
for ``run_seconds`` of ``BENCHMARK.json``.  Prints one Markdown row per
workload and metric: median, first and third quartile
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, then the failed share of every workload.  Raw result lines
go to ``bench/out/summary-<first seed>-<last seed>.jsonl``.  This is the
command that produced the reference figures in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from fractions import Fraction

import run


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        seconds = json.load(stream)["run_seconds"]
    os.makedirs(run.OUT, exist_ok=True)
    raw = os.path.join(run.OUT, "summary-%d-%d.jsonl" % (args.seeds[0], args.seeds[-1]))
    results = {}
    start = time.perf_counter()
    with open(raw, "a", encoding="utf-8") as log:
        for seed in args.seeds:
            for name, result in run.run_workloads(seed, seconds)[0].items():
                log.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
                log.flush()
                results.setdefault(name, []).append(result)
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|")
    for name in run.WORKLOAD_NAMES:
        rows = results.get(name, [])
        for metric in rows[0]["metrics"] if rows else ():
            values = [r["metrics"][metric]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print("| %s | %s (%s) | %.4g | %.4g | %.4g | %.1f%% |" % (
                name, metric, rows[0]["metrics"][metric]["unit"], median, q1, q3,
                100 * (q3 - q1) / median))
    print("%d seeds of every workload in %.0f s" % (len(args.seeds), time.perf_counter() - start))
    for name, rows in results.items():
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in rows})
        print("%s: %d runs, correct %s, failed/attempted %s" % (
            name, len(rows), all(r["correct"] for r in rows), ", ".join(shares)))


if __name__ == "__main__":
    main()
