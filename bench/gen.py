"""Seeded inputs for the benchmark: evidence documents and KB files.

Everything here is a pure function of its ``random.Random`` argument and
writes the text formats by hand, so the program under test sees only
the generated files.

Every seeded document gives every disease three anchor facts whose
evidence resolves to each kind (present, absent, inconclusive).  Each
approximation region of a disease that holds a node then holds a
decided node with nonzero credibility, so rule metrics always have a
denominator on seeded inputs; the fault that shows when they do not
(F4 in the README) is measured on fixed probe inputs instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

DISEASES = ("ANK", "BUR", "COX", "DDD", "EPL")
ALPHAS = (Fraction(0), Fraction(1, 20), Fraction(1, 10))


class Document:
    """An evidence document as text plus the facts the benchmark needs
    to check it: counts per (fact set, disease), priorities, gate."""

    def __init__(self, n, q, diseases, counts, glob, scoped, alpha, facts=None):
        self.n = n
        self.facts = facts or [(i, "attr%d" % i, "value%d" % i) for i in range(1, n + 1)]
        self.q = q
        self.diseases = diseases
        self.counts = counts        # {(fact tuple, disease): {m: {level: count}}}
        self.glob = glob            # {(disease, fid): priority}
        self.scoped = scoped        # {(frozenset, disease): {fid: priority}}
        self.alpha = alpha

    def composite_sets(self):
        return sorted({frozenset(f) for f, _ in self.counts if len(f) > 1},
                      key=sorted)

    def text(self, module="bench"):
        lines = ["module %s" % module, "grading q=%d" % self.q]
        if self.alpha:
            lines.append("alpha %s" % self.alpha)
        for fid, attribute, value in self.facts:
            lines.append('fact f%d "%s" "%s"' % (fid, attribute, value))
        for (disease, fid), p in sorted(self.glob.items()):
            lines.append("priority %s f%d %d" % (disease, fid, p))
        for (fset, disease), prio in sorted(self.scoped.items(),
                                            key=lambda i: (sorted(i[0][0]), i[0][1])):
            lines.append("priority %s %s %s" % (
                disease, "+".join("f%d" % f for f in sorted(fset)),
                " ".join("f%d=%d" % (f, prio[f]) for f in sorted(prio))))
        for (facts, disease), rows in sorted(self.counts.items()):
            for m in sorted(rows):
                for level in sorted(rows[m]):
                    lines.append("evidence %s %s m=%d level=%d count=%d" % (
                        "+".join("f%d" % f for f in facts), disease, m, level,
                        rows[m][level]))
        return "\n".join(lines) + "\n"


def _profile(rng, q, kinds):
    rows = {}
    for m in kinds:
        levels = rng.sample(range(1, q + 1), rng.randint(1, min(2, q)))
        rows[m] = {level: rng.randint(1, 20) for level in levels}
    return rows


def _evidence(rng, q, m):
    """Sources of kind ``m`` alone at the best level, so ``m`` wins, plus
    one other kind further down, so the credibility stays below 1."""
    other = rng.choice([k for k in (1, 2, 3) if k != m])
    return {m: {1: rng.randint(5, 20)}, other: {rng.randint(2, q): rng.randint(1, 10)}}


def document(rng: random.Random, n: int, diseases: int, composite: bool,
             alpha) -> Document:
    """A seeded evidence document of order ``n`` with gate ``alpha``.

    Every disease has evidence on the same number of facts, so documents
    of one order cost about the same to build.  ``composite`` adds
    evidence records on f1+f2, f1+f3 and f1+f2+f3 only, so edits of f4
    and above never meet them.
    """
    q = rng.randint(3, 5)
    names = DISEASES[:diseases]
    counts = {}
    for disease in names:
        facts = rng.sample(range(1, n + 1), max(3, round(0.7 * n)))
        for index, fid in enumerate(facts):
            # the first three facts are the disease's anchors, one per kind
            kind = index + 1 if index < 3 else rng.randint(1, 3)
            counts[((fid,), disease)] = _evidence(rng, q, kind)
    if composite:
        for facts in ((1, 2), (1, 3), (1, 2, 3)):
            counts[(facts, rng.choice(names))] = _profile(
                rng, q, [m for m in (1, 2, 3) if rng.random() < 0.7] or [1])
    glob = {(d, f): rng.randint(1, 4) for d in names for f in range(1, n + 1)
            if rng.random() < 0.25}
    scoped = {}
    for _ in range(2):
        fset = frozenset(rng.sample(range(1, n + 1), rng.randint(2, n)))
        scoped[(fset, rng.choice(names))] = {f: rng.randint(1, 4) for f in fset}
    return Document(n, q, names, counts, glob, scoped, Fraction(alpha))


def ragged_kb(rng: random.Random, n: int, density: float = 1.0) -> str:
    """A KB file whose decisions were set node by node, not derived.

    Each node other than the entry decides one disease, with probability
    ``density``, with a random truth value and credibility, so each
    approximation region is a random label set: many primes, few of
    them essential.
    """
    lines = ["roughkb-kb 1", "mode round2", "alpha 0", "order %d" % n]
    for fid in range(1, n + 1):
        lines.append('fact f%d "attr%d" "value%d"' % (fid, fid, fid))
    for level in range(n + 1):
        for mask in sorted(sum(1 << p for p in c) for c in combinations(range(n), level)):
            lines.append("node %s" % format(mask, "0%db" % n))
            if level == 0:
                continue
            if rng.random() < density:
                lines.append("decision %s vd=%d cf=%d.%02d tv=- w=-" % (
                    (DISEASES[0], rng.randrange(3)) + divmod(rng.randint(1, 100), 100)))
    return "\n".join(lines) + "\n"
