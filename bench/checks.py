"""Output checks, written apart from the program under test.

KB files are parsed here by hand, numbers are rendered here by hand,
and rule conditions are evaluated with this module's own cube test.
The reference arithmetic comes from ``tests/oracles.py``.  A check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import oracles

HALF = Fraction(1, 2)


def render(x: Fraction, places: int) -> str:
    """Round half to even at ``places`` decimals (the KB file rule)."""
    scaled = Fraction(x) * 10 ** places
    whole = math.floor(scaled)
    rest = scaled - whole
    if rest > HALF or (rest == HALF and whole % 2):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return "%s.%s" % (digits[:-places], digits[-places:])


# --- KB files ---------------------------------------------------------------

class KbFile:
    """A parsed KB file: header fields and the raw decision fields."""

    def __init__(self, text: str):
        self.text = text
        self.header = []
        self.nodes = {}       # label -> {disease: (vd, cf, tv, w)} as strings
        self.sections = {}    # label -> exact text of its node section
        current = None
        for line in text.splitlines():
            parts = line.split()
            if parts[0] == "node":
                current = parts[1]
                self.nodes[current] = {}
                self.sections[current] = line + "\n"
            elif parts[0] == "decision":
                fields = dict(p.split("=", 1) for p in parts[2:])
                self.nodes[current][parts[1]] = (
                    int(fields["vd"]), fields["cf"], fields["tv"], fields["w"])
                self.sections[current] += line + "\n"
            else:
                self.header.append(line)
        fields = dict(h.split(" ", 1) for h in self.header[1:4])
        self.round2 = fields["mode"] == "round2"
        self.places = 2 if self.round2 else 6
        self.alpha = Fraction(fields["alpha"])
        self.n = int(fields["order"])

    def view(self):
        """{label: {disease: (vd, cf)}} over decided nodes, cf exact."""
        return {label: {d: (e[0], Fraction(e[1])) for d, e in per.items()}
                for label, per in self.nodes.items() if per}

    def vd_map(self, disease):
        return {label: per[disease][0] for label, per in self.nodes.items()
                if disease in per}

    def diseases(self):
        return sorted({d for per in self.nodes.values() for d in per})


def label_of(facts, n):
    return "".join("1" if n - i in facts else "0" for i in range(n))


def facts_of(label):
    n = len(label)
    return frozenset(n - i for i, ch in enumerate(label) if ch == "1")


# --- build ------------------------------------------------------------------

def weights_for(doc):
    def weights(facts, disease):
        prio = doc.scoped.get((frozenset(facts), disease))
        if prio is None:
            prio = {f: doc.glob.get((disease, f), 1) for f in facts}
        total = sum(prio.values())
        return {f: Fraction(p, total) for f, p in prio.items()}
    return weights


def resolved(doc, round2):
    """{(fact tuple, disease): (vd, cf, triple)} from the oracles."""
    out = {}
    for (facts, disease), rows in doc.counts.items():
        triple = oracles.reference_triple(rows, doc.q)
        if round2:
            triple = tuple(oracles.round2(c) for c in triple)
        presence = [[rows.get(m, {}).get(level, 0) > 0
                     for level in range(1, doc.q + 1)] for m in (1, 2, 3)]
        vd, cf = oracles.reference_resolve(presence, triple)
        out[(facts, disease)] = (vd, cf, triple)
    return out


def check_build(doc, round2, text):
    """Atomics against the resolution oracle, composites above no
    composite-evidence set against the propagation oracle."""
    kb = KbFile(text)
    places = kb.places
    problems = []
    if kb.round2 != round2 or kb.n != doc.n or kb.alpha != doc.alpha:
        problems.append("header says mode/order/alpha %s/%d/%s"
                        % (kb.round2, kb.n, kb.alpha))
        return problems
    want = resolved(doc, round2)
    atomics = {}
    for (facts, disease), (vd, cf, triple) in want.items():
        if len(facts) > 1:
            continue
        atomics.setdefault(facts[0], {})[disease] = (vd, cf)
        got = kb.nodes[label_of(facts, doc.n)].get(disease)
        tv = "/".join(render(c, places) for c in triple)
        if got is None or got[:3] != (vd, render(cf, places), tv):
            problems.append("atomic f%d %s: got %s, want vd=%d cf=%s tv=%s"
                            % (facts[0], disease, got, vd, render(cf, places), tv))
    for fid in range(1, doc.n + 1):
        extra = set(kb.nodes[label_of({fid}, doc.n)]) - set(atomics.get(fid, {}))
        if extra:
            problems.append("atomic f%d decides %s without evidence" % (fid, sorted(extra)))
    publish = oracles.round2 if round2 else (lambda x: x)
    ref = oracles.reference_propagate(doc.n, atomics, weights_for(doc),
                                      doc.alpha, publish)
    external = doc.composite_sets()
    for facts, per in ref.items():
        if len(facts) < 2 or any(s <= facts for s in external):
            continue
        label = label_of(facts, doc.n)
        got = {d: e[:2] for d, e in kb.nodes[label].items()}
        expect = {d: (vd, render(cf, places)) for d, (vd, cf) in per.items()}
        if got != expect:
            problems.append("node %s: got %s, want %s" % (label, got, expect))
            if len(problems) > 5:
                break
    return problems


def check_fixture(expected, round2, text):
    """The bundled fixture against the hand-derived figures."""
    kb = KbFile(text)
    problems = []
    if round2:
        for (fid, disease), triple in expected.TRIPLES_2DP.items():
            got = kb.nodes[label_of({fid}, 3)][disease][2]
            if got != "/".join(triple):
                problems.append("triple f%d %s: %s" % (fid, disease, got))
        for (label, disease), (vd, cf) in expected.ALL_DECISIONS_2DP.items():
            got = kb.nodes[label].get(disease)
            if got is None or got[:2] != (vd, cf):
                problems.append("%s %s: got %s, want %d %s" % (label, disease, got, vd, cf))
    else:
        for (label, disease), cf in expected.ATOMIC_EXACT_CF.items():
            got = kb.nodes[label].get(disease)
            if got is None or got[1] != render(cf, 6):
                problems.append("%s %s: got %s, want cf %s" % (label, disease, got, render(cf, 6)))
    return problems


# --- rules ------------------------------------------------------------------

REGIONS = (("certain", "lower1", 1), ("certain", "lower2", 0),
           ("uncertain", "boundary1", 2),
           ("possible", "upper1", 1), ("possible", "upper2", 0))


def parse_condition(text):
    """'(f1 AND NOT f2) OR f3' -> list of {fid: positive} terms."""
    if text == "TRUE":
        return [{}]
    if text == "FALSE":
        return []
    terms = []
    for part in text.split(" OR "):
        term = {}
        for lit in part.strip("()").split(" AND "):
            positive = not lit.startswith("NOT ")
            term[int(lit.split("f")[-1])] = positive
        terms.append(term)
    return terms


@functools.lru_cache(maxsize=None)
def _labels(n):
    return [format(v, "0%db" % n) for v in range(2 ** n)]


def cube_cells(term, n):
    """All labels a term selects, by brute force over the 2**n labels: fact
    f is bit f - 1 of a label's number, the (n - f)-th character of it."""
    mask = sum(1 << (f - 1) for f in term)
    want = sum(1 << (f - 1) for f, positive in term.items() if positive)
    return frozenset(label for v, label in enumerate(_labels(n)) if v & mask == want)


def check_cover(terms, region, n):
    """Selects exactly the region; every term prime; no term redundant."""
    cells = [cube_cells(t, n) for t in terms]
    problems = []
    if frozenset().union(*cells) != region:
        return ["condition selects %d labels, region has %d"
                % (len(frozenset().union(*cells)), len(region))]
    for term in terms:
        for fid in term:
            wider = {f: p for f, p in term.items() if f != fid}
            if cube_cells(wider, n) <= region:
                problems.append("term %s is not prime" % sorted(term.items()))
                break
    for i in range(len(terms)):
        rest = frozenset().union(*(c for j, c in enumerate(cells) if j != i))
        if rest == region:
            problems.append("term %s is redundant" % sorted(terms[i].items()))
    return problems


def check_rules(kb_text, records, best=False):
    """Rule records against the KB's own regions and the oracles."""
    kb = KbFile(kb_text)
    view = kb.view()
    problems = []
    expect = {}
    for disease in kb.diseases():
        regions = oracles.reference_approx(kb.vd_map(disease))
        for kind, region, vd in REGIONS:
            if regions[region]:
                expect[(disease, kind, vd)] = regions[region]
    seen = set()
    last = None
    for line in records.splitlines():
        disease, vd, kind, condition, sources = line.split("\t")[:5]
        shown = line.split("\t")[5:]
        key = (disease, kind, int(vd))
        region = expect.get(key)
        if region is None or key in seen:
            problems.append("unexpected or repeated rule %s" % (key,))
            continue
        seen.add(key)
        if frozenset(sources.split(",")) != region:
            problems.append("rule %s: source labels are not its region" % (key,))
            continue
        terms = parse_condition(condition)
        problems += ["rule %s: %s" % (key, p) for p in check_cover(terms, region, kb.n)]
        if best:
            want = oracles.best_cover(set(region), kb.n)
            got = (len(terms), sum(len(t) for t in terms))
            if got != want:
                problems.append("rule %s: cover %s, best %s" % (key, got, want))
        ref = oracles.reference_measures(view, region, disease, int(vd))
        want = [render(ref[m], kb.places)
                for m in ("support", "strength", "certainty", "coverage")]
        if shown != want:
            problems.append("rule %s: measures %s, want %s" % (key, shown, want))
        if last is not None and last[0] == disease and ref["strength"] > last[1]:
            problems.append("rule %s: strength rises within %s" % (key, disease))
        last = (disease, ref["strength"])
    missing = set(expect) - seen
    if missing:
        problems.append("missing rules %s" % sorted(missing))
    return problems


# --- edits ------------------------------------------------------------------

def check_same(before, after, what="file"):
    return [] if before == after else ["%s changed" % what]


def check_outside_cone(before, after, label, disease, vd, cf):
    """An upper-level edit: only the node and its strict supersets move."""
    old, new = KbFile(before), KbFile(after)
    problems = []
    if old.header != new.header:
        problems.append("header changed")
    base = facts_of(label)
    for other, section in old.sections.items():
        if other != label and not facts_of(other) > base and new.sections.get(other) != section:
            problems.append("node %s outside the cone changed" % other)
    got = new.nodes[label].get(disease)
    if got is None or got[:2] != (vd, cf):
        problems.append("node %s decides %s, want vd=%d cf=%s" % (label, got, vd, cf))
    return problems


def check_grown(before, after):
    """insert-fact leaves every old node's section as it was."""
    old, new = KbFile(before), KbFile(after)
    problems = []
    for label, section in old.sections.items():
        grown = "0" + label
        if new.sections.get(grown) != section.replace("node %s" % label, "node %s" % grown):
            problems.append("old node %s changed" % label)
    if len(new.sections) != 2 * len(old.sections):
        problems.append("grown file holds %d nodes" % len(new.sections))
    return problems


# --- covers (input screening) ----------------------------------------------

def primes_of(minterms, n):
    """Prime implicants of an int label set, as (bits, dash mask)."""
    current = {(m, 0) for m in minterms}
    primes = set()
    while current:
        merged, nxt = set(), set()
        for bits, mask in current:
            for pos in range(n):
                flip = 1 << pos
                if not mask & flip and bits & flip and (bits ^ flip, mask) in current:
                    merged.update(((bits, mask), (bits ^ flip, mask)))
                    nxt.add((bits & ~flip, mask | flip))
        primes |= current - merged
        current = nxt
    return sorted(primes)


def cover_work(minterms, n, cap):
    """Peak size of the product set of an exact Petrick cover of the
    minterms, counted up to the first size above ``cap``.

    This is the cost model of an exact prime cover: the product set of
    Petrick's method grows with the minterms no essential prime covers.
    """
    primes = primes_of(minterms, n)
    owners = {m: [i for i, (b, k) in enumerate(primes) if m & ~k == b] for m in minterms}
    essential = {o[0] for o in owners.values() if len(o) == 1}
    cyclic = [m for m in minterms
              if not any(m & ~primes[i][1] == primes[i][0] for i in essential)]
    products = [frozenset()]
    peak = 1
    for m in cyclic:
        grown = {p | {i} for p in products for i in owners[m]}
        kept = []
        for cand in sorted(grown, key=len):
            if not any(k <= cand for k in kept):
                kept.append(cand)
        products = kept
        peak = max(peak, len(products))
        if peak > cap:
            break
    return peak


def region_sets(kb_text):
    """Every nonempty approximation region of every disease, as ints."""
    kb = KbFile(kb_text)
    out = []
    for disease in kb.diseases():
        regions = oracles.reference_approx(kb.vd_map(disease))
        for _, region, _ in REGIONS:
            if regions[region]:
                out.append(sorted(int(label, 2) for label in regions[region]))
    return kb.n, out

