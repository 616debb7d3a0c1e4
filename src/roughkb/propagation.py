"""Credibility propagation from constituent rules to composite rules.

Every node above level 1 derives its per-disease truth value and
credibility factor from its immediate predecessors: pairwise rules at
level 2, a prevailing-value chain plus per-fact aggregation at level 3
and above, and an optional merge with evidence supplied directly for
the composite condition.

The module is pure calculus; it knows nothing about lattice storage
beyond the ``(fact set, decision map)`` shape of a predecessor.  All
arithmetic is exact.  A ``round2`` flag selects the two-decimal
compatibility mode, which publishes (``_num.publish2``) the
intermediates that mode is defined over.

Derivation reads its constituents as integer records, one per (label,
disease) entry: ``(vd, cf numerator, cf denominator, truth record)``,
where a truth record is ``(n1, n2, n3, d)``, the three components over
one common denominator (None when the entry has no triple).  An entry
derived here gets its record when it is made; a stored entry gets its
record the first time a successor reads it.  At level 3 and above one
integer pass per node and disease computes the prevailing truth value,
the credibility and the truth-triple mean from the carriers' records,
and builds one Fraction per result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import errors
from ._num import ONE, ZERO, clamp01, frac, publish2
from .evidence import TruthTriple, TruthValue

Record = Tuple[TruthValue, int, int, Optional[Tuple[int, int, int, int]]]

# a disease or fact name token, as both text formats spell it
_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _alpha(value) -> Fraction:
    """The gate under which a credibility/weight product counts as zero."""
    value = frac(value)
    if not 0 <= value.numerator <= value.denominator:
        raise errors.OutOfRange("alpha %s outside [0, 1]" % value)
    return value


class DecisionEntry:
    """One disease decision attached to a node.

    Together with the owning node's condition this is the full rule
    tuple: condition facts, per-fact weights, disease, truth triple,
    ternary truth value and credibility factor.  ``tv`` may be None for
    decisions set by hand rather than derived from evidence.
    """

    __slots__ = ("disease", "vd", "cf", "tv", "weights")

    def __init__(self, disease, vd, cf, tv=None, weights=None):
        self.disease = str(disease)
        if not _NAME_RE.match(self.disease):
            raise errors.OutOfRange("bad disease name %r" % (self.disease,))
        try:
            self.vd = TruthValue(vd)
        except ValueError:
            raise errors.OutOfRange("truth value must be 0, 1 or 2, got %r" % (vd,))
        self.cf = frac(cf)
        if not 0 <= self.cf.numerator <= self.cf.denominator:
            raise errors.OutOfRange("credibility %s outside [0, 1]" % self.cf)
        if tv is not None and not isinstance(tv, TruthTriple):
            tv = TruthTriple(*tv)
        self.tv = tv
        self.weights = {}
        for fid, w in dict(weights or {}).items():
            w = frac(w)
            if not 0 < w.numerator <= w.denominator:
                raise errors.OutOfRange("weight %s outside (0, 1]" % w)
            self.weights[int(fid)] = w

    @classmethod
    def _checked(cls, disease: str, vd: TruthValue, cf: Fraction,
                 tv: Optional[TruthTriple], weights: Dict[int, Fraction]
                 ) -> "DecisionEntry":
        """An entry of values each already checked where it entered.

        Derivation checks a kernel's cf on its integers and the weight
        cache checks each weight value it creates; ``load_kb`` checks
        each distinct token once per load.  The slots are assigned as
        given, and ``weights`` becomes the entry's own map.
        """
        entry = object.__new__(cls)
        entry.disease = disease
        entry.vd = vd
        entry.cf = cf
        entry.tv = tv
        entry.weights = weights
        return entry

    def replace(self, **kw):
        args = {s: getattr(self, s) for s in self.__slots__}
        args.update(kw)
        return DecisionEntry(**args)

    def __eq__(self, other):
        return (isinstance(other, DecisionEntry)
                and other.disease == self.disease and other.vd == self.vd
                and other.cf == self.cf and other.tv == self.tv
                and other.weights == self.weights)

    def __repr__(self):
        return ("DecisionEntry(%r, vd=%d, cf=%s)"
                % (self.disease, self.vd, self.cf))


class PriorityConfig:
    """Integer fact priorities used to derive conditional weights.

    Two layers: ``scoped`` priorities keyed by (fact set, disease) pin
    the weights of one node/disease pair; ``global_priorities`` keyed by
    (disease, fact) apply wherever no scoped entry matches.  Facts with
    no priority default to 1, and weights are the priorities normalized
    over the node's facts.
    """

    __slots__ = ("global_priorities", "scoped", "_by_disease", "_values")

    def __init__(self, global_priorities=None, scoped=None):
        # not part of equality: the global priorities indexed by disease,
        # and each weight value Fraction(p, total), built and checked once,
        # filed under its total
        self._by_disease: Dict[str, Dict[int, int]] = {}
        self._values: Dict[int, Dict[int, Fraction]] = {}
        self.global_priorities = {}
        for (disease, fid), p in dict(global_priorities or {}).items():
            disease, fid = str(disease), int(fid)
            self.global_priorities[(disease, fid)] = self._by_disease.setdefault(
                disease, {})[fid] = self._check(p)
        self.scoped = {}
        for (facts, disease), prio in dict(scoped or {}).items():
            facts = frozenset(int(f) for f in facts)
            prio = {int(f): self._check(p) for f, p in dict(prio).items()}
            if set(prio) != set(facts):
                raise errors.OutOfRange(
                    "scoped priorities must cover the fact set exactly")
            self.scoped[(facts, str(disease))] = prio

    @staticmethod
    def _check(p):
        if not isinstance(p, int) or p < 1:
            raise errors.OutOfRange("priorities are positive integers, got %r" % (p,))
        return p

    def priorities_for(self, facts: FrozenSet[int], disease: str
                       ) -> Tuple[Dict[int, int], int]:
        """The facts' integer priorities for a disease, and their sum.

        The map may be the stored scoped entry: callers must not edit it.
        """
        prio = self.scoped.get((facts, disease))
        if prio is None:
            glob = self._by_disease.get(disease)
            if glob is None:
                return dict.fromkeys(facts, 1), len(facts)
            prio = {f: glob.get(f, 1) for f in facts}
        return prio, sum(prio.values())

    def weights_for(self, facts: FrozenSet[int], disease: str) -> Dict[int, Fraction]:
        return self._weights(*self.priorities_for(frozenset(facts), disease))

    def _weights(self, prio: Mapping[int, int], total: int) -> Dict[int, Fraction]:
        """A fresh weights map whose values come from the cache."""
        values = self._values.get(total)
        if values is None:
            values = self._values[total] = {}
        weights = {}
        for f, p in prio.items():
            w = values.get(p)
            if w is None:
                if not 0 < p <= total:
                    raise errors.OutOfRange("weight %d/%d outside (0, 1]" % (p, total))
                w = values[p] = Fraction(p, total)
            weights[f] = w
        return weights

    def without_fact(self, fid: int) -> "PriorityConfig":
        """Drop every reference to a fact and renumber the ones above it."""
        shift = lambda f: f - 1 if f > fid else f  # noqa: E731
        glob = {(d, shift(f)): p
                for (d, f), p in self.global_priorities.items() if f != fid}
        scoped = {(frozenset(shift(f) for f in facts), d):
                  {shift(f): p for f, p in prio.items()}
                  for (facts, d), prio in self.scoped.items() if fid not in facts}
        return PriorityConfig(glob, scoped)

    def __eq__(self, other):
        return (isinstance(other, PriorityConfig)
                and other.global_priorities == self.global_priorities
                and other.scoped == self.scoped)

    def __bool__(self):
        return bool(self.global_priorities or self.scoped)

    def __repr__(self):
        return ("PriorityConfig(%d global, %d scoped)"
                % (len(self.global_priorities), len(self.scoped)))


# --- integer records ----------------------------------------------------------

def _triple_record(tv: TruthTriple) -> Tuple[int, int, int, int]:
    """A truth triple as three numerators over one denominator."""
    (a, b), (c, d), (e, f) = (x.as_integer_ratio() for x in tv)
    if b == d == f:
        return a, c, e, b
    den = lcm(b, d, f)
    return a * (den // b), c * (den // d), e * (den // f), den


def _record(entry: DecisionEntry) -> Record:
    num, den = entry.cf.as_integer_ratio()
    tv = entry.tv
    return entry.vd, num, den, None if tv is None else _triple_record(tv)


def _records(decisions: Mapping[str, DecisionEntry]) -> Dict[str, Record]:
    return {disease: _record(entry) for disease, entry in decisions.items()}


# --- pairwise combination (level 2) -----------------------------------------

def _gated(a: Fraction, b: Fraction, gate: Fraction, agree: bool) -> Optional[Fraction]:
    """Credibility of two weighted contributions under a checked gate.

    Both clearing the gate add when the sides agree and offset when
    they do not; a lone passing side carries alone; None when neither
    passes.
    """
    if a <= gate:
        return None if b <= gate else clamp01(b)
    if b <= gate:
        return clamp01(a)
    return clamp01(a + b if agree else abs(a - b))


def _prevailing(vd_i, cf_i, vd_j, cf_j) -> TruthValue:
    """The truth value a disagreeing pair passes up.

    The side of higher credibility donates its truth value, and a tie is
    inconclusive.  A clash between values 0 and 2 is inconclusive
    whatever the credibilities: an outright contradiction with an open
    verdict never yields a firm one.
    """
    if {int(vd_i), int(vd_j)} == {0, 2}:
        return TruthValue.INCONCLUSIVE
    if cf_i > cf_j:
        return vd_i
    if cf_j > cf_i:
        return vd_j
    return TruthValue.INCONCLUSIVE


def merge_external(vd_star, cf_star, vd_ext, cf_ext, tv3_merged) -> Tuple[TruthValue, Fraction]:
    """Reconcile lattice-derived and directly-supplied decisions."""
    vd_star = TruthValue(vd_star)
    vd_ext = TruthValue(vd_ext)
    cf_star = frac(cf_star)
    cf_ext = frac(cf_ext)
    if vd_star == vd_ext:
        return vd_star, min(ONE, cf_star + cf_ext)
    if cf_ext > cf_star:
        return vd_ext, cf_ext - cf_star
    if cf_ext < cf_star:
        return vd_star, cf_star - cf_ext
    return TruthValue.INCONCLUSIVE, frac(tv3_merged)


def _level2(node_facts: FrozenSet[int], carriers, weights: Mapping[int, Fraction],
            gate: Fraction) -> Optional[Tuple[TruthValue, Fraction]]:
    """(vd, cf) of a level-2 node from its carriers' records, or None."""
    if len(carriers) == 1:
        # a level-2 carrier holds the one fact it does not lack
        fid, (vd, num, den, _) = carriers[0]
        (own,) = node_facts - {fid}
        cf = _gated(Fraction(num, den) * weights[own], ZERO, gate, True)
        return None if cf is None else (vd, cf)
    (la, (va, na, da, _)), (lb, (vb, nb, db, _)) = carriers
    ca, cb = Fraction(na, da), Fraction(nb, db)
    # each carrier holds the one fact the other lacks
    cf = _gated(ca * weights[lb], cb * weights[la], gate, va == vb)
    if cf is None:
        return None
    return (va if va == vb else _prevailing(va, ca, vb, cb)), cf


# every value publish2 gives in [0, 1], by its numerator over 100
_HUNDREDTHS = tuple(Fraction(h, 100) for h in range(101))


def _hundredths(h: int) -> Fraction:
    # a hand-edited file may hold a truth component outside [0, 1]
    return _HUNDREDTHS[h] if 0 <= h <= 100 else Fraction(h, 100)


def _mean_triple(records: Sequence[Tuple[int, int, int, int]], round2: bool
                 ) -> Tuple[TruthTriple, Tuple[int, int, int, int]]:
    """Component-wise mean of truth records, as a triple and its record.

    Each component is summed as integers over the records' lcm, and
    each mean is one ratio of integers, published in the two-decimal
    mode.
    """
    if not records:
        raise errors.OutOfRange("need at least one triple to merge")
    den = lcm(*[r[3] for r in records])
    s1 = s2 = s3 = 0
    for a, b, c, d in records:
        k = den // d
        s1 += a * k
        s2 += b * k
        s3 += c * k
    den *= len(records)
    if round2:
        h1, h2, h3 = [(200 * s + den) // (2 * den) for s in (s1, s2, s3)]
        # tuple.__new__ skips TruthTriple's coercion of exact components
        return (tuple.__new__(TruthTriple, (_hundredths(h1), _hundredths(h2),
                                            _hundredths(h3))),
                (h1, h2, h3, 100))
    g = gcd(s1, s2, s3, den)
    if g > 1:
        s1, s2, s3, den = s1 // g, s2 // g, s3 // g, den // g
    return (tuple.__new__(TruthTriple, (Fraction(s1, den), Fraction(s2, den),
                                        Fraction(s3, den))),
            (s1, s2, s3, den))


# --- multi-constituent combination (level >= 3) -----------------------------


def _cf_multi(carriers, prio: Mapping[int, int], total: int, gate: Fraction,
              round2: bool) -> Tuple[int, Fraction, bool]:
    """Prevailing truth value, credibility and pass flag at level >= 3.

    ``carriers`` lists ``(lacking fact, record)`` in ascending label
    order: every constituent is the node less one fact.  ``prio`` holds
    the integer priority of each of the node's facts and ``total`` their
    sum, so fact f weighs ``prio[f] / total``.

    One pass puts every credibility on the carriers' lcm denominator and,
    on those integers, folds the prevailing-value chain, sums each
    truth-value camp and files each carrier under the fact it lacks.  A
    fact's camps are the totals less that one carrier.  Its group
    credibility is ``|top - (sum - top)|`` over its camps: one camp keeps
    its sum, and with several the strongest is offset by the rest.  A
    camp that loses its last member sums to zero and changes neither the
    top nor the sum, since credibilities are nonnegative.  A fact's term
    is its group credibility times its weight, gated and (in the
    two-decimal mode) published as an integer ratio; the result is the
    terms' sum over ``i - 1``, clamped at 1.  The flag is False when no
    term clears the gate.
    """
    den = lcm(*[r[2] for _, r in carriers])
    camps = [0, 0, 0]
    lacking = {}
    vd = top = None
    for fid, (nxt, num, d, _) in carriers:
        cf = num if d == den else num * (den // d)
        camps[nxt] += cf
        lacking[fid] = (nxt, cf)
        # the chain carries the running maximum, so a later weaker entry
        # cannot flip an established verdict; 0 against 2 is inconclusive
        if vd is None:
            vd, top = nxt, cf
        elif nxt == vd or nxt + vd == 2:
            if nxt != vd:
                vd = TruthValue.INCONCLUSIVE
            if cf > top:
                top = cf
        elif cf > top:
            vd, top = nxt, cf
        elif cf == top:
            vd = TruthValue.INCONCLUSIVE
    c0, c1, c2 = camps
    grand = c0 + c1 + c2
    whole = abs(2 * max(camps) - grand)
    # the strongest camp besides each one
    others = (max(c1, c2), max(c0, c2), max(c0, c1))
    # a term is g * p / scale, and it passes when g * p * gate_den > bar
    scale = den * total
    gate_num, gate_den = gate.as_integer_ratio()
    bar = gate_num * scale
    acc = 0
    ok = False
    for fid, p in prio.items():
        skip = lacking.get(fid)
        if skip is None:
            g = whole
        else:
            v, cf = skip
            rest = camps[v] - cf
            other = others[v]
            g = abs(2 * (rest if rest > other else other) - grand + cf)
        num = g * p
        if num * gate_den > bar:
            ok = True
            acc += (200 * num + scale) // (2 * scale) if round2 else num
    if not ok:
        return vd, ZERO, False
    lower = len(prio) - 1
    if round2:
        # acc hundredths over lower, clamped and published
        return vd, _HUNDREDTHS[min(100, (2 * acc + lower) // (2 * lower))], True
    scale *= lower
    return vd, (ONE if acc > scale else Fraction(acc, scale)), True


# --- per-node orchestration -------------------------------------------------

def _node(node_facts: FrozenSet[int], preds: Sequence[Tuple[int, Mapping[str, Record]]],
          priorities: PriorityConfig, gate: Fraction, round2: bool,
          external: Optional[Mapping[str, tuple]]
          ) -> Tuple[Dict[str, DecisionEntry], Dict[str, Record]]:
    """The decision map of one composite node and the entries' records.

    ``preds`` lists ``(lacking fact, records by disease)`` for the
    immediate predecessors in ascending label order, and ``gate`` is
    already checked.  Each derived cf is checked on its integers, which
    become its record.
    """
    i = len(node_facts)
    diseases = set(external) if external else set()
    for _, records in preds:
        diseases.update(records)

    out: Dict[str, DecisionEntry] = {}
    out_records: Dict[str, Record] = {}
    for disease in sorted(diseases):
        prio, total = priorities.priorities_for(node_facts, disease)
        weights = priorities._weights(prio, total)
        carriers = [(fid, records[disease]) for fid, records in preds
                    if disease in records]
        base = None  # (vd, cf) implied by the lattice alone
        if i > 2:
            if carriers:
                vd, cf, ok = _cf_multi(carriers, prio, total, gate, round2)
                if ok:
                    base = (vd, cf)
        elif carriers:
            base = _level2(node_facts, carriers, weights, gate)
            if base is not None and round2:
                base = (base[0], publish2(base[1]))

        ext = external.get(disease) if external else None
        if ext is None and base is None:
            continue
        triples = [rec[3] for _, rec in carriers if rec[3] is not None]
        if ext is not None:
            # direct evidence enters here, and is checked once
            ext = DecisionEntry(disease, *ext)
            if ext.tv is not None:
                triples.append(_triple_record(ext.tv))
        if base is None:
            # the disease enters this node purely on direct evidence
            vd, cf, tv = ext.vd, publish2(ext.cf) if round2 else ext.cf, ext.tv
            tv_record = triples[-1] if tv is not None else None
        else:
            tv, tv_record = _mean_triple(triples, round2) if triples else (None, None)
            vd, cf = base
            if ext is not None:
                vd, cf = merge_external(vd, cf, ext.vd, ext.cf,
                                        tv.tv3 if tv is not None else ZERO)
                cf = clamp01(cf)
                if round2:
                    cf = publish2(cf)
        num, den = cf.as_integer_ratio()
        if not 0 <= num <= den:
            raise errors.OutOfRange("credibility %s outside [0, 1]" % cf)
        out[disease] = DecisionEntry._checked(disease, vd, cf, tv, weights)
        out_records[disease] = (vd, num, den, tv_record)
    return out, out_records


def node_decisions(node_facts: FrozenSet[int],
                   predecessors: Sequence[Tuple[FrozenSet[int], Mapping[str, DecisionEntry]]],
                   priorities: PriorityConfig, alpha, round2: bool = False,
                   external: Optional[Mapping[str, tuple]] = None
                   ) -> Dict[str, DecisionEntry]:
    """Derive the full decision map of one composite node.

    ``predecessors`` must be the immediate predecessors in ascending
    label order.  ``external`` maps a disease to a (vd, cf, triple)
    resolved from knowledge sources supplied directly for this node's
    condition; such evidence merges with (or introduces) the decision.
    """
    node_facts = frozenset(node_facts)
    # each predecessor is the node less one fact
    preds = [(min(node_facts - facts), _records(decisions))
             for facts, decisions in predecessors]
    return _node(node_facts, preds, priorities, _alpha(alpha), round2, external)[0]


def derive(nodes, labels: Iterable[str], priorities: PriorityConfig, gate,
           round2: bool, external: Optional[Mapping[FrozenSet[int], Mapping[str, tuple]]] = None
           ) -> Dict[str, Dict[str, DecisionEntry]]:
    """The fresh decision maps of ``labels``, derived bottom up.

    ``nodes`` maps every label to its node, and ``labels`` lists each
    label after those of its predecessors that it holds (popcount order
    does).  A predecessor reads its fresh map if it has one, and its
    stored map otherwise, as integer records: a fresh entry's record is
    made with the entry, a stored entry's at its first read, and only
    the records of the level below the one being derived are kept.
    ``external`` maps a composite fact set to per-disease (vd, cf,
    triple) resolved from direct knowledge sources.  Such evidence is
    consumed here, not stored on any node, so a later edit re-derives
    its cone from atomic decisions and priorities alone (fault F3 in
    ``bench/README.md``).
    """
    gate = _alpha(gate)
    external = external or {}
    fresh: Dict[str, Dict[str, DecisionEntry]] = {}
    below: Dict[str, Dict[str, Record]] = {}   # records one level down
    level_records: Dict[str, Dict[str, Record]] = {}
    level = None
    for label in labels:
        ones = label.count("1")
        if ones != level:
            below = level_records if level is not None and ones == level + 1 else {}
            level_records = {}
            level = ones
        n = len(label)
        preds: List[Tuple[int, Dict[str, Record]]] = []
        # clearing the bit at position pos (leftmost first, so ascending
        # labels) leaves the predecessor that lacks fact n - pos
        for pos, ch in enumerate(label):
            if ch == "1":
                pred = label[:pos] + "0" + label[pos + 1:]
                records = below.get(pred)
                if records is None:
                    records = below[pred] = _records(
                        fresh[pred] if pred in fresh else nodes[pred].decisions)
                preds.append((n - pos, records))
        condition = nodes[label].condition
        fresh[label], level_records[label] = _node(
            condition, preds, priorities, gate, round2, external.get(condition))
    return fresh


def propagate(kb, priorities: Optional[PriorityConfig] = None,
              external: Optional[Mapping[FrozenSet[int], Mapping[str, tuple]]] = None,
              alpha=ZERO, round2: bool = False):
    """Fill every composite level of a knowledge base, bottom up.

    ``external`` maps a composite fact set to per-disease (vd, cf,
    triple), which ``derive`` merges in and does not store.  Returns a
    new lattice carrying the updated decisions along with the
    priorities, gate and rounding mode used (structural edits reuse
    them).
    """
    priorities = priorities if priorities is not None else PriorityConfig()
    gate = _alpha(alpha)
    external = {frozenset(k): dict(v) for k, v in (external or {}).items()}
    labels = [label for level_labels in kb.levels[2:] for label in level_labels]
    updates = derive(kb.nodes, labels, priorities, gate, round2, external)
    return kb.with_updates(updates, alpha=gate, priorities=priorities, round2=round2)
