"""Credibility propagation from constituent rules to composite rules.

Every node above level 1 derives its per-disease truth value and
credibility factor from its immediate predecessors: pairwise rules at
level 2, a prevailing-value chain plus per-fact aggregation at level 3
and above, and an optional merge with evidence supplied directly for
the composite condition.

The module is pure calculus; it knows nothing about lattice storage
beyond the ``(fact set, decision map)`` shape of a predecessor.  All
arithmetic is exact; a caller-supplied ``publish`` hook quantizes the
intermediates that the two-decimal compatibility mode is defined over.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from . import errors
from ._num import ONE, ZERO, clamp01, frac, fsum, publish2
from .evidence import TruthTriple, TruthValue


def _identity(x):
    return x


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

    __slots__ = ("global_priorities", "scoped")

    def __init__(self, global_priorities=None, scoped=None):
        self.global_priorities = {}
        for (disease, fid), p in dict(global_priorities or {}).items():
            self.global_priorities[(str(disease), int(fid))] = self._check(p)
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

    def weights_for(self, facts: FrozenSet[int], disease: str) -> Dict[int, Fraction]:
        facts = frozenset(facts)
        prio = self.scoped.get((facts, disease))
        if prio is None:
            prio = {f: self.global_priorities.get((disease, f), 1) for f in facts}
        total = sum(prio.values())
        return {f: Fraction(p, total) for f, p in prio.items()}

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


# --- pairwise combination (level 2) -----------------------------------------

def combine_same_vd(cf_i, w_i, cf_j, w_j, alpha) -> Fraction:
    """Credibility of a pair agreeing on the truth value.

    Both weighted contributions add when both clear the gate; a lone
    passing side carries alone; nothing passing yields zero.
    """
    gate = _alpha(alpha)
    a = frac(cf_i) * frac(w_i)
    b = frac(cf_j) * frac(w_j)
    if a <= gate and b <= gate:
        return ZERO
    if a <= gate:
        return clamp01(b)
    if b <= gate:
        return clamp01(a)
    return clamp01(a + b)


def combine_diff_vd(entry_i, entry_j, w_i, w_j, alpha) -> Tuple[TruthValue, Fraction]:
    """Truth value and credibility of a disagreeing pair.

    The higher-credibility constituent donates its truth value (a tie
    is inconclusive), and the credibility is the gap between the gated
    weighted contributions.  A surely-present/surely-absent style clash
    between values 0 and 2 resolves to inconclusive regardless of the
    credibilities: an outright contradiction with an open verdict never
    yields a firm one.
    """
    gate = _alpha(alpha)
    if {int(entry_i.vd), int(entry_j.vd)} == {0, 2}:
        vd = TruthValue.INCONCLUSIVE
    elif entry_i.cf > entry_j.cf:
        vd = entry_i.vd
    elif entry_j.cf > entry_i.cf:
        vd = entry_j.vd
    else:
        vd = TruthValue.INCONCLUSIVE
    a = entry_i.cf * frac(w_i)
    b = entry_j.cf * frac(w_j)
    if a <= gate and b <= gate:
        return vd, ZERO
    if a <= gate:
        return vd, clamp01(b)
    if b <= gate:
        return vd, clamp01(a)
    return vd, clamp01(abs(a - b))


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


def merged_truth_triple(triples: Sequence[TruthTriple],
                        external: Optional[TruthTriple] = None) -> TruthTriple:
    """Component-wise mean of the constituent triples (plus external)."""
    items = list(triples)
    if external is not None:
        items.append(external)
    if not items:
        raise errors.OutOfRange("need at least one triple to merge")
    n = len(items)
    return TruthTriple(*(fsum(t[c] for t in items) / n for c in range(3)))


# --- multi-constituent combination (level >= 3) -----------------------------

_CLASH = frozenset({TruthValue.ABSENT, TruthValue.INCONCLUSIVE})


def _chain(pairs) -> Tuple[TruthValue, Fraction]:
    """Left fold of (TruthValue, cf) pairs; returns the prevailing pair."""
    it = iter(pairs)
    vd, cf = next(it)
    for nxt_vd, nxt_cf in it:
        if {vd, nxt_vd} == _CLASH:
            vd = TruthValue.INCONCLUSIVE
            cf = max(cf, nxt_cf)
        elif vd == nxt_vd:
            cf = max(cf, nxt_cf)
        elif nxt_cf > cf:
            vd, cf = nxt_vd, nxt_cf
        elif nxt_cf == cf:
            vd = TruthValue.INCONCLUSIVE
    return vd, cf


def _vd_groups(camps: Iterable[int], total: int) -> int:
    """Combine one fact's constituent credibilities across truth values.

    ``camps`` holds, per truth value, the summed credibility of the
    constituents that contain the fact, and ``total`` is their sum.  A
    single camp keeps its sum; with several camps the strongest camp's
    mass is offset by everything that disagrees with it.  Both cases are
    ``|top - (total - top)|``.  Credibilities are nonnegative, so a camp
    that has lost its last member sums to zero and changes neither the
    top nor the total: it drops out by itself.
    """
    top = max(camps)
    return abs(top + top - total)


def _cf_multi(node_facts, constituents, weights, gate, publish):
    # Every constituent is the node less one fact, so fact f lies in all
    # of them but the one lacking f.  One pass puts every credibility on
    # a common denominator, sums the camps, and files each constituent
    # under the fact it lacks; a fact's camp sums are then the totals
    # less that one entry.
    ratios = [entry.cf.as_integer_ratio() for _, entry in constituents]
    den = lcm(*(d for _, d in ratios))
    camps: Dict[int, int] = {}
    lacking = {}
    for (facts, entry), (num, d) in zip(constituents, ratios):
        cf = num * (den // d)
        camps[entry.vd] = camps.get(entry.vd, 0) + cf
        (fid,) = node_facts - facts
        lacking[fid] = (entry.vd, cf)
    grand = sum(camps.values())
    gate_num, gate_den = gate.as_integer_ratio()
    terms = []
    for fid in sorted(node_facts):
        skip = lacking.get(fid)
        if skip is None:
            g = _vd_groups(camps.values(), grand)
        else:
            vd, cf = skip
            camps[vd] -= cf
            g = _vd_groups(camps.values(), grand - cf)
            camps[vd] += cf
        if not g:
            continue
        w_num, w_den = weights[fid].as_integer_ratio()
        num, d = g * w_num, den * w_den
        if num * gate_den > gate_num * d:
            terms.append(publish(Fraction(num, d)))
    if not terms:
        return ZERO, False
    return publish(clamp01(fsum(terms) / (len(node_facts) - 1))), True


def carryover_single(entry: DecisionEntry, w, alpha,
                     publish=None) -> Optional[DecisionEntry]:
    """Carry a disease present in exactly one constituent, or drop it.

    The truth value survives unchanged; the credibility is the weighted
    contribution, which must clear the gate for the disease to appear
    at all.
    """
    publish = publish or _identity
    product = entry.cf * frac(w)
    if product <= _alpha(alpha):
        return None
    return DecisionEntry(entry.disease, entry.vd, publish(clamp01(product)),
                         tv=entry.tv)


# --- per-node orchestration -------------------------------------------------

def node_decisions(node_facts: FrozenSet[int],
                   predecessors: Sequence[Tuple[FrozenSet[int], Mapping[str, DecisionEntry]]],
                   weights_for, alpha, publish=None,
                   external: Optional[Mapping[str, tuple]] = None
                   ) -> Dict[str, DecisionEntry]:
    """Derive the full decision map of one composite node.

    ``predecessors`` must be the immediate predecessors in ascending
    label order.  ``external`` maps a disease to a (vd, cf, triple)
    resolved from knowledge sources supplied directly for this node's
    condition; such evidence merges with (or introduces) the decision.
    """
    node_facts = frozenset(node_facts)
    i = len(node_facts)
    gate = _alpha(alpha)
    publish = publish or _identity
    external = dict(external or {})

    diseases = set(external)
    for _, decisions in predecessors:
        diseases.update(decisions)

    out: Dict[str, DecisionEntry] = {}
    for disease in sorted(diseases):
        weights = weights_for(node_facts, disease)
        carriers = [(facts, decisions[disease])
                    for facts, decisions in predecessors
                    if disease in decisions]
        base = None  # (vd, cf) implied by the lattice alone
        if len(carriers) == 1:
            facts_c, entry = carriers[0]
            if i == 2:
                carried = carryover_single(entry, weights[next(iter(facts_c))],
                                           gate, publish=publish)
                if carried is not None:
                    base = (carried.vd, carried.cf)
            else:
                cf, ok = _cf_multi(node_facts, carriers, weights, gate, publish)
                if ok:
                    base = (entry.vd, cf)
        elif len(carriers) >= 2:
            if i == 2:
                (fa, ea), (fb, eb) = carriers
                wa = weights[next(iter(fa))]
                wb = weights[next(iter(fb))]
                if ea.cf * wa <= gate and eb.cf * wb <= gate:
                    pass
                elif ea.vd == eb.vd:
                    cf = combine_same_vd(ea.cf, wa, eb.cf, wb, gate)
                    base = (ea.vd, publish(cf))
                else:
                    vd, cf = combine_diff_vd(ea, eb, wa, wb, gate)
                    base = (vd, publish(cf))
            else:
                vd, _ = _chain([(e.vd, e.cf) for _, e in carriers])
                cf, ok = _cf_multi(node_facts, carriers, weights, gate, publish)
                if ok:
                    base = (vd, cf)

        triples = [e.tv for _, e in carriers if e.tv is not None]
        ext = external.get(disease)
        if ext is None:
            if base is not None:
                tv = None
                if triples:
                    tv = merged_truth_triple(triples)
                    tv = TruthTriple(*(publish(c) for c in tv))
                out[disease] = DecisionEntry(disease, base[0], base[1],
                                             tv=tv, weights=weights)
            continue

        ext_vd, ext_cf, ext_tv = ext
        if base is None:
            # the disease enters this node purely on direct evidence
            out[disease] = DecisionEntry(disease, ext_vd, publish(frac(ext_cf)),
                                         tv=ext_tv, weights=weights)
            continue
        tv = merged_truth_triple(triples, ext_tv) if (triples or ext_tv) else None
        if tv is not None:
            tv = TruthTriple(*(publish(c) for c in tv))
        vd, cf = merge_external(base[0], base[1], ext_vd, frac(ext_cf),
                                tv.tv3 if tv is not None else ZERO)
        out[disease] = DecisionEntry(disease, vd, publish(clamp01(cf)),
                                     tv=tv, weights=weights)
    return out


def derive(nodes, labels: Iterable[str], priorities: PriorityConfig, gate,
           publish, external: Optional[Mapping[FrozenSet[int], Mapping[str, tuple]]] = None
           ) -> Dict[str, Dict[str, DecisionEntry]]:
    """The fresh decision maps of ``labels``, derived bottom up.

    ``nodes`` maps every label to its node, and ``labels`` lists each
    label after those of its predecessors that it holds (popcount order
    does).  A predecessor reads its fresh map if it has one, and its
    stored map otherwise.  ``external`` maps a composite fact set to
    per-disease (vd, cf, triple) resolved from direct knowledge sources.
    Such evidence is consumed here, not stored on any node, so a later
    edit re-derives its cone from atomic decisions and priorities alone
    (fault F3 in ``bench/README.md``).
    """
    external = external or {}
    fresh: Dict[str, Dict[str, DecisionEntry]] = {}
    for label in labels:
        node = nodes[label]
        preds = [(nodes[p].condition, fresh[p] if p in fresh else nodes[p].decisions)
                 for p in node.predecessors]
        fresh[label] = node_decisions(node.condition, preds, priorities.weights_for,
                                      gate, publish=publish,
                                      external=external.get(node.condition))
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
    updates = derive(kb.nodes, labels, priorities, gate,
                     publish2 if round2 else _identity, external)
    return kb.with_updates(updates, alpha=gate, priorities=priorities,
                           round2=round2, declare=set().union(*external.values()))
