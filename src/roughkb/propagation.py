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
intermediates that mode is defined over.  At level 3 and above one
integer pass per node and disease computes the prevailing truth value,
the credibility and the truth-triple mean, and builds one Fraction per
result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from . import errors
from ._num import ONE, ZERO, clamp01, frac, publish2
from .evidence import TruthTriple, TruthValue


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

    __slots__ = ("global_priorities", "scoped", "_values")

    def __init__(self, global_priorities=None, scoped=None):
        # each weight value Fraction(p, total), built once; not part of equality
        self._values: Dict[Tuple[int, int], Fraction] = {}
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

    def priorities_for(self, facts: FrozenSet[int], disease: str
                       ) -> Tuple[Dict[int, int], int]:
        """The facts' integer priorities for a disease, and their sum.

        The map may be the stored scoped entry: callers must not edit it.
        """
        prio = self.scoped.get((facts, disease))
        if prio is None:
            glob = self.global_priorities
            prio = ({f: glob.get((disease, f), 1) for f in facts} if glob
                    else dict.fromkeys(facts, 1))
        return prio, sum(prio.values())

    def weights_for(self, facts: FrozenSet[int], disease: str) -> Dict[int, Fraction]:
        return self._weights(*self.priorities_for(frozenset(facts), disease))

    def _weights(self, prio: Mapping[int, int], total: int) -> Dict[int, Fraction]:
        """A fresh weights map whose values come from the cache."""
        values = self._values
        weights = {}
        for f, p in prio.items():
            w = values.get((p, total))
            if w is None:
                w = values[p, total] = Fraction(p, total)
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


# every value publish2 gives in [0, 1], by its numerator over 100
_HUNDREDTHS = tuple(Fraction(h, 100) for h in range(101))


def _hundredths(h: int) -> Fraction:
    # a hand-edited file may hold a truth component outside [0, 1]
    return _HUNDREDTHS[h] if 0 <= h <= 100 else Fraction(h, 100)


def _mean_triple(triples: Sequence[TruthTriple], round2: bool,
                 external: Optional[TruthTriple] = None) -> TruthTriple:
    """Component-wise mean of the constituent triples (plus external).

    The 3·k components are summed as integers over their lcm, and each
    mean is one ratio of integers, published in the two-decimal mode.
    """
    items = list(triples)
    if external is not None:
        items.append(external)
    if not items:
        raise errors.OutOfRange("need at least one triple to merge")
    ratios = [c.as_integer_ratio() for t in items for c in t]
    den = lcm(*[d for _, d in ratios])
    scaled = [num * (den // d) for num, d in ratios]
    sums = (sum(scaled[0::3]), sum(scaled[1::3]), sum(scaled[2::3]))
    den *= len(items)
    if round2:
        return TruthTriple(*(_hundredths((200 * s + den) // (2 * den)) for s in sums))
    return TruthTriple(*(Fraction(s, den) for s in sums))


# --- multi-constituent combination (level >= 3) -----------------------------


def _cf_multi(carriers, prio: Mapping[int, int], total: int, gate: Fraction,
              round2: bool) -> Tuple[int, Fraction, bool]:
    """Prevailing truth value, credibility and pass flag at level >= 3.

    ``carriers`` lists ``(lacking fact, entry)`` in ascending label
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
    ratios = [entry.cf.as_integer_ratio() for _, entry in carriers]
    den = lcm(*[d for _, d in ratios])
    camps = [0, 0, 0]
    lacking = {}
    vd = top = None
    for (fid, entry), (num, d) in zip(carriers, ratios):
        cf = num * (den // d)
        nxt = entry.vd
        camps[nxt] += cf
        lacking[fid] = (nxt, cf)
        # the chain carries the running maximum, so a later weaker entry
        # cannot flip an established verdict; 0 against 2 is inconclusive
        if vd is None:
            vd, top = nxt, cf
        elif nxt == vd:
            top = max(top, cf)
        elif nxt + vd == 2:
            vd, top = TruthValue.INCONCLUSIVE, max(top, cf)
        elif cf > top:
            vd, top = nxt, cf
        elif cf == top:
            vd = TruthValue.INCONCLUSIVE
    grand = sum(camps)
    whole = abs(2 * max(camps) - grand)
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
            camps[v] -= cf
            g = abs(2 * max(camps) - grand + cf)
            camps[v] += cf
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


def carryover_single(entry: DecisionEntry, w, alpha,
                     round2: bool = False) -> Optional[DecisionEntry]:
    """Carry a disease present in exactly one constituent, or drop it.

    The truth value survives unchanged; the credibility is the weighted
    contribution, which must clear the gate for the disease to appear
    at all.
    """
    product = entry.cf * frac(w)
    if product <= _alpha(alpha):
        return None
    cf = clamp01(product)
    return DecisionEntry(entry.disease, entry.vd, publish2(cf) if round2 else cf,
                         tv=entry.tv)


# --- per-node orchestration -------------------------------------------------

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
    i = len(node_facts)
    gate = _alpha(alpha)
    external = external or {}
    # each predecessor is the node less one fact
    preds = [(min(node_facts - facts), decisions) for facts, decisions in predecessors]

    diseases = set(external)
    for _, decisions in preds:
        diseases.update(decisions)

    out: Dict[str, DecisionEntry] = {}
    for disease in sorted(diseases):
        prio, total = priorities.priorities_for(node_facts, disease)
        weights = priorities._weights(prio, total)
        carriers = [(fid, decisions[disease]) for fid, decisions in preds
                    if disease in decisions]
        base = None  # (vd, cf) implied by the lattice alone
        if i > 2:
            if carriers:
                vd, cf, ok = _cf_multi(carriers, prio, total, gate, round2)
                if ok:
                    base = (vd, cf)
        elif len(carriers) == 1:
            # a level-2 carrier holds the one fact it does not lack
            fid, entry = carriers[0]
            (own,) = node_facts - {fid}
            carried = carryover_single(entry, weights[own], gate, round2=round2)
            if carried is not None:
                base = (carried.vd, carried.cf)
        elif carriers:
            (la, ea), (lb, eb) = carriers
            # each carrier holds the one fact the other lacks
            wa, wb = weights[lb], weights[la]
            if ea.cf * wa <= gate and eb.cf * wb <= gate:
                pass
            elif ea.vd == eb.vd:
                base = (ea.vd, combine_same_vd(ea.cf, wa, eb.cf, wb, gate))
            else:
                base = combine_diff_vd(ea, eb, wa, wb, gate)
            if base is not None and round2:
                base = (base[0], publish2(base[1]))

        triples = [e.tv for _, e in carriers if e.tv is not None]
        ext = external.get(disease)
        if ext is None:
            if base is not None:
                tv = _mean_triple(triples, round2) if triples else None
                out[disease] = DecisionEntry(disease, base[0], base[1],
                                             tv=tv, weights=weights)
            continue

        ext_vd, ext_cf, ext_tv = ext
        ext_cf = frac(ext_cf)
        if base is None:
            # the disease enters this node purely on direct evidence
            out[disease] = DecisionEntry(disease, ext_vd,
                                         publish2(ext_cf) if round2 else ext_cf,
                                         tv=ext_tv, weights=weights)
            continue
        tv = (_mean_triple(triples, round2, ext_tv)
              if (triples or ext_tv is not None) else None)
        vd, cf = merge_external(base[0], base[1], ext_vd, ext_cf,
                                tv.tv3 if tv is not None else ZERO)
        cf = clamp01(cf)
        out[disease] = DecisionEntry(disease, vd, publish2(cf) if round2 else cf,
                                     tv=tv, weights=weights)
    return out


def derive(nodes, labels: Iterable[str], priorities: PriorityConfig, gate,
           round2: bool, external: Optional[Mapping[FrozenSet[int], Mapping[str, tuple]]] = None
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
        fresh[label] = node_decisions(node.condition, preds, priorities, gate,
                                      round2=round2,
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
    updates = derive(kb.nodes, labels, priorities, gate, round2, external)
    return kb.with_updates(updates, alpha=gate, priorities=priorities,
                           round2=round2, declare=set().union(*external.values()))
