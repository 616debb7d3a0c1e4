"""Credibility propagation from constituent rules to composite rules.

Every node above level 1 derives its per-disease truth value and
credibility factor from its immediate predecessors: pairwise rules at
level 2, a prevailing-value chain plus per-fact aggregation at level 3
and above, and an optional merge with evidence supplied directly for
the composite condition.  All arithmetic is exact; a ``round2`` flag
selects the two-decimal mode, which publishes (``_num.publish2``) the
intermediates that mode is defined over.

``derive`` is the one entry point of derivation: ``propagate`` runs it
over every composite level, and an edit over its cone.  It takes the
masks a level at a time, and a level a disease at a time.  A node is
the mask that keys it in the lattice, with its fact ids read from the
order's table, and its predecessors are the masks less one bit.  Each
predecessor's decisions are read once into integer records keyed by
disease and mask, ``(vd, cf numerator, cf denominator, truth record)``,
the truth record being the triple's three numerators over one
denominator (None for no triple); only the level below is kept.

Each node and disease is folded in ``derive``'s own loop, on integers:
one pass over the carriers (the predecessors that carry the disease, in
ascending mask order) puts each cf on their common denominator, folds
the prevailing-value chain, sums the three camps and sums the truth
records; at level 3 and above one more pass gates, weighs and sums each
fact's term, and at level 2 ``_level2`` applies the pairwise rule.
Direct evidence, read into a record too, joins the truth sums and
merges with the result.  ``derive`` does no Fraction arithmetic.

Each call keeps a value table, dropped when it returns: one
``TruthTriple`` per distinct truth record, and per disease one
``DecisionEntry`` and record per distinct record.  Derived decisions
repeat (the lattice of ``random_kb(random.Random(14), 14,
round2=True)`` in ``tests/conftest.py`` holds 49,132 entries in 542
objects), so equal triples and equal entries of a disease are one
object, built once, and a record's integers become a Fraction only
then.
"""

from __future__ import annotations

import re
from collections import abc
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from . import errors
from ._num import ZERO, Converted, frac, ratio
from .evidence import TruthTriple, TruthValue

TruthRecord = Tuple[int, int, int, int]
Record = Tuple[TruthValue, int, int, Optional[TruthRecord]]

# a disease or fact name token, as both text formats spell it
_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _disease(name) -> str:
    """A disease name as both text formats can spell it, or OutOfRange."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise errors.OutOfRange("bad disease name %r" % (name,))
    return name


def _fact_id(value) -> int:
    """A fact id as given, or UnknownFact: only an int that is not a
    bool names a fact."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise errors.UnknownFact("no fact with id %r" % (value,))
    return value


def _fact_set(facts, what: str) -> FrozenSet[int]:
    """A collection of ``_fact_id``s as a set, or OutOfRange for anything else."""
    try:
        return frozenset(map(_fact_id, facts))
    except TypeError:  # not iterable
        raise errors.OutOfRange("%s %r are not a collection" % (what, facts)) from None


def _alpha(value) -> Fraction:
    """The gate under which a credibility/weight product counts as zero."""
    value = frac(value)
    if not 0 <= value.numerator <= value.denominator:
        raise errors.OutOfRange("alpha %s outside [0, 1]" % value)
    return value


class DecisionEntry:
    """One disease decision attached to a node.

    With the owning node's condition this is the full rule tuple:
    condition facts, disease, truth triple, ternary truth value and
    credibility factor.  The per-fact weights are not stored; the
    lattice's ``PriorityConfig.weights_for`` derives them.  ``tv`` may be
    None for decisions set by hand rather than derived from evidence.

    An entry is a value: ``derive`` hands one entry to every node whose
    decision for the disease is equal, and lattices share unchanged
    entries, so an entry must never be mutated (``replace`` makes a new
    one).
    """

    __slots__ = ("disease", "vd", "cf", "tv")

    def __init__(self, disease, vd, cf, tv=None):
        self.disease = _disease(disease)
        try:
            self.vd = TruthValue(vd)
        except ValueError:
            raise errors.OutOfRange("truth value must be 0, 1 or 2, got %r" % (vd,))
        self.cf = frac(cf)
        if not 0 <= self.cf.numerator <= self.cf.denominator:
            raise errors.OutOfRange("credibility %s outside [0, 1]" % self.cf)
        if tv is not None and not isinstance(tv, TruthTriple):
            try:
                tv = TruthTriple(*tv)
            except TypeError:  # not iterable
                raise errors.OutOfRange("truth triple %r is not a sequence of three"
                                        % (tv,)) from None
        self.tv = tv

    @classmethod
    def _checked(cls, disease: str, vd: TruthValue, cf: Fraction,
                 tv: Optional[TruthTriple]) -> "DecisionEntry":
        """An entry of values each already checked where it entered.

        Derivation checks a kernel's cf on its integers; ``load_kb``
        checks each distinct token once per load.  The slots are
        assigned as given.
        """
        entry = object.__new__(cls)
        entry.disease = disease
        entry.vd = vd
        entry.cf = cf
        entry.tv = tv
        return entry

    def replace(self, **kw):
        args = {s: getattr(self, s) for s in self.__slots__}
        args.update(kw)
        return DecisionEntry(**args)

    def __eq__(self, other):
        return (isinstance(other, DecisionEntry)
                and other.disease == self.disease and other.vd == self.vd
                and other.cf == self.cf and other.tv == self.tv)

    def __repr__(self):
        return ("DecisionEntry(%r, vd=%d, cf=%s)"
                % (self.disease, self.vd, self.cf))


class PriorityConfig:
    """Integer fact priorities, from which every fact weight is derived.

    Two layers: ``scoped`` priorities keyed by (fact set, disease) pin
    the weights of one node/disease pair; ``global_priorities`` keyed by
    (disease, fact) apply wherever no scoped entry matches.  Facts with
    no priority default to 1, and weights are the priorities normalized
    over the node's facts.  A fact id is an int that is not a bool
    (UnknownFact otherwise); keys that are not pairs, mappings that are
    not mappings and priorities that are not positive ints raise
    OutOfRange.
    """

    __slots__ = ("global_priorities", "scoped", "_tables")

    def __init__(self, global_priorities=None, scoped=None):
        # not part of equality: per disease, its global priorities by fact
        # and its scoped (priorities, total) by fact set
        self._tables: Dict[str, tuple] = {}
        self.global_priorities = {}
        for key, p in _items(global_priorities, "global priorities"):
            disease, fid = _pair(key, "global priority", "(disease, fact id)")
            disease, fid = _disease(disease), _fact_id(fid)
            self.global_priorities[(disease, fid)] = p = self._check(p)
            self._tables.setdefault(disease, ({}, {}))[0][fid] = p
        self.scoped = {}
        for key, prio in _items(scoped, "scoped priorities"):
            facts, disease = _pair(key, "scoped priority", "(fact ids, disease)")
            facts, disease = _fact_set(facts, "scoped priority facts"), _disease(disease)
            prio = {_fact_id(f): self._check(p)
                    for f, p in _items(prio, "scoped priorities of a fact set")}
            if not facts or set(prio) != set(facts):
                raise errors.OutOfRange(
                    "scoped priorities must cover a nonempty fact set exactly")
            self.scoped[(facts, disease)] = prio
            self._tables.setdefault(disease, ({}, {}))[1][facts] = prio, sum(prio.values())

    @staticmethod
    def _check(p):
        if isinstance(p, bool) or not isinstance(p, int) or p < 1:
            raise errors.OutOfRange("priorities are positive integers, got %r" % (p,))
        return p

    def _row(self, disease, n: int) -> Tuple[List[int], Mapping[FrozenSet[int], tuple]]:
        """A disease's priorities by fact id 0..n, 1 where none is named, and
        its scoped (priorities, total) by fact set (not to be edited): a node
        takes its scoped entry if it has one, else the row over its facts."""
        glob, scoped = self._tables.get(disease, _NO_TABLE)
        row = [1] * (n + 1)
        for f, p in glob.items():
            if 0 < f <= n:
                row[f] = p
        return row, scoped

    def weights_for(self, facts: FrozenSet[int], disease: str) -> Dict[int, Fraction]:
        """Each fact's weight p/total at the node of ``facts``; {} for none.
        A fact is an int above 0 unless a scoped priority names the set
        (UnknownFact otherwise); facts that are not a collection raise
        OutOfRange, and a disease that is not text UnknownDisease."""
        if not isinstance(disease, str):
            raise errors.UnknownDisease("no disease %r in this knowledge base" % (disease,))
        facts = _fact_set(facts, "facts")
        row, scoped = self._row(disease, max(facts, default=0))
        if facts not in scoped and min(facts, default=1) < 1:
            raise errors.UnknownFact("no fact with id %r" % (min(facts),))
        prio, total = scoped.get(facts) or (row, sum(map(row.__getitem__, facts)))
        return {f: Fraction(prio[f], total) for f in facts}

    def diseases(self):
        """The diseases some global or scoped priority names."""
        return self._tables.keys()

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


_NO_TABLE = ({}, {})  # the table of a disease no priority names


def _totals(row: List[int]) -> List[int]:
    """Each mask's priority total under ``row``, the priorities by fact
    id: the masks with fact f's bit are those below it, each plus
    ``row[f]``."""
    totals = [0]
    for p in row[1:]:
        totals += [total + p for total in totals]
    return totals


def _items(value, what: str):
    """The (key, value) pairs of a mapping, or of None as no pairs."""
    try:
        return dict(value or {}).items()
    except (TypeError, ValueError):
        raise errors.OutOfRange("%s must be a mapping, got %r" % (what, value)) from None


def _pair(key, what: str, shape: str) -> tuple:
    """A key that is a pair, or OutOfRange."""
    if not (isinstance(key, tuple) and len(key) == 2):
        raise errors.OutOfRange("a %s key is a %s pair, got %r" % (what, shape, key))
    return key


# --- integer records --------------------------------------------------------

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


# --- the pairwise rule (level 2) --------------------------------------------

def _cf(num: int, den: int, round2: bool) -> Tuple[int, int]:
    """A nonnegative ``num / den`` clamped at 1, as a record's cf: published
    over 100 in the two-decimal mode, else in lowest terms."""
    if num >= den:
        return (100, 100) if round2 else (1, 1)
    if round2:
        return (200 * num + den) // (2 * den), 100
    g = gcd(num, den)
    return num // g, den // g


def _level2(carriers, facts: Iterable[int], prio: Mapping[int, int], total: int,
            gate: Fraction, round2: bool) -> Optional[Tuple[TruthValue, int, int]]:
    """Truth value and credibility of a level-2 node as a record's, or None.

    ``carriers`` lists ``(lacking fact, record)`` in ascending mask
    order, and fact f weighs ``prio[f] / total``.  A carrier's term is
    its credibility times the weight of the fact it holds, on the
    carriers' common denominator.  Two terms that clear the gate add
    when the carriers agree and offset when they do not, one carries
    alone, and None passes when neither does.  Disagreeing carriers pass
    up the truth value of the higher unweighted credibility; 0 against
    2, or a tie, is inconclusive.
    """
    fa, (vd, na, da, _) = carriers[0]
    agree = True
    if len(carriers) == 1:
        # a lone carrier holds the one fact it does not lack
        (own,) = [f for f in facts if f != fa]
        a, b, scale = na * prio[own], 0, da * total
    else:
        fb, (vb, nb, db, _) = carriers[1]
        den = da if da == db else lcm(da, db)
        ca, cb = na * (den // da), nb * (den // db)
        # each carrier holds the one fact the other lacks
        a, b, scale = ca * prio[fb], cb * prio[fa], den * total
        if vb != vd:
            agree = False
            if vd + vb == 2 or ca == cb:
                vd = TruthValue.INCONCLUSIVE
            elif cb > ca:
                vd = vb
    # a term passes when term * gate_den > gate_num * scale
    gate_num, gate_den = gate.as_integer_ratio()
    bar = gate_num * scale
    a_ok, b_ok = a * gate_den > bar, b * gate_den > bar
    if a_ok and b_ok:
        num = a + b if agree else abs(a - b)
    elif a_ok or b_ok:
        num = a if a_ok else b
    else:
        return None
    return (vd, *_cf(num, scale, round2))


# --- the value table --------------------------------------------------------

# every value publish2 gives in [0, 1], by its numerator over 100
_HUNDREDTHS = tuple(Fraction(h, 100) for h in range(101))


def _hundredths(h: int) -> Fraction:
    # a hand-edited file may hold a truth component outside [0, 1]
    return _HUNDREDTHS[h] if 0 <= h <= 100 else ratio(h, 100)


def _triple(record: TruthRecord) -> TruthTriple:
    """The truth triple of a record, shared hundredths over 100."""
    n1, n2, n3, den = record
    if den == 100:
        parts = _hundredths(n1), _hundredths(n2), _hundredths(n3)
    else:
        parts = ratio(n1, den), ratio(n2, den), ratio(n3, den)
    # tuple.__new__ skips TruthTriple's coercion of exact components
    return tuple.__new__(TruthTriple, parts)


def _evidence(external, n: int) -> Dict[int, Dict[str, Record]]:
    """Direct evidence by node mask, each disease's (vd, cf[, triple])
    read into a record through ``DecisionEntry``.  A fact that is not an
    int in 1..n raises UnknownFact; a key that is not a collection of two
    or more facts, a value that is not a mapping and anything a
    ``DecisionEntry`` refuses raise OutOfRange."""
    by_mask: Dict[int, Dict[str, Record]] = {}
    for key, values in _items(external, "external evidence"):
        try:
            facts = set(map(_fact_id, key))
        except TypeError:  # not iterable
            facts = set()
        for f in sorted(facts):
            if not 0 < f <= n:
                raise errors.UnknownFact("no fact with id %r" % (f,))
        if len(facts) < 2 or not isinstance(values, abc.Mapping):
            raise errors.OutOfRange("external evidence maps two or more facts to a map of "
                                    "diseases to (vd, cf, triple), got %r: %r" % (key, values))
        try:
            by_mask[sum(1 << (f - 1) for f in facts)] = {
                disease: _record(DecisionEntry(disease, *value))
                for disease, value in values.items()}
        except TypeError:  # a value that is not a sequence of two or three
            raise errors.OutOfRange("external evidence on %r: %r is not (vd, cf, triple)"
                                    % (key, values)) from None
    return by_mask




# the record of a carrier of no credibility
_NO_CARRIER = (TruthValue.ABSENT, 0, 1, None)


def derive(kb, masks: Iterable[int],
           external: Optional[Mapping[FrozenSet[int], Mapping[str, tuple]]] = None
           ) -> Dict[int, Dict[str, DecisionEntry]]:
    """The fresh decision maps of ``masks``, one per mask, empty or not,
    under the order, priorities, gate and rounding mode of ``kb``.

    ``masks`` lists each mask after those of its predecessors that it
    holds (popcount order does).  A predecessor is read from its fresh
    map if it has one, and from the lattice's stored map otherwise.
    ``external`` maps a composite fact set to per-disease (vd, cf,
    triple) resolved from direct knowledge sources (``_evidence`` checks
    it).  Such evidence is consumed here, not stored on any node, so a
    later edit re-derives its cone from atomic decisions and priorities
    alone (fault F3 in ``bench/README.md``).  Equal derived triples are
    one object, and so are equal derived entries of a disease (the
    module's value table).
    """
    from .lattice import _skeleton  # lattice imports this module
    fact_ids = _skeleton(kb.n).fact_ids
    stored, gate, round2 = kb.decisions, kb.alpha, kb.round2
    gate_num, gate_den = gate.as_integer_ratio()
    evidence = _evidence(external, kb.n)

    def row(disease):  # priorities by fact id, totals by mask, scoped entries by mask
        glob, scoped = kb.priorities._row(disease, kb.n)
        return glob, _totals(glob), {sum(1 << (f - 1) for f in facts): hit
                                     for facts, hit in scoped.items()}

    rows = Converted(row)
    # the value table: a triple per truth record, per disease an entry per record
    triples = Converted(_triple)
    entries: Dict[str, Dict[Record, Tuple[DecisionEntry, Record]]] = {}
    fresh: Dict[int, Dict[str, DecisionEntry]] = {}
    below: Dict[str, Dict[int, Record]] = {}   # disease -> mask -> record, one level down
    below_masks = frozenset()                  # the masks whose records below holds
    for level, run in groupby(masks, int.bit_count):
        run_nodes = []
        for mask in run:
            facts = fact_ids[mask]
            # clearing the bit of fact f, highest first, leaves the
            # predecessors in ascending mask order
            preds = {mask ^ (1 << (f - 1)): f for f in reversed(facts)}
            out = fresh[mask] = {}
            run_nodes.append((mask, facts, preds, evidence.get(mask), out))
        for pm in {pm for node in run_nodes for pm in node[2]} - below_masks:
            decisions = fresh[pm] if pm in fresh else stored.get(pm, {})
            for disease, entry in decisions.items():
                below.setdefault(disease, {})[pm] = _record(entry)
        diseases = set(below).union(*[node[3] for node in run_nodes if node[3]])
        level_records: Dict[str, Dict[int, Record]] = {}
        for disease in sorted(diseases):
            records = below.get(disease, {})
            glob, totals, scoped = rows[disease]
            made = entries.setdefault(disease, {})
            made_records = {}
            for mask, facts, preds, node_ext, out in run_nodes:
                ext = node_ext.get(disease) if node_ext else None
                # (lacking fact, record) of each predecessor that carries
                # the disease, in ascending mask order
                carriers = [(f, r) for pm, f in preds.items()
                            if (r := records.get(pm)) is not None]
                base = None
                if carriers:
                    if mask in scoped:
                        prio, total = scoped[mask]
                    else:
                        prio, total = glob, totals[mask]
                    # One pass over the carriers puts each cf on their
                    # common denominator, folds the prevailing-value chain,
                    # sums each truth-value camp, and sums the truth records
                    # over the lcm of their denominators so far.  Direct
                    # evidence joins the truth records' mean.
                    den = carriers[0][1][2]
                    for _, r in carriers:
                        if r[2] != den:
                            den = lcm(*[r[2] for _, r in carriers])
                            break
                    camps = [0, 0, 0]
                    vd, top = carriers[0][1][0], -1
                    t1 = t2 = t3 = count = 0
                    tden = 1
                    if ext is not None and ext[3] is not None:
                        t1, t2, t3, tden = ext[3]
                        count = 1
                    for _, (v, cf, d, t) in carriers:
                        if d != den:
                            cf *= den // d
                        camps[v] += cf
                        # the chain carries the running maximum, so a later
                        # weaker entry cannot flip an established verdict;
                        # 0 against 2, or a tie, is inconclusive
                        if v == vd or v + vd == 2:
                            if v != vd:
                                vd = TruthValue.INCONCLUSIVE
                            if cf > top:
                                top = cf
                        elif cf > top:
                            vd, top = v, cf
                        elif cf == top:
                            vd = TruthValue.INCONCLUSIVE
                        if t is not None:
                            a, b, c, e = t
                            if e != tden:
                                if tden % e:  # widen tden to the lcm
                                    k = e // gcd(tden, e)
                                    t1, t2, t3, tden = t1 * k, t2 * k, t3 * k, tden * k
                                k = tden // e
                                a, b, c = a * k, b * k, c * k
                            t1, t2, t3 = t1 + a, t2 + b, t3 + c
                            count += 1
                    if level == 2:
                        base = _level2(carriers, facts, prio, total, gate, round2)
                    else:
                        # Fact f's group credibility is |top - (sum - top)|
                        # over the camps less the carrier that lacks f: one
                        # camp keeps its sum, and with several the strongest
                        # is offset by the rest.  Its term is that times the
                        # weight prio[f] / total, over scale; a term passes
                        # the gate when term * gate_den > bar.
                        c0, c1, c2 = camps
                        grand = c0 + c1 + c2
                        # the strongest camp besides each one
                        others = (c1 if c1 > c2 else c2, c0 if c0 > c2 else c2,
                                  c0 if c0 > c1 else c1)
                        scale = den * total
                        half = 2 * scale
                        bar = gate_num * scale
                        acc = 0
                        passed = False
                        if len(carriers) < level:
                            # a fact no carrier lacks keeps every camp, as if
                            # lacked by a carrier of no credibility
                            carriers += [(f, _NO_CARRIER) for pm, f in preds.items()
                                         if pm not in records]
                        for f, (v, cf, d, _) in carriers:
                            if d != den:
                                cf *= den // d
                            rest = camps[v] - cf
                            other = others[v]
                            num = abs(2 * (rest if rest > other else other) - grand + cf) * prio[f]
                            if num * gate_den > bar:
                                passed = True
                                acc += (200 * num + scale) // half if round2 else num
                        if passed:
                            # the terms' sum over level - 1; in the two-decimal
                            # mode acc counts published hundredths
                            base = (vd, *_cf(acc, (100 if round2 else scale) * (level - 1),
                                             round2))
                if base is None:
                    if ext is None:
                        continue
                    # the disease enters this node purely on direct evidence
                    vd, num, den, tv_record = ext
                    num, den = _cf(num, den, round2)
                else:
                    vd, num, den = base
                    tv_record = None
                    if count:
                        # the truth records' component-wise mean: published
                        # over 100, or in lowest terms
                        tden *= count
                        if round2:
                            half = 2 * tden
                            tv_record = ((200 * t1 + tden) // half, (200 * t2 + tden) // half,
                                         (200 * t3 + tden) // half, 100)
                        else:
                            g = gcd(t1, t2, t3, tden)
                            tv_record = t1 // g, t2 // g, t3 // g, tden // g
                    if ext is not None:
                        # agreeing sides add; otherwise the stronger side
                        # less the weaker passes up its truth value, and a
                        # tie is inconclusive at the mean's third component
                        ext_vd, ext_num, ext_den, _ = ext
                        common = den if den == ext_den else lcm(den, ext_den)
                        own, other = num * (common // den), ext_num * (common // ext_den)
                        if vd == ext_vd:
                            num = own + other
                        elif own != other:
                            vd, num = (ext_vd, other - own) if other > own else (vd, own - other)
                        else:
                            vd, num, common = TruthValue.INCONCLUSIVE, 0, 1
                            if tv_record is not None:
                                num, common = max(tv_record[2], 0), tv_record[3]
                        num, den = _cf(num, common, round2)
                record = vd, num, den, tv_record
                entry = made.get(record)
                if entry is None:
                    # an exact-mode cf is in lowest terms, a two-decimal one over 100
                    cf = _hundredths(num) if den == 100 else ratio(num, den)
                    tv = None if tv_record is None else triples[tv_record]
                    entry = made[record] = DecisionEntry._checked(disease, vd, cf, tv), record
                out[disease], made_records[mask] = entry
            if made_records:
                level_records[disease] = made_records
        below, below_masks = level_records, frozenset(node[0] for node in run_nodes)
    return fresh


def propagate(kb, priorities: Optional[PriorityConfig] = None,
              external: Optional[Mapping[FrozenSet[int], Mapping[str, tuple]]] = None,
              alpha=ZERO, round2: bool = False):
    """Fill every composite level of a knowledge base, bottom up.

    The facts and stored decisions of ``kb`` go into a new lattice that
    carries the priorities, gate and rounding mode given (structural
    edits reuse them), and ``derive`` fills it.  ``external`` maps a
    composite fact set to per-disease (vd, cf, triple), which ``derive``
    merges in and does not store.

    Raises:
        UnknownFact: ``external`` names a fact that is not an int in 1..n.
        OutOfRange: ``external`` maps anything but sets of two or more
            facts to maps of diseases to (vd, cf, triple).
    """
    from .lattice import Lattice  # lattice imports this module
    kb = Lattice(kb.facts, kb.decisions, alpha=alpha, priorities=priorities, round2=round2)
    # the masks of two or more bits, by level
    composite = sorted([m for m in range(1 << kb.n) if m & (m - 1)], key=int.bit_count)
    return kb.with_updates(derive(kb, composite, external))
