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
denominator (None for no triple); only the level below is kept.  One
step per node and disease, ``_step``, runs the level's kernel on those
records and merges direct evidence, read into a record too, on
integers: ``derive`` does no Fraction arithmetic.

Each call keeps a value table, dropped when it returns: one
``TruthTriple`` per distinct truth record, and per disease one
``DecisionEntry`` and record per distinct record.  Derived decisions
repeat (the lattice of ``random_kb(random.Random(14), 14,
round2=True)`` in ``tests/conftest.py`` holds 49,132 entries in 542
objects), so equal triples and equal entries of a disease are one
object, built once, and the kernels return integers that become a
Fraction only then.
"""

from __future__ import annotations

import re
from collections import abc
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import errors
from ._num import ZERO, Converted, frac
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


# --- pairwise combination (level 2) -----------------------------------------

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
    """Truth value and credibility of a level-2 node, or None, in
    ``_cf_multi``'s form.

    A carrier's term is its credibility times the weight ``prio[f] /
    total`` of the fact it holds, on the carriers' common denominator.
    Two terms that clear the gate add when the carriers agree and offset
    when they do not, one carries alone, and None passes when neither
    does.  Disagreeing carriers pass up the truth value of the higher
    unweighted credibility; 0 against 2, or a tie, is inconclusive.
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


# every value publish2 gives in [0, 1], by its numerator over 100
_HUNDREDTHS = tuple(Fraction(h, 100) for h in range(101))


def _hundredths(h: int) -> Fraction:
    # a hand-edited file may hold a truth component outside [0, 1]
    return _HUNDREDTHS[h] if 0 <= h <= 100 else Fraction(h, 100)


def _triple(record: TruthRecord) -> TruthTriple:
    """The truth triple of a record, shared hundredths over 100."""
    n1, n2, n3, den = record
    if den == 100:
        parts = _hundredths(n1), _hundredths(n2), _hundredths(n3)
    else:
        parts = Fraction(n1, den), Fraction(n2, den), Fraction(n3, den)
    # tuple.__new__ skips TruthTriple's coercion of exact components
    return tuple.__new__(TruthTriple, parts)


def _mean_triple(records: Sequence[TruthRecord], round2: bool,
                 triples: Mapping[TruthRecord, TruthTriple]
                 ) -> Tuple[TruthTriple, TruthRecord]:
    """Component-wise mean of truth records, as a triple and its record.

    Each component is summed as integers over the records' common
    denominator (their lcm, unless they share one), and each mean is one
    ratio of integers, published in the two-decimal mode.  The record is
    in lowest terms, over 100 in that mode, so an equal mean gives an
    equal record; the triple is the one ``triples`` (a ``Converted`` of
    ``_triple``) holds for it, built the first time the record is met.
    """
    if not records:
        raise errors.OutOfRange("need at least one triple to merge")
    n1, n2, n3, dens = zip(*records)
    den = dens[0]
    if dens.count(den) == len(dens):
        s1, s2, s3 = sum(n1), sum(n2), sum(n3)
    else:
        den = lcm(*dens)
        s1 = s2 = s3 = 0
        for a, b, c, d in records:
            k = den // d
            s1 += a * k
            s2 += b * k
            s3 += c * k
    den *= len(records)
    if round2:
        half = 2 * den
        record = ((200 * s1 + den) // half, (200 * s2 + den) // half,
                  (200 * s3 + den) // half, 100)
    else:
        g = gcd(s1, s2, s3, den)
        record = (s1 // g, s2 // g, s3 // g, den // g)
    return triples[record], record


# --- multi-constituent combination (level >= 3) -----------------------------


def _cf_multi(carriers, facts: Iterable[int], prio: Mapping[int, int], total: int,
              gate: Fraction, round2: bool) -> Optional[Tuple[TruthValue, int, int]]:
    """Prevailing truth value and credibility at level >= 3, or None.

    ``carriers`` lists ``(lacking fact, record)`` in ascending mask
    order: every constituent is the node less one fact.  ``prio`` maps
    the fact id of each of the node's ``facts`` to its integer priority
    and ``total`` is their sum, so fact f weighs ``prio[f] / total``.

    One pass puts every credibility on the carriers' common denominator
    (their lcm, unless they share one), folds the prevailing-value chain
    and sums each truth-value camp.  A fact's group credibility is
    ``|top - (sum - top)|`` over the camps less the carrier that lacks it:
    one camp keeps its sum, and with several the strongest is offset by
    the rest.  Its term is that times its weight, gated and (in the
    two-decimal mode) published as an integer ratio; the result is the
    terms' sum over ``i - 1``, clamped at 1, as its numerator and
    denominator: in lowest terms, or over 100 in the two-decimal mode.
    It is None when no term clears the gate.
    """
    den = carriers[0][1][2]
    for _, r in carriers:
        if r[2] != den:
            den = lcm(*[r[2] for _, r in carriers])
            break
    camps = [0, 0, 0]
    lacking = {}
    vd = top = None
    for fid, (nxt, num, d, _) in carriers:
        cf = num if d == den else num * (den // d)
        camps[nxt] += cf
        lacking[fid] = nxt, cf
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
    # the strongest camp besides each one
    others = (max(c1, c2), max(c0, c2), max(c0, c1))
    # a term is g * p / scale, and it passes when g * p * gate_den > bar
    scale = den * total
    half = 2 * scale
    gate_num, gate_den = gate.as_integer_ratio()
    bar = gate_num * scale
    acc = 0
    ok = False
    for fid in facts:
        p = prio[fid]
        # a fact no carrier lacks keeps every camp: g is |2 max - grand|
        v, cf = lacking.get(fid, (0, 0))
        rest = camps[v] - cf
        other = others[v]
        num = abs(2 * (rest if rest > other else other) - grand + cf) * p
        if num * gate_den > bar:
            ok = True
            acc += (200 * num + scale) // half if round2 else num
    if not ok:
        return None
    lower = len(facts) - 1
    # in the two-decimal mode acc counts hundredths
    return (vd, *_cf(acc, (100 if round2 else scale) * lower, round2))


# --- per-node orchestration -------------------------------------------------

def _step(disease: str, facts: Tuple[int, ...], carriers, truths: list,
          prio: Tuple[Mapping[int, int], int], gate: Fraction, round2: bool,
          ext: Optional[Record], triples: Mapping[TruthRecord, TruthTriple],
          entries: Dict[Record, Tuple[DecisionEntry, Record]]
          ) -> Optional[Tuple[DecisionEntry, Record]]:
    """One node's entry for one disease and its record, or None.

    ``carriers`` lists ``(lacking fact, record)`` for the predecessors
    that carry the disease, in ascending mask order, and ``truths`` the
    truth records among theirs; ``prio`` is the node's fact priorities
    by fact id and their sum, and ``ext`` the record of the disease's
    direct evidence for this node, if any.  The level's kernel gives the
    lattice's (vd, cf), and ``ext`` merges with it on one denominator:
    agreeing sides add; otherwise the stronger side less
    the weaker passes up its truth value, and a tie is inconclusive at
    the merged triple's third component.  Each cf is clamped into [0, 1]
    and is the record's, over 100 in the two-decimal mode so that the
    next level's kernels meet one denominator.  ``triples`` and
    ``entries`` are the call's value table: the entry and record
    returned are the ones ``entries`` holds for an equal record, made
    the first time the record is met, so only then is the cf built as a
    Fraction.
    """
    weights, total = prio
    kernel = _cf_multi if len(facts) > 2 else _level2
    base = kernel(carriers, facts, weights, total, gate, round2) if carriers else None
    if ext is not None and ext[3] is not None:
        truths.append(ext[3])
    if base is None:
        if ext is None:
            return None
        # the disease enters this node purely on direct evidence
        vd, num, den, tv_record = ext
        num, den = _cf(num, den, round2)
    else:
        vd, num, den = base
        tv_record = _mean_triple(truths, round2, triples)[1] if truths else None
        if ext is not None:
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
    made = entries.get(record)
    if made is None:
        cf = _hundredths(num) if den == 100 else Fraction(num, den)
        tv = None if tv_record is None else triples[tv_record]
        made = entries[record] = DecisionEntry._checked(disease, vd, cf, tv), record
    return made


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
    evidence = _evidence(external, kb.n)

    def row(disease):  # a disease's priority row, and its scoped priorities by mask
        glob, scoped = kb.priorities._row(disease, kb.n)
        return glob, {sum(1 << (f - 1) for f in facts): hit for facts, hit in scoped.items()}

    rows = Converted(row)
    # the value table: a triple per truth record, per disease an entry per record
    triples = Converted(_triple)
    entries: Dict[str, Dict[Record, Tuple[DecisionEntry, Record]]] = {}
    fresh: Dict[int, Dict[str, DecisionEntry]] = {}
    below: Dict[str, Dict[int, Record]] = {}   # disease -> mask -> record, one level down
    below_masks = frozenset()                  # the masks whose records below holds
    for _, run in groupby(masks, int.bit_count):
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
            glob, scoped = rows[disease]
            made = entries.setdefault(disease, {})
            made_records = {}
            for mask, facts, preds, ext, out in run_nodes:
                # the carriers and their truth records, in one pass
                carriers, truths = [], []
                for pm, f in preds.items():
                    record = records.get(pm)
                    if record is not None:
                        carriers.append((f, record))
                        if record[3] is not None:
                            truths.append(record[3])
                ext = ext.get(disease) if ext else None
                if carriers or ext is not None:
                    prio = scoped.get(mask) or (glob, sum(map(glob.__getitem__, facts)))
                    step = _step(disease, facts, carriers, truths, prio,
                                 gate, round2, ext, triples, made)
                    if step is not None:
                        out[disease], made_records[mask] = step
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
