"""Powerset lattice of fact combinations: construction and editing.

A knowledge base of order n has a node for each of the 2**n fact
subsets, one level per subset size, but stores only the decision maps
of the subsets that carry decisions, keyed by bit mask (fact f owns
bit f - 1).  A node's label, its mask's n binary digits, is text made
or read only at the edges: files, ``kb.node``, ``modify_node`` and the
``roughset`` regions.  This module owns that format: other modules read
labels, masks and fact ids from ``_skeleton(n)``, the order's one label
table.

Structural edits (fact insertion/deletion, node modification) return
new lattices through the constructor, or through ``with_updates``,
which checks only the maps it replaces; decision maps and entries are
treated as immutable, so unchanged ones are shared.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import errors
from ._num import ZERO
from ._record import Record, set_field
from .propagation import DecisionEntry, PriorityConfig, _alpha, _fact_id
# bench/tracing.py wraps this name to count cone re-derivation apart from propagate
from .propagation import derive as _repropagate

DEFAULT_ORDER_CAP = 16

Decisions = Mapping[int, Mapping[str, DecisionEntry]]


class Fact(Record):
    """An atomic condition: one observed attribute/value pair."""

    __slots__ = ("id", "attribute", "value")

    def __init__(self, id: int, attribute: str, value: str):
        set_field(self, "id", id)
        set_field(self, "attribute", attribute)
        set_field(self, "value", value)


class Head(NamedTuple):
    """Entry record of a lattice: level count and the entry label."""

    level_count: int
    entry: str


# --- label arithmetic -------------------------------------------------------

def facts_of(label: str) -> FrozenSet[int]:
    n = len(label)
    return frozenset(n - i for i, ch in enumerate(label) if ch == "1")


def level_of(label: str) -> int:
    return label.count("1")


def _cone(mask: int, n: int) -> List[int]:
    """The masks strictly containing ``mask`` in order n, by (level, mask)."""
    return sorted([mask | sub for sub in range(1, 1 << n) if not sub & mask], key=int.bit_count)


def _mask(n: int, label) -> int:
    """The mask of an order-n label, or DanglingLabel."""
    try:
        return _skeleton(n).masks[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise errors.DanglingLabel("no node labelled %r" % (label,)) from None


# --- storage ----------------------------------------------------------------

class LatticeNode:
    """One fact subset with its per-disease decisions.

    The Hasse neighbours are not stored: ``predecessors`` and
    ``successors`` follow from the label by one-bit edits, in ascending
    label order.
    """

    __slots__ = ("label", "condition", "decisions")

    def __init__(self, label, condition, decisions):
        self.label = label
        self.condition = frozenset(condition)
        self.decisions = dict(decisions)

    @property
    def level(self) -> int:
        return level_of(self.label)

    @property
    def predecessors(self) -> Tuple[str, ...]:
        """Labels one level down: clear each set bit, leftmost first."""
        label = self.label
        return tuple(label[:i] + "0" + label[i + 1:]
                     for i, ch in enumerate(label) if ch == "1")

    @property
    def successors(self) -> Tuple[str, ...]:
        """Labels one level up: set each clear bit, rightmost first."""
        label = self.label
        return tuple(label[:i] + "1" + label[i + 1:]
                     for i in range(len(label) - 1, -1, -1) if label[i] == "0")

    def __eq__(self, other):
        return (isinstance(other, LatticeNode)
                and other.label == self.label
                and other.condition == self.condition
                and other.decisions == self.decisions)

    def __repr__(self):
        return ("LatticeNode(%r, %d decision%s)"
                % (self.label, len(self.decisions),
                   "" if len(self.decisions) == 1 else "s"))


class Lattice:
    """Order-n knowledge base: each decided mask's decision map plus
    derivation settings.

    ``node`` and ``nodes`` build nodes on demand, so editing one changes
    no lattice.  The settings (gate, priorities, rounding mode) travel
    with the lattice so that structural edits can re-derive affected
    decisions the same way the original propagation did.  A lattice
    holds only what its file holds: empty maps are dropped, and its
    diseases are the ones its decisions and priorities name.  The
    constructor refuses an order outside 1..DEFAULT_ORDER_CAP, facts
    that are not ``Fact``s, whose ids are not ints 1..n in order, whose
    attribute or value is not text, or that repeat an id or an
    attribute/value pair, a gate outside [0, 1], priorities on facts
    outside 1..n, decisions that are not a mapping of masks to mappings,
    a key that is not an int mask of the order, and a decision that is
    not a ``DecisionEntry`` of the disease it is filed under.  Equality
    is structural -- facts, decisions, settings.
    """

    __slots__ = ("n", "facts", "decisions", "alpha", "priorities", "round2")

    def __init__(self, facts, decisions: Decisions, alpha=ZERO, priorities=None, round2=False):
        self.facts = tuple(facts)
        self.n = len(self.facts)
        _check_order(self.n)
        _check_facts(self.facts)
        self.decisions = _filed(decisions, self.n, {})
        self.alpha = _alpha(alpha)
        self.priorities = priorities = priorities if priorities is not None else PriorityConfig()
        self.round2 = bool(round2)
        # a file holds priorities on facts 1..n only
        outside = sorted({f for _, f in priorities.global_priorities if not 0 < f <= self.n}
                         | {f for facts, _ in priorities.scoped for f in facts
                            if not 0 < f <= self.n})
        if outside:
            raise errors.OutOfRange("priority on fact %d outside 1..%d" % (outside[0], self.n))

    @property
    def levels(self) -> Tuple[Tuple[str, ...], ...]:
        """The labels of each level, each level in numeric order."""
        return _skeleton(self.n).levels

    @property
    def nodes(self) -> Dict[str, LatticeNode]:
        """A fresh map of fresh nodes, every label in level order."""
        return _build_structure(self.n, self.decisions)[1]

    @property
    def head(self) -> Head:
        return Head(self.n + 1, "0" * self.n)

    def node(self, label: str) -> LatticeNode:
        mask = _mask(self.n, label)
        return LatticeNode(label, _skeleton(self.n).fact_ids[mask], self.decisions.get(mask, {}))

    def fact(self, fid: int) -> Fact:
        if 0 < _fact_id(fid) <= self.n:
            return self.facts[fid - 1]
        raise errors.UnknownFact("no fact with id %r" % (fid,))

    def diseases(self) -> Tuple[str, ...]:
        """Every disease a decision or a priority names, sorted."""
        seen = set(self.priorities.diseases())
        for entries in self.decisions.values():
            seen.update(entries)
        return tuple(sorted(seen))

    def with_updates(self, updates: Decisions) -> "Lattice":
        """Copy with some masks' decision maps replaced, an empty one
        dropping its mask.  Only the maps of ``updates`` are checked, as
        the constructor checks them; the rest are this lattice's own."""
        kb = object.__new__(Lattice)
        kb.n, kb.facts, kb.alpha, kb.priorities, kb.round2 = (
            self.n, self.facts, self.alpha, self.priorities, self.round2)
        kb.decisions = _filed(updates, self.n, dict(self.decisions))
        return kb

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and other.facts == self.facts
                and other.decisions == self.decisions
                and other.alpha == self.alpha
                and other.priorities == self.priorities
                and other.round2 == self.round2)

    def __repr__(self):
        return "Lattice(n=%d, %d nodes)" % (self.n, 1 << self.n)


class _Skeleton(NamedTuple):
    levels: Tuple[Tuple[str, ...], ...]    # the labels of each level, in numeric order
    masks: Dict[str, int]                  # each label's mask, in level order
    labels: Tuple[str, ...]                # the labels by mask
    fact_ids: Tuple[Tuple[int, ...], ...]  # each mask's fact ids, ascending


# order -> its label table, filled by the first skeleton of the order and
# kept for the life of the process: about one label string, one mask and
# one tuple of fact ids per label for each order used.  Nothing edits a
# table, so every lattice of the order shares it.
_SKELETONS: Dict[int, _Skeleton] = {}


def _skeleton(n: int) -> _Skeleton:
    """The order's label table (not to be edited); it holds no frozenset."""
    cached = _SKELETONS.get(n)
    if cached is None:
        fmt = "0%db" % n
        labels = tuple([format(mask, fmt) for mask in range(1 << n)])
        # a stable sort by popcount keeps each level in numeric order
        masks = {labels[mask]: mask for mask in sorted(range(1 << n), key=int.bit_count)}
        # a mask's fact ids are the fact of its lowest bit, then those of
        # the mask less that bit, which is filled first
        fact_ids = [()] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            fact_ids[mask] = (low.bit_length(),) + fact_ids[mask ^ low]
        in_order = iter(masks)
        levels = tuple(tuple(islice(in_order, comb(n, level))) for level in range(n + 1))
        _SKELETONS[n] = cached = _Skeleton(levels, masks, labels, tuple(fact_ids))
    return cached


def _build_structure(n: int, decisions: Optional[Decisions] = None
                     ) -> Tuple[Tuple[Tuple[str, ...], ...], Dict[str, LatticeNode]]:
    """The level tuples and a fresh map of fresh nodes holding copies of ``decisions``."""
    table = _skeleton(n)
    fact_ids, decisions = table.fact_ids, decisions or {}
    nodes = {label: LatticeNode(label, fact_ids[mask], decisions.get(mask, ()))
             for label, mask in table.masks.items()}
    return table.levels, nodes


def _filed(decisions: Decisions, n: int, filed: dict) -> dict:
    """``filed`` with each nonempty map of ``decisions`` filed under its
    mask and each mask of an empty one dropped.  Refuses a decision that
    is not a ``DecisionEntry`` of the disease it is filed under, decisions
    that are not a mapping of masks to mappings, and then the least key
    that is not an int (a bool is not one) in 0..2**n - 1."""
    dangling = []
    try:
        for mask, entries in decisions.items():
            if not entries:
                filed.pop(mask, None)
                continue
            for disease, entry in entries.items():
                if not (isinstance(entry, DecisionEntry) and entry.disease == disease):
                    raise errors.OutOfRange(
                        "decision %r at %r is not a DecisionEntry of that disease: %r"
                        % (disease, mask, entry))
            if type(mask) is not int or not 0 <= mask < 1 << n:
                dangling.append(mask)
            filed[mask] = entries
    except AttributeError:  # no items(): not a mapping
        raise errors.OutOfRange("decisions must map masks to maps of entries") from None
    if dangling:
        least = min(dangling, key=lambda key: errors.naming_key(key, int))
        raise errors.DanglingLabel("no node of order %d has mask %r" % (n, least))
    return filed


def _check_order(n: int) -> None:
    """Refuse an order that is not an int in 1..DEFAULT_ORDER_CAP, before
    2**n nodes, a 3**n-bit cube table or a 2**n-bit truth set is built."""
    if not isinstance(n, int):
        raise errors.OutOfRange("order must be an int, got %r" % (n,))
    if n < 1:
        raise errors.OutOfRange("order must be at least 1, got %d" % n)
    if n > DEFAULT_ORDER_CAP:
        raise errors.OrderTooLarge("order %d exceeds the cap of %d" % (n, DEFAULT_ORDER_CAP))


def _check_facts(facts: Tuple[Fact, ...]) -> None:
    seen_ids, seen_pairs = set(), set()
    for fact in facts:
        if not isinstance(fact, Fact):
            raise errors.OutOfRange("fact %r is not a Fact" % (fact,))
        if isinstance(fact.id, bool) or not isinstance(fact.id, int):
            raise errors.OutOfRange("fact ids must be 1..%d in order" % len(facts))
        if not (isinstance(fact.attribute, str) and isinstance(fact.value, str)):
            raise errors.OutOfRange("fact %d attribute and value must be text, got %r=%r"
                                    % (fact.id, fact.attribute, fact.value))
        if fact.id in seen_ids:
            raise errors.DuplicateFact("fact id %r appears twice" % (fact.id,))
        if (fact.attribute, fact.value) in seen_pairs:
            raise errors.DuplicateFact("fact %r=%r appears twice"
                                       % (fact.attribute, fact.value))
        seen_ids.add(fact.id)
        seen_pairs.add((fact.attribute, fact.value))
    if [fact.id for fact in facts] != list(range(1, len(facts) + 1)):
        raise errors.OutOfRange("fact ids must be 1..%d in order" % len(facts))


def _atomic_decisions(fid: int, entries: Iterable[DecisionEntry]) -> Dict[str, DecisionEntry]:
    """A fact's atomic decisions by disease; anything but a collection of
    entries, or two for one disease, raises OutOfRange."""
    decisions = {}
    try:
        entries = list(entries)
    except TypeError:  # not iterable
        raise errors.OutOfRange("fact %d decisions %r are not a collection of entries"
                                % (fid, entries)) from None
    for entry in entries:
        if not isinstance(entry, DecisionEntry):
            raise errors.OutOfRange("fact %d decision %r is not a DecisionEntry" % (fid, entry))
        if entry.disease in decisions:
            raise errors.OutOfRange(
                "fact %d carries two decisions for %r" % (fid, entry.disease))
        decisions[entry.disease] = entry
    return decisions


def build_kb(facts: Sequence[Fact],
             atomic_decisions: Mapping[int, Sequence[DecisionEntry]]) -> Lattice:
    """A lattice of the facts holding the atomic decisions.

    The facts may come in any order; the lattice lists them by id.
    Composite levels start empty; run propagation to fill them.

    Raises:
        OrderTooLarge: more facts than the materialization cap allows.
        DuplicateFact: repeated fact id or attribute/value pair.
        OutOfRange: no facts, a fact that is not a ``Fact``, fact ids
            other than 1..n, a fact's decisions that are not entries, or
            two decisions for one disease at a fact.
        UnknownFact: a decision keyed to anything but an int naming a
            fact (a bool names none).
    """
    facts = tuple(facts)
    n = len(facts)
    _check_order(n)
    # non-facts and ids of unlike types sort apart, for the constructor to refuse
    facts = sorted(facts, key=lambda fact: errors.naming_key(getattr(fact, "id", None), int))
    decisions = {}
    for fid, entries in atomic_decisions.items():
        if not 1 <= _fact_id(fid) <= n:
            raise errors.UnknownFact("atomic decisions for unknown fact %r" % (fid,))
        decisions[1 << (fid - 1)] = _atomic_decisions(fid, entries)
    return Lattice(facts, decisions)


def check_structure(kb: Lattice) -> List[str]:
    """Audit what the constructor does not refuse, decisions on the entry
    node (a file may hold them); returns problem descriptions."""
    return ["entry node carries decisions"] if 0 in kb.decisions else []


# --- structural edits -------------------------------------------------------

def insert_fact(kb: Lattice, fact: Fact, atomic: Sequence[DecisionEntry]) -> Lattice:
    """Grow the lattice by one fact, which becomes the new highest bit and
    must take id n + 1.

    Existing masks keep their keys, conditions and decisions; only the
    new nodes -- those containing the new fact -- have their decisions
    derived.
    """
    n2 = kb.n + 1
    _check_order(n2)
    decisions = {**kb.decisions, 1 << kb.n: _atomic_decisions(n2, atomic)}
    grown = Lattice(kb.facts + (fact,), decisions, alpha=kb.alpha, priorities=kb.priorities,
                    round2=kb.round2)
    return grown.with_updates(_repropagate(grown, _cone(1 << kb.n, n2)))


def delete_fact(kb: Lattice, fact_id: int) -> Lattice:
    """Shrink the lattice by one fact.

    Every node whose condition includes the fact disappears; surviving
    masks drop the fact's bit, and higher bits and fact ids (with their
    priority references) shift down by one.  The survivors' decisions
    are already independent of the removed fact, so they are kept as
    they are and none is re-derived.
    """
    kb.fact(fact_id)  # an unknown id raises there
    n2 = kb.n - 1
    if n2 == 0:
        raise errors.OutOfRange("cannot delete the last fact")
    bit = 1 << (fact_id - 1)
    low = bit - 1  # the bits of the facts below it
    facts = tuple(fact.replace(id=fact.id - 1 if fact.id > fact_id else fact.id)
                  for fact in kb.facts if fact.id != fact_id)
    decisions = {mask & low | (mask >> 1) & ~low: entries
                 for mask, entries in kb.decisions.items() if not mask & bit}
    return Lattice(facts, decisions, alpha=kb.alpha,
                   priorities=kb.priorities.without_fact(fact_id),
                   round2=kb.round2)


# --- node modification ------------------------------------------------------

class ConditionEdit(Record):
    """Rename the attribute and/or value text of an atomic condition."""

    __slots__ = ("attribute", "value")

    def __init__(self, attribute: Optional[str] = None, value: Optional[str] = None):
        set_field(self, "attribute", attribute)
        set_field(self, "value", value)


class SetDecision(Record):
    """Add or replace one disease decision at a node."""

    __slots__ = ("disease", "vd", "cf", "tv")

    def __init__(self, disease: str, vd: int, cf: object, tv: Optional[tuple] = None):
        set_field(self, "disease", disease)
        set_field(self, "vd", vd)
        set_field(self, "cf", cf)
        set_field(self, "tv", tv)


class DropDecision(Record):
    """Remove one disease decision from a node."""

    __slots__ = ("disease",)

    def __init__(self, disease: str):
        set_field(self, "disease", disease)


def modify_node(kb: Lattice, label: str, change, observer=None) -> Lattice:
    """Edit one node and ripple the consequences.

    Condition edits are only legal at level 1 and need no ripple: nodes
    reference facts by id, so every composite condition reflects the
    new text immediately.  A ``SetDecision`` without a truth triple that
    re-asserts the stored vd and cf keeps the stored triple.  A decision
    edit that leaves the node's decision map as it was, such as that
    one, returns ``kb`` itself and reports nothing.
    Other decision edits re-derive every node whose condition strictly
    contains the edited one and report the per-node differences to the
    observer, if any, via ``decisions_added(disease,
    [(label, vd)])``, ``decisions_removed(disease, [(label, vd)])`` and
    ``truth_changed(disease, label, old_vd, new_vd)``.

    Raises:
        DanglingLabel: no such node.
        IllegalConditionEdit: condition edit anywhere but level 1.
        DuplicateFact: a condition edit that repeats another fact's
            attribute/value pair.
        OutOfRange: decision edit on the entry node.
        NotPresent: dropping a decision the node does not carry.
    """
    mask = _mask(kb.n, label)
    level = mask.bit_count()

    if isinstance(change, ConditionEdit):
        if level != 1:
            raise errors.IllegalConditionEdit(
                "condition edits target level-1 nodes, %r is at level %d"
                % (label, level))
        fid = mask.bit_length()
        old = kb.fact(fid)
        new = old.replace(
            attribute=old.attribute if change.attribute is None else change.attribute,
            value=old.value if change.value is None else change.value)
        facts = tuple(new if fact.id == fid else fact for fact in kb.facts)
        return Lattice(facts, kb.decisions, alpha=kb.alpha,
                       priorities=kb.priorities, round2=kb.round2)

    if level == 0:
        raise errors.OutOfRange("the entry node carries no decisions")

    current = kb.decisions.get(mask, {})
    decisions = dict(current)
    if isinstance(change, SetDecision):
        entry = DecisionEntry(change.disease, change.vd, change.cf, tv=change.tv)
        stored = decisions.get(change.disease)
        if (entry.tv is None and stored is not None
                and (stored.vd, stored.cf) == (entry.vd, entry.cf)):
            entry = stored
        decisions[change.disease] = entry
    elif isinstance(change, DropDecision):
        if not isinstance(change.disease, str) or change.disease not in decisions:
            raise errors.NotPresent(
                "node %s carries no decision for %r" % (label, change.disease))
        del decisions[change.disease]
    else:
        raise errors.OutOfRange("unsupported change %r" % (change,))
    if decisions == current:
        return kb

    edited = kb.with_updates({mask: decisions})
    updates = _repropagate(edited, _cone(mask, kb.n))
    if observer is not None:
        _report_diff(kb, {mask: decisions, **updates}, observer)
    return edited.with_updates(updates)


def _report_diff(kb: Lattice, updates, observer):
    """Report each changed decision to the observer, by label in (level, mask) order."""
    labels = _skeleton(kb.n).labels
    events: Dict[str, Tuple[list, list, list]] = {}  # disease -> added, removed, changed
    for mask in sorted(updates, key=lambda m: (m.bit_count(), m)):
        before, after = kb.decisions.get(mask, {}), updates[mask]
        for disease in set(before) | set(after):
            added, removed, changed = events.setdefault(disease, ([], [], []))
            if disease not in before:
                added.append((labels[mask], after[disease].vd))
            elif disease not in after:
                removed.append((labels[mask], before[disease].vd))
            elif before[disease].vd != after[disease].vd:
                changed.append((labels[mask], before[disease].vd, after[disease].vd))
    for disease in sorted(events):
        added, removed, changed = events[disease]
        if added:
            observer.decisions_added(disease, added)
        if removed:
            observer.decisions_removed(disease, removed)
        for label, old_vd, new_vd in changed:
            observer.truth_changed(disease, label, old_vd, new_vd)
