"""Rough approximation of disease concepts over the lattice.

Each node is its own elementary set (labels are distinct), so the
approximation regions reduce to membership tests on the ternary truth
value: surely-present rules form the lower region of the presence
concept, surely-absent rules the lower region of the absence concept,
and inconclusive rules the shared boundary.  ``approximations`` files
each decided label under its truth value in one pass over the lattice;
a label has one truth value, so its regions are disjoint by construction
and skip the constructor's check.  ``_regions`` takes any
``ApproximationSets`` as it is: it was checked, or disjoint by
construction, when it was built.

All outputs are value-semantic: incremental maintenance returns new
``ApproximationSets``, leaving the input intact, so that any edit
sequence can be replayed and compared against a from-scratch rebuild.
The updates work on the three stored regions as sets, without a
label -> vd map: an addition unions each region with its new labels and
a removal takes the removed labels out of each, so an update costs the
changed labels and a copy of the regions.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

from . import errors
from ._record import Record, set_field
from .evidence import TruthValue
from .lattice import _skeleton


def _vd(vd) -> TruthValue:
    """``vd`` as a TruthValue; anything but 0, 1 or 2 raises OutOfRange."""
    try:
        return TruthValue(vd)
    except ValueError:
        raise errors.OutOfRange("truth value must be 0, 1 or 2, got %r" % (vd,)) from None


def _labels(labels, message: str, into=frozenset):
    """``labels`` read into a frozenset, or into ``into``.  A str, which
    would read as one-character labels, a non-iterable and, for a
    frozenset, an unhashable label raise OutOfRange with ``message``."""
    if not isinstance(labels, str):
        try:
            return into(labels)
        except TypeError:
            pass
    raise errors.OutOfRange(message)


def _label(label):
    """``label`` itself; an unhashable label raises OutOfRange."""
    try:
        hash(label)
    except TypeError:
        raise errors.OutOfRange("label %r is not hashable" % (label,)) from None
    return label


class ConceptPair(Record):
    """The two target concepts of one disease.

    ``concept1`` collects the nodes whose rules lean towards presence
    (vd 1 or 2); ``concept2`` those leaning towards absence (vd 0 or
    2).  Inconclusive nodes sit in both.
    """

    __slots__ = ("disease", "concept1", "concept2")

    def __init__(self, disease: str, concept1: FrozenSet[str], concept2: FrozenSet[str]):
        set_field(self, "disease", disease)
        set_field(self, "concept1", concept1)
        set_field(self, "concept2", concept2)


class ApproximationSets(Record):
    """Lower/upper/boundary regions for both concepts of one disease.

    Three disjoint regions are stored as frozensets: the two lower regions
    and the boundary the concepts share; a label in two of them raises
    OutOfRange, naming the least such label.  Each upper region is its
    lower region plus the boundary, and ``upper1``, ``upper2`` and
    ``boundary2`` are read-only views computed at each access.
    """

    __slots__ = ("lower1", "lower2", "boundary1")

    def __init__(self, lower1: Iterable[str], lower2: Iterable[str],
                 boundary1: Iterable[str]):
        lower1, lower2, boundary1 = [_labels(region, "a region must be an iterable of labels")
                                     for region in (lower1, lower2, boundary1)]
        shared = lower1 & lower2 | (lower1 | lower2) & boundary1
        if shared:
            raise errors.OutOfRange("label %r is in two approximation regions"
                                    % (min(shared, key=errors.naming_key),))
        set_field(self, "lower1", lower1)
        set_field(self, "lower2", lower2)
        set_field(self, "boundary1", boundary1)

    @classmethod
    def _disjoint(cls, lower1: FrozenSet[str], lower2: FrozenSet[str],
                  boundary1: FrozenSet[str]) -> "ApproximationSets":
        """The regions of three frozensets that share no label, unchecked."""
        self = cls.__new__(cls)
        set_field(self, "lower1", lower1)
        set_field(self, "lower2", lower2)
        set_field(self, "boundary1", boundary1)
        return self

    @property
    def upper1(self) -> FrozenSet[str]:
        return self.lower1 | self.boundary1

    @property
    def upper2(self) -> FrozenSet[str]:
        return self.lower2 | self.boundary1

    @property
    def boundary2(self) -> FrozenSet[str]:
        return self.boundary1

    @classmethod
    def from_vd_map(cls, vd_by_label) -> "ApproximationSets":
        """Build the regions from a label -> vd mapping; anything but a
        mapping, or a vd other than 0, 1 or 2, raises OutOfRange."""
        if not isinstance(vd_by_label, Mapping):
            raise errors.OutOfRange("a vd map must be a mapping of labels to truth values")
        by_vd: Tuple[List[str], ...] = ([], [], [])
        for label, vd in vd_by_label.items():
            by_vd[_vd(vd)].append(label)
        absent, present, open_ = by_vd
        return cls(present, absent, open_)

    def vd_of(self, label: str) -> TruthValue:
        """The truth value implied by current membership.

        Raises:
            NotPresent: the label occupies none of the regions.
            OutOfRange: the label is not hashable.
        """
        if _label(label) in self.lower1:
            return TruthValue.PRESENT
        if label in self.lower2:
            return TruthValue.ABSENT
        if label in self.boundary1:
            return TruthValue.INCONCLUSIVE
        raise errors.NotPresent("label %r is in no approximation region" % (label,))


def _regions(approx) -> Iterator[Tuple[str, ApproximationSets]]:
    """Each disease of ``approx`` in order, with its regions read into
    ``ApproximationSets``, which checks them, when it is reached; an
    ``ApproximationSets`` was checked when it was built, and passes as it
    is.  The regions may be anything with ``lower1``, ``lower2`` and
    ``boundary1``; anything but a mapping of disease names to such
    regions raises OutOfRange."""
    if not (isinstance(approx, Mapping) and all(isinstance(d, str) for d in approx)):
        raise errors.OutOfRange("approximations must map disease names to regions")
    for disease, given in sorted(approx.items()):
        if isinstance(given, ApproximationSets):
            yield disease, given
            continue
        try:
            regions = given.lower1, given.lower2, given.boundary1
        except AttributeError:
            raise errors.OutOfRange("the regions of %r are not approximation sets: %r"
                                    % (disease, given)) from None
        yield disease, ApproximationSets(*regions)


def approximations(kb, disease: str) -> ApproximationSets:
    """Lower/upper/boundary regions of both concepts of a disease.

    Raises:
        UnknownDisease: no decision or priority names the disease, or
            it is not text.
    """
    if not isinstance(disease, str):
        raise errors.UnknownDisease("no disease %r in this knowledge base" % (disease,))
    labels = _skeleton(kb.n).labels
    # each decided label under its vd: absent, present, inconclusive
    by_vd: Tuple[List[str], ...] = ([], [], [])
    for mask, entries in kb.decisions.items():
        entry = entries.get(disease)
        if entry is not None:
            by_vd[entry.vd].append(labels[mask])
    absent, present, open_ = by_vd
    if not (absent or present or open_) and disease not in kb.priorities.diseases():
        raise errors.UnknownDisease("no disease %r in this knowledge base" % (disease,))
    # a label has one vd, so the regions are disjoint
    return ApproximationSets._disjoint(frozenset(present), frozenset(absent),
                                       frozenset(open_))


def concepts(kb, disease: str) -> ConceptPair:
    """The presence/absence target concepts of a disease: the two upper
    regions.

    Raises:
        UnknownDisease: no decision or priority names the disease, or
            it is not text.
    """
    sets = approximations(kb, disease)
    return ConceptPair(disease, sets.upper1, sets.upper2)


def on_decisions_added(a: ApproximationSets,
                       added: Iterable[Tuple[str, int]]) -> ApproximationSets:
    """Route freshly decided nodes into the regions.

    Raises:
        AlreadyPresent: a label already occupies some region.
        OutOfRange: an item is not a (label, vd) pair, a label is not
            hashable, or a vd is not 0, 1 or 2.
    """
    try:
        added = [(_label(label), _vd(vd)) for label, vd in added]
    except (TypeError, ValueError):
        raise errors.OutOfRange("decisions added must be (label, vd) pairs") from None
    regions = (a.lower2, a.lower1, a.boundary1)  # by vd
    fresh: Tuple[Set[str], ...] = (set(), set(), set())
    for label, vd in sorted(added, key=lambda pair: errors.naming_key(pair[0])):
        if any(label in placed for placed in regions + fresh):
            raise errors.AlreadyPresent("label %r already placed" % (label,))
        fresh[vd].add(label)
    absent, present, open_ = [region | new for region, new in zip(regions, fresh)]
    return ApproximationSets._disjoint(present, absent, open_)


def on_decisions_removed(a: ApproximationSets,
                         removed: Iterable[str]) -> ApproximationSets:
    """Withdraw nodes whose decisions were deleted.

    Raises:
        NotPresent: a label occupies no region.
        OutOfRange: ``removed`` is a str, or not a collection of
            hashable labels.
    """
    removed = _labels(removed, "labels removed must be a collection of labels")
    for label in sorted(removed, key=errors.naming_key):
        a.vd_of(label)  # a label in no region raises there
    return ApproximationSets._disjoint(a.lower1 - removed, a.lower2 - removed,
                                       a.boundary1 - removed)


def on_truth_changed(a: ApproximationSets, label: str,
                     old_vd, new_vd) -> ApproximationSets:
    """Move one node between regions after its truth value changed.

    Raises:
        InvalidTransition: old and new truth values coincide.
        NotPresent: the label is absent, or filed under a different vd.
        OutOfRange: a truth value is not 0, 1 or 2, or the label is not
            hashable.
    """
    old_vd = _vd(old_vd)
    new_vd = _vd(new_vd)
    if old_vd == new_vd:
        raise errors.InvalidTransition("truth value unchanged (%d)" % old_vd)
    if a.vd_of(label) != old_vd:
        raise errors.NotPresent(
            "label %r is not filed under vd=%d" % (label, old_vd))
    step = on_decisions_removed(a, [label])
    return on_decisions_added(step, [(label, new_vd)])
