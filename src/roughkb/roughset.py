"""Rough approximation of disease concepts over the lattice.

Each node is its own elementary set (labels are distinct), so the
approximation regions reduce to membership tests on the ternary truth
value: surely-present rules form the lower region of the presence
concept, surely-absent rules the lower region of the absence concept,
and inconclusive rules the shared boundary.

All outputs are value-semantic: incremental maintenance returns new
``ApproximationSets``, leaving the input intact, so that any edit
sequence can be replayed and compared against a from-scratch rebuild.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

from . import errors
from ._record import Record, set_field
from .evidence import TruthValue


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

    Three disjoint regions are stored: the two lower regions and the
    boundary the concepts share.  Each upper region is its lower region
    plus the boundary, and ``upper1``, ``upper2`` and ``boundary2`` are
    read-only views computed at each access.
    """

    __slots__ = ("lower1", "lower2", "boundary1")

    def __init__(self, lower1: FrozenSet[str], lower2: FrozenSet[str],
                 boundary1: FrozenSet[str]):
        set_field(self, "lower1", lower1)
        set_field(self, "lower2", lower2)
        set_field(self, "boundary1", boundary1)

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
    def _of(cls, by_vd) -> "ApproximationSets":
        # by_vd holds the labels filed under vd 0, 1 and 2, in that order
        absent, present, open_ = by_vd
        return cls(frozenset(present), frozenset(absent), frozenset(open_))

    def _by_vd(self) -> List[Set[str]]:
        return [set(self.lower2), set(self.lower1), set(self.boundary1)]

    @classmethod
    def from_vd_map(cls, vd_by_label) -> "ApproximationSets":
        """Build the regions from a label -> vd mapping."""
        by_vd: Tuple[List[str], ...] = ([], [], [])
        for label, vd in vd_by_label.items():
            by_vd[TruthValue(vd)].append(label)
        return cls._of(by_vd)

    def vd_of(self, label: str) -> TruthValue:
        """The truth value implied by current membership.

        Raises:
            NotPresent: the label occupies none of the regions.
        """
        if label in self.lower1:
            return TruthValue.PRESENT
        if label in self.lower2:
            return TruthValue.ABSENT
        if label in self.boundary1:
            return TruthValue.INCONCLUSIVE
        raise errors.NotPresent("label %r is in no approximation region" % (label,))


def approximations(kb, disease: str) -> ApproximationSets:
    """Lower/upper/boundary regions of both concepts of a disease.

    Raises:
        UnknownDisease: no decision or priority names the disease.
    """
    vds = {label: node.decisions[disease].vd
           for label, node in kb.nodes.items() if disease in node.decisions}
    if not vds and disease not in kb.priorities.diseases():
        raise errors.UnknownDisease("no disease %r in this knowledge base" % (disease,))
    return ApproximationSets.from_vd_map(vds)


def concepts(kb, disease: str) -> ConceptPair:
    """The presence/absence target concepts of a disease: the two upper
    regions.

    Raises:
        UnknownDisease: no decision or priority names the disease.
    """
    sets = approximations(kb, disease)
    return ConceptPair(disease, sets.upper1, sets.upper2)


def on_decisions_added(a: ApproximationSets,
                       added: Iterable[Tuple[str, int]]) -> ApproximationSets:
    """Route freshly decided nodes into the regions.

    Raises:
        AlreadyPresent: a label already occupies some region.
    """
    by_vd = a._by_vd()
    for label, vd in sorted(added):
        if any(label in labels for labels in by_vd):
            raise errors.AlreadyPresent("label %r already placed" % (label,))
        by_vd[TruthValue(vd)].add(label)
    return ApproximationSets._of(by_vd)


def on_decisions_removed(a: ApproximationSets,
                         removed: Iterable[str]) -> ApproximationSets:
    """Withdraw nodes whose decisions were deleted.

    Raises:
        NotPresent: a label occupies no region.
    """
    by_vd = a._by_vd()
    for label in sorted(set(removed)):
        by_vd[a.vd_of(label)].remove(label)
    return ApproximationSets._of(by_vd)


def on_truth_changed(a: ApproximationSets, label: str,
                     old_vd, new_vd) -> ApproximationSets:
    """Move one node between regions after its truth value changed.

    Raises:
        InvalidTransition: old and new truth values coincide.
        NotPresent: the label is absent, or filed under a different vd.
    """
    old_vd = TruthValue(old_vd)
    new_vd = TruthValue(new_vd)
    if old_vd == new_vd:
        raise errors.InvalidTransition("truth value unchanged (%d)" % old_vd)
    if a.vd_of(label) != old_vd:
        raise errors.NotPresent(
            "label %r is not filed under vd=%d" % (label, old_vd))
    step = on_decisions_removed(a, [label])
    return on_decisions_added(step, [(label, new_vd)])
