"""Quality measures of minimized rules and their algebraic identities.

All four measures are ratios of summed credibility factors, taken over
different slices of the lattice: the rule's own constituents, the
disease's whole mass, and the disease's mass at one truth value.
Rules are measured in one place, ``generate_rules``: it sums each stored
region once per truth value from its masks (``_vd_sums``), joins the
sums of a rule's regions and takes the rule's measures from them
through ``measure``.  The disease's masses come from one pass over the
lattice, shared by every rule of that disease, and each sum runs on
integers through ``fsum``.
Arithmetic is exact (fractions), so the identity checks compare against
a tolerance only for the caller's peace of mind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import errors
from ._num import ONE, fsum
from ._record import Record, set_field
from .evidence import TruthValue
from .lattice import _mask, _skeleton
from .roughset import _regions

_TOL = Fraction(1, 10 ** 9)


class RuleMetrics(Record):
    """Support, strength, certainty and coverage of one rule."""

    __slots__ = ("support", "strength", "certainty", "coverage")

    def __init__(self, support: Fraction, strength: Fraction, certainty: Fraction,
                 coverage: Fraction):
        set_field(self, "support", support)
        set_field(self, "strength", strength)
        set_field(self, "certainty", certainty)
        set_field(self, "coverage", coverage)


# A disease's summed credibility: (total, per truth value indexed by vd)
DiseaseMass = Tuple[Fraction, Tuple[Fraction, Fraction, Fraction]]


def disease_mass(kb, disease: str) -> DiseaseMass:
    """One pass over the decided nodes: the disease's credibility mass,
    whole and per truth value, as ``(total, by_vd)``.  A disease that is
    not text raises UnknownDisease."""
    if not isinstance(disease, str):
        raise errors.UnknownDisease("no disease %r in this knowledge base" % (disease,))
    cfs: Tuple[List[Fraction], ...] = ([], [], [])
    for entries in kb.decisions.values():
        entry = entries.get(disease)
        if entry is not None:
            cfs[entry.vd].append(entry.cf)
    by_vd = tuple(fsum(c) for c in cfs)
    return fsum(by_vd), by_vd


def _entries(kb, masks, disease: str) -> list:
    """The masks' decisions for the disease, in the masks' order.  A mask
    without one raises DanglingLabel naming the label of the least such
    mask, so the message does not follow a set's hash order."""
    decisions = kb.decisions
    try:
        return [decisions[mask][disease] for mask in masks]
    except KeyError:
        mask = min([mask for mask in masks if disease not in decisions.get(mask, ())])
    raise errors.DanglingLabel("node %s carries no decision for %r"
                               % (_skeleton(kb.n).labels[mask], disease))


def _vd_sums(kb, masks, disease: str) -> Tuple[Fraction, Fraction, Fraction]:
    """One pass over the masks: their credibility summed at each truth value."""
    cfs: Tuple[List[Fraction], ...] = ([], [], [])
    for entry in _entries(kb, masks, disease):
        cfs[entry.vd].append(entry.cf)
    return fsum(cfs[0]), fsum(cfs[1]), fsum(cfs[2])


def measure(vd: TruthValue, sums, mass: DiseaseMass) -> Optional[RuleMetrics]:
    """All four measures of a rule concluding ``vd`` whose source labels
    sum to ``sums`` per truth value, in a disease of ``mass``
    (``disease_mass``); None when the disease's mass or the sources'
    mass at ``vd`` is zero, since a measure would divide by it.

    Support is the summed credibility of the source labels; strength
    divides it by the disease's mass, certainty by the sources' mass at
    the rule's truth value and coverage by the disease's mass at that
    value.  An inconclusive rule concludes both ways, so certainty and
    coverage carry a factor of one half, and both clamp at 1.
    """
    cf_sum, own = fsum(sums), sums[vd]
    total, by_vd = mass
    if total == 0 or own == 0:
        return None
    concluded = cf_sum / 2 if vd == TruthValue.INCONCLUSIVE else cf_sum
    # the disease's mass at vd is at least the own-value mass, so not zero
    return RuleMetrics(support=cf_sum, strength=cf_sum / total,
                       certainty=min(ONE, concluded / own),
                       coverage=min(ONE, concluded / by_vd[vd]))


# --- identity checks --------------------------------------------------------

class PropertyReport(Record):
    """Outcome of the six identity checks over every decision class."""

    __slots__ = ("checked", "failures")

    def __init__(self, checked: int, failures: Tuple[Tuple[int, str, int, str], ...]):
        set_field(self, "checked", checked)
        set_field(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_property(self) -> Dict[int, bool]:
        bad = {f[0] for f in self.failures}
        return {p: p not in bad for p in range(1, 7)}


def check_properties(kb, approx: Mapping[str, "ApproximationSets"]) -> PropertyReport:
    """Verify the probabilistic identities of the rule measures.

    For every disease and every definite truth value with nonzero
    mass, the constituent rules of the lower region form one decision
    class.  Per class, with E the per-constituent strength, Z the
    per-constituent certainty and V the per-constituent coverage:

      1. sum of Z over the class is 1
      2. sum of V over the class is 1
      3. (sum of Z) times the class share of the disease mass = sum of E
      4. (sum of V) times the truth value's share of the mass = sum of E
      5. each Z equals E normalized by the class's summed strength
      6. each V equals E normalized by the truth value class's strength

    Failures list (property, disease, vd, detail); computations are
    exact, with a 1e-9 tolerance on the comparisons.  ``approx`` is read
    as ``generate_rules`` reads it: anything but a mapping of disease
    names to regions raises OutOfRange.
    """
    checked = 0
    failures: List[Tuple[int, str, int, str]] = []

    def expect(prop, disease, vd, lhs, rhs):
        nonlocal checked
        checked += 1
        if abs(lhs - rhs) > _TOL:
            failures.append((prop, disease, int(vd),
                             "%s != %s" % (float(lhs), float(rhs))))

    for disease, sets in _regions(approx):
        mass, by_vd = disease_mass(kb, disease)
        for labels, vd in ((sets.lower1, TruthValue.PRESENT),
                           (sets.lower2, TruthValue.ABSENT)):
            if not labels or mass == 0:
                continue
            labels = sorted(labels, key=errors.naming_key)  # the least bad label raises
            entries = _entries(kb, [_mask(kb.n, label) for label in labels], disease)
            cfs = {label: entry.cf for label, entry in zip(labels, entries)}
            class_cf = fsum(cfs.values())
            vd_mass = by_vd[vd]
            if class_cf == 0 or vd_mass == 0:
                continue
            strengths = {label: cf / mass for label, cf in cfs.items()}
            certainties = {label: cf / class_cf for label, cf in cfs.items()}
            coverages = {label: cf / vd_mass for label, cf in cfs.items()}
            sum_e = fsum(strengths.values())
            sum_z = fsum(certainties.values())
            sum_v = fsum(coverages.values())

            expect(1, disease, vd, sum_z, ONE)
            expect(2, disease, vd, sum_v, ONE)
            expect(3, disease, vd, sum_z * (class_cf / mass), sum_e)
            expect(4, disease, vd, sum_v * (vd_mass / mass), sum_e)
            for label in labels:
                expect(5, disease, vd, certainties[label],
                       strengths[label] / sum_e)
                expect(6, disease, vd, coverages[label],
                       strengths[label] / (vd_mass / mass))
    return PropertyReport(checked, tuple(failures))
