"""Quality measures of minimized rules and their algebraic identities.

All four measures are ratios of summed credibility factors, taken over
different slices of the lattice: the rule's own constituents, the
disease's whole mass, and the disease's mass at one truth value.
Rules are measured in one place, ``generate_rules``: it takes every
disease's mass from one pass over the lattice (``_masses``), sums each
stored region once per truth value from its int over masks
(``lattice._minterms``), in ascending mask order (``_vd_sums``), joins
the sums of a rule's regions and takes the rule's measures from them
through ``measure``.  ``check_properties`` reads its regions the same
way, so a malformed label raises the same OutOfRange on both paths.
Each label's credibility is summed once: a region that holds every
label of its disease at a truth value, as the regions of
``approximations`` do, takes the disease's sum there.  Each sum runs on
integers through ``fsum``.
Arithmetic is exact (fractions), so the identity checks compare against
a tolerance only for the caller's peace of mind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import errors
from ._num import ONE, ZERO, fsum
from ._record import Record, set_field
from .evidence import TruthValue
from .lattice import _bit_positions, _minterms, _skeleton
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


# A disease's mass and its number of decided labels at each truth value
Masses = Dict[str, Tuple[DiseaseMass, Tuple[int, int, int]]]
_NO_MASS = ((ZERO, (ZERO, ZERO, ZERO)), (0, 0, 0))


def _masses(kb) -> Masses:
    """One pass over the decided nodes: each disease's mass, as ``(total,
    by_vd)``, and its labels counted per truth value."""
    cfs: Dict[str, Tuple[List[Fraction], ...]] = {}
    for entries in kb.decisions.values():
        for disease, entry in entries.items():
            by_vd = cfs.get(disease)
            if by_vd is None:
                by_vd = cfs[disease] = ([], [], [])
            by_vd[entry.vd].append(entry.cf)
    masses = {}
    for disease, by_vd in cfs.items():
        sums = tuple(map(fsum, by_vd))
        masses[disease] = (fsum(sums), sums), tuple(map(len, by_vd))
    return masses


def _entries(kb, region: int, disease: str) -> list:
    """The decisions for the disease of the region's masks, ascending.  A
    mask without one raises DanglingLabel naming the label of the least
    such mask."""
    decisions = kb.decisions
    masks = _bit_positions(region)
    try:
        return [decisions[mask][disease] for mask in masks]
    except KeyError:
        mask = next(mask for mask in masks if disease not in decisions.get(mask, ()))
    raise errors.DanglingLabel("node %s carries no decision for %r"
                               % (_skeleton(kb.n).labels[mask], disease))


def _vd_sums(kb, region: int, disease: str, masses: Masses) -> Tuple[Fraction, Fraction, Fraction]:
    """One pass over the region's masks: their credibility summed at each
    truth value.  Where they hold as many labels at a truth value as the
    disease has (``masses``), they hold all of them, and the disease's sum
    there is theirs."""
    cfs: Tuple[List[Fraction], ...] = ([], [], [])
    for entry in _entries(kb, region, disease):
        cfs[entry.vd].append(entry.cf)
    (_, sums), sizes = masses.get(disease, _NO_MASS)
    return tuple([sums[vd] if len(c) == sizes[vd] else fsum(c) for vd, c in enumerate(cfs)])


def measure(vd: TruthValue, sums, mass: DiseaseMass) -> Optional[RuleMetrics]:
    """All four measures of a rule concluding ``vd`` whose source labels
    sum to ``sums`` per truth value, in a disease of ``mass``
    (``_masses``); None when the disease's mass or the sources'
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

    masses = _masses(kb)
    for disease, sets in _regions(approx):
        mass, by_vd = masses.get(disease, _NO_MASS)[0]
        for labels, vd in ((sets.lower1, TruthValue.PRESENT),
                           (sets.lower2, TruthValue.ABSENT)):
            if not labels or mass == 0:
                continue
            cfs = [entry.cf for entry in _entries(kb, _minterms(labels, kb.n), disease)]
            class_cf = fsum(cfs)
            vd_mass = by_vd[vd]
            if class_cf == 0 or vd_mass == 0:
                continue
            strengths = [cf / mass for cf in cfs]
            certainties = [cf / class_cf for cf in cfs]
            coverages = [cf / vd_mass for cf in cfs]
            sum_e = fsum(strengths)
            sum_z = fsum(certainties)
            sum_v = fsum(coverages)

            expect(1, disease, vd, sum_z, ONE)
            expect(2, disease, vd, sum_v, ONE)
            expect(3, disease, vd, sum_z * (class_cf / mass), sum_e)
            expect(4, disease, vd, sum_v * (vd_mass / mass), sum_e)
            for strength, certainty, coverage in zip(strengths, certainties, coverages):
                expect(5, disease, vd, certainty, strength / sum_e)
                expect(6, disease, vd, coverage, strength / (vd_mass / mass))
    return PropertyReport(checked, tuple(failures))
