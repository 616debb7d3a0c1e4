"""Quality measures of minimized rules and their algebraic identities.

All four measures are ratios of summed credibility factors, taken over
different slices of the lattice: the rule's own constituents, the
disease's whole mass, and the disease's mass at one truth value.
Arithmetic is exact (fractions), so the identity checks compare against
a tolerance only for the caller's peace of mind.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from . import errors
from ._num import ONE, ZERO
from .evidence import TruthValue

_TOL = Fraction(1, 10 ** 9)


@dataclasses.dataclass(frozen=True)
class RuleMetrics:
    """Support, strength, certainty and coverage of one rule."""

    support: Fraction
    strength: Fraction
    certainty: Fraction
    coverage: Fraction


def _entry(kb, label: str, disease: str):
    node = kb.node(label)
    entry = node.decisions.get(disease)
    if entry is None:
        raise errors.DanglingLabel(
            "node %s carries no decision for %r" % (label, disease))
    return entry


def _class_cf(kb, labels: Iterable[str], disease: str) -> Fraction:
    return sum((_entry(kb, label, disease).cf for label in labels), ZERO)


def _vd_cf(kb, labels: Iterable[str], disease: str, vd: TruthValue) -> Fraction:
    return sum((_entry(kb, label, disease).cf for label in labels
                if _entry(kb, label, disease).vd == vd), ZERO)


def _disease_mass(kb, disease: str) -> Fraction:
    total = ZERO
    for node in kb.nodes.values():
        entry = node.decisions.get(disease)
        if entry is not None:
            total += entry.cf
    return total


def _disease_vd_mass(kb, disease: str, vd: TruthValue) -> Fraction:
    total = ZERO
    for node in kb.nodes.values():
        entry = node.decisions.get(disease)
        if entry is not None and entry.vd == vd:
            total += entry.cf
    return total


def _factor(vd) -> Fraction:
    # an inconclusive rule concludes both ways, so each way carries half
    return Fraction(1, 2) if TruthValue(vd) == TruthValue.INCONCLUSIVE else ONE


def support(rule, kb) -> Fraction:
    """Summed credibility of the lattice rules minimized into this one.

    Raises:
        DanglingLabel: a source label (or its decision) is missing.
    """
    return _class_cf(kb, rule.source_labels, rule.disease)


def strength(rule, kb) -> Fraction:
    """Support over the disease's total credibility mass.

    Raises:
        ZeroMass: the disease carries no credibility anywhere.
    """
    mass = _disease_mass(kb, rule.disease)
    if mass == 0:
        raise errors.ZeroMass("disease %r has zero credibility mass" % rule.disease)
    return support(rule, kb) / mass


def certainty(rule, kb) -> Fraction:
    """Support over the constituents sharing the rule's truth value.

    Equals 1 for a rule minimized from a pure region; the inconclusive
    half-factor applies, and mixed-region ratios clamp at 1.

    Raises:
        ZeroMass: none of the constituents carry the rule's truth value.
    """
    own = _vd_cf(kb, rule.source_labels, rule.disease, TruthValue(rule.vd))
    if own == 0:
        raise errors.ZeroMass(
            "no constituent of this rule carries vd=%d" % int(rule.vd))
    return min(ONE, _factor(rule.vd) * support(rule, kb) / own)


def coverage(rule, kb) -> Fraction:
    """Support over the disease's whole mass at the rule's truth value.

    Raises:
        ZeroMass: the disease has no credibility at that truth value.
    """
    mass = _disease_vd_mass(kb, rule.disease, TruthValue(rule.vd))
    if mass == 0:
        raise errors.ZeroMass(
            "disease %r has zero mass at vd=%d" % (rule.disease, int(rule.vd)))
    return min(ONE, _factor(rule.vd) * support(rule, kb) / mass)


def measure(rule, kb) -> RuleMetrics:
    """All four measures of one rule."""
    return RuleMetrics(support=support(rule, kb), strength=strength(rule, kb),
                       certainty=certainty(rule, kb), coverage=coverage(rule, kb))


# --- identity checks --------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PropertyReport:
    """Outcome of the six identity checks over every decision class."""

    checked: int
    failures: Tuple[Tuple[int, str, int, str], ...]

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
    exact, with a 1e-9 tolerance on the comparisons.
    """
    checked = 0
    failures: List[Tuple[int, str, int, str]] = []

    def expect(prop, disease, vd, lhs, rhs):
        nonlocal checked
        checked += 1
        if abs(lhs - rhs) > _TOL:
            failures.append((prop, disease, int(vd),
                             "%s != %s" % (float(lhs), float(rhs))))

    for disease in sorted(approx):
        sets = approx[disease]
        mass = _disease_mass(kb, disease)
        for labels, vd in ((sets.lower1, TruthValue.PRESENT),
                           (sets.lower2, TruthValue.ABSENT)):
            if not labels or mass == 0:
                continue
            cfs = {label: _entry(kb, label, disease).cf for label in labels}
            class_cf = sum(cfs.values(), ZERO)
            vd_mass = _disease_vd_mass(kb, disease, vd)
            if class_cf == 0 or vd_mass == 0:
                continue
            strengths = {label: cf / mass for label, cf in cfs.items()}
            certainties = {label: cf / class_cf for label, cf in cfs.items()}
            coverages = {label: cf / vd_mass for label, cf in cfs.items()}
            sum_e = sum(strengths.values(), ZERO)

            expect(1, disease, vd, sum(certainties.values(), ZERO), ONE)
            expect(2, disease, vd, sum(coverages.values(), ZERO), ONE)
            expect(3, disease, vd,
                   sum(certainties.values(), ZERO) * (class_cf / mass), sum_e)
            expect(4, disease, vd,
                   sum(coverages.values(), ZERO) * (vd_mass / mass), sum_e)
            for label in sorted(labels):
                expect(5, disease, vd, certainties[label],
                       strengths[label] / sum_e)
                expect(6, disease, vd, coverages[label],
                       strengths[label] / (vd_mass / mass))
    return PropertyReport(checked, tuple(failures))
