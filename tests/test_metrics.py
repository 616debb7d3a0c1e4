"""Rule quality measures and the probabilistic identity suite."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

import expected_lbp as X
import oracles
from conftest import kb_from_atomics, random_kb, seeded
from roughkb import errors, metrics, roughset
from roughkb.evidence import TruthValue
from roughkb.minimizer import generate_rules
from roughkb.roughset import ApproximationSets

F = Fraction


def _view(kb):
    return {label: {d: (int(e.vd), e.cf) for d, e in node.decisions.items()}
            for label, node in kb.nodes.items() if node.decisions}


def _fixture_rules(kb, approx):
    rules = generate_rules(kb, approx)
    return {(r.disease, int(r.vd)): r for r in rules}


def test_fixture_rule_metrics(kb_round2, approx_round2):
    by_key = _fixture_rules(kb_round2, approx_round2)
    assert set(by_key) == set(X.CERTAIN_RULES)
    for key, rule in by_key.items():
        m = rule.metrics
        assert m.support == X.SUPPORT_2DP[key], key
        assert m.strength == X.SUPPORT_2DP[key] / X.DISEASE_MASS_2DP[key[0]]
        # a certain rule covers exactly its own lower region
        assert m.certainty == 1
        assert m.coverage == 1
    assert by_key[("MPS", 1)].metrics.strength == 1


def test_fixture_measures_match_reference(kb_round2, approx_round2):
    view = _view(kb_round2)
    for rule in generate_rules(kb_round2, approx_round2):
        want = oracles.reference_measures(view, rule.source_labels,
                                          rule.disease, int(rule.vd))
        m = rule.metrics
        assert m.support == want["support"]
        assert m.strength == want["strength"]
        assert m.certainty == want["certainty"]
        assert m.coverage == want["coverage"]


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_random_rules_match_reference(seed):
    rng = seeded(seed)
    kb, _, _ = random_kb(rng, 3, round2=True)
    approx = {d: roughset.approximations(kb, d) for d in kb.diseases()}
    rules = generate_rules(kb, approx,
                           kinds=("certain", "uncertain", "possible"))
    assert rules, "draw produced no rules at all"
    view = _view(kb)
    measured = 0
    for rule in rules:
        if rule.metrics is None:
            # only regions with an empty definite class go unmeasured
            assert not any(view[l][rule.disease][0] == int(rule.vd)
                           for l in view if rule.disease in view[l])
            continue
        measured += 1
        want = oracles.reference_measures(view, rule.source_labels,
                                          rule.disease, int(rule.vd))
        assert rule.metrics.support == want["support"]
        assert rule.metrics.strength == want["strength"]
        assert rule.metrics.certainty == want["certainty"]
        assert rule.metrics.coverage == want["coverage"]
        assert 0 <= rule.metrics.certainty <= 1
        assert 0 <= rule.metrics.coverage <= 1
    assert measured


def _rule(kb, sets, kind):
    """The one rule ``generate_rules`` makes of ANK's hand-built regions."""
    (rule,) = generate_rules(kb, {"ANK": sets}, (kind,))
    return rule


def test_measures_duck_type_the_regions():
    kb = kb_from_atomics({1: {"ANK": (1, F(1, 2))},
                          2: {"ANK": (1, F(1, 4))}}, 2)
    # a certain rule reads only the lower regions
    sets = SimpleNamespace(lower1=("01", "11"), lower2=(), boundary1=())
    m = _rule(kb, sets, "certain").metrics
    # nodes: 01 -> 1/2, 10 -> 1/4, 11 -> 3/8, all surely present
    assert m.support == F(7, 8)
    assert m.strength == F(7, 9)
    assert m.certainty == 1         # both sources match the verdict
    assert m.coverage == F(7, 9)    # one present node is not covered


def test_inconclusive_rules_use_the_half_factor():
    kb = kb_from_atomics({1: {"ANK": (2, F(1, 2))},
                          2: {"ANK": (2, F(1, 2))}}, 2)
    m = _rule(kb, ApproximationSets(frozenset(), frozenset(), frozenset({"01"})),
              "uncertain").metrics
    assert m.certainty == F(1, 2) * m.support / F(1, 2)  # factor one half
    assert m.coverage == F(1, 2) * m.support / F(3, 2)


def test_zero_masses_are_refused():
    """A rule whose measures would divide by zero is emitted unmeasured."""
    kb = kb_from_atomics({1: {"ANK": (1, F(0)), "BUR": (1, F(1, 2))}}, 1)
    lower1 = ApproximationSets(frozenset({"1"}), frozenset(), frozenset())
    assert _rule(kb, lower1, "certain").metrics is None
    # certainty needs sources that carry the rule's truth value
    kb2 = kb_from_atomics({1: {"ANK": (1, F(1, 2))}}, 1)
    lower2 = ApproximationSets(frozenset(), frozenset({"1"}), frozenset())
    rule = _rule(kb2, lower2, "certain")
    assert (rule.vd, rule.metrics) == (TruthValue.ABSENT, None)


def test_missing_decisions_are_dangling():
    kb = kb_from_atomics({1: {"ANK": (1, F(1, 2))}}, 2)
    with pytest.raises(errors.DanglingLabel,
                       match="^node 10 carries no decision for 'ANK'$"):
        _rule(kb, ApproximationSets(frozenset({"10"}), frozenset(), frozenset()),
              "certain")


def test_certain_strengths_sum_below_one(kb_round2, approx_round2):
    per_disease = {}
    for rule in generate_rules(kb_round2, approx_round2):
        per_disease.setdefault(rule.disease, F(0))
        per_disease[rule.disease] += rule.metrics.strength
    for disease, total in per_disease.items():
        assert total <= 1, disease


# --- identity suite ---------------------------------------------------------

def test_fixture_identities(kb_round2, approx_round2):
    report = metrics.check_properties(kb_round2, approx_round2)
    assert report.ok
    assert report.checked == 54
    assert report.by_property() == {p: True for p in range(1, 7)}


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
@pytest.mark.parametrize("round2", [False, True])
def test_random_identities(seed, round2):
    rng = seeded(seed)
    kb, _, _ = random_kb(rng, rng.choice((2, 3, 4)), round2=round2)
    approx = {d: roughset.approximations(kb, d) for d in kb.diseases()}
    report = metrics.check_properties(kb, approx)
    assert report.ok, report.failures


def test_stale_approximations_fail_the_coverage_identity(kb_round2,
                                                         approx_round2):
    # filing one disease's regions under another desynchronizes the
    # class from the truth-value mass: the coverages stop summing to
    # one, while every in-class normalization holds by construction
    stale = dict(approx_round2)
    stale["CFJ"] = approx_round2["SIJ"]
    report = metrics.check_properties(kb_round2, stale)
    assert not report.ok
    assert {f[0] for f in report.failures} == {2}
    flags = report.by_property()
    assert flags[2] is False
    assert all(flags[p] for p in (1, 3, 4, 5, 6))


# --- seeded knowledge bases at orders 4-8 -------------------------------------

ALL_KINDS = ("certain", "uncertain", "possible")

# check_properties on random_kb(seeded(400 + n), n, round2=...): checks
# made per (n, round2); every report is ok
SEEDED_CHECKS = {(4, False): 52, (4, True): 52, (5, False): 76, (5, True): 76,
                 (6, False): 214, (6, True): 208, (7, False): 470,
                 (7, True): 464, (8, False): 618, (8, True): 600}


def _seeded_kb(n, round2):
    kb, _, _ = random_kb(seeded(400 + n), n, round2=round2)
    return kb, {d: roughset.approximations(kb, d) for d in kb.diseases()}


def _dealt(approx, rng):
    """Each disease's placed labels dealt into the three regions at random,
    about a quarter left out: regions that are not its truth-value classes."""
    dealt = {}
    for disease, sets in approx.items():
        parts = ([], [], [], [])
        for label in sorted(sets.lower1 | sets.lower2 | sets.boundary1):
            parts[rng.randrange(4)].append(label)
        dealt[disease] = roughset.ApproximationSets(*parts[:3])
    return dealt


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("round2", [False, True])
def test_seeded_rules_match_reference_measures(n, round2):
    """Regions that hold a disease's whole truth-value class take the
    disease's sum there; dealt regions are summed label by label."""
    kb, approx = _seeded_kb(n, round2)
    view = _view(kb)
    for regions in (approx, _dealt(approx, seeded(700 + n))):
        measured = 0
        for rule in generate_rules(kb, regions, kinds=ALL_KINDS):
            try:
                want = oracles.reference_measures(view, rule.source_labels,
                                                  rule.disease, int(rule.vd))
            except ZeroDivisionError:
                # unmeasured exactly when the reference divides by zero
                assert rule.metrics is None
                continue
            assert rule.metrics == metrics.RuleMetrics(**want)
            measured += 1
        assert measured


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("round2", [False, True])
def test_seeded_property_reports_are_pinned(n, round2):
    report = metrics.check_properties(*_seeded_kb(n, round2))
    assert report == metrics.PropertyReport(SEEDED_CHECKS[(n, round2)], ())


def test_stale_approximations_report_is_pinned(kb_round2, approx_round2):
    stale = dict(approx_round2)
    stale["CFJ"] = approx_round2["SIJ"]
    assert metrics.check_properties(kb_round2, stale) == metrics.PropertyReport(
        54, ((2, "CFJ", 1, "1.1263157894736842 != 1.0"),))


def test_disease_mass_splits_by_truth_value(kb_round2):
    masses = metrics._masses(kb_round2)
    for disease in kb_round2.diseases():
        total, by_vd = masses.get(disease, metrics._NO_MASS)[0]
        entries = [node.decisions[disease] for node in kb_round2.nodes.values()
                   if disease in node.decisions]
        assert total == sum(e.cf for e in entries)
        for vd in TruthValue:
            assert by_vd[vd] == sum(e.cf for e in entries if e.vd == vd)
