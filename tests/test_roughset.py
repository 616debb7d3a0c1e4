"""Concept targets, approximation regions, and incremental upkeep."""

import pytest

import expected_lbp as X
import oracles
from conftest import random_kb, run_edit_scripts, seeded
from roughkb import errors
from roughkb.evidence import TruthValue
from roughkb.lattice import Lattice
from roughkb.propagation import PriorityConfig
from roughkb.roughset import (ApproximationSets, approximations, concepts,
                              on_decisions_added, on_decisions_removed,
                              on_truth_changed)

_KEYS = ("lower1", "upper1", "boundary1", "lower2", "upper2", "boundary2")


def test_fixture_concepts(kb_round2):
    for disease in X.DISEASES:
        pair = concepts(kb_round2, disease)
        assert pair.disease == disease
        assert pair.concept1 == frozenset(X.CONCEPT_1[disease])
        assert pair.concept2 == frozenset(X.CONCEPT_2[disease])


def test_fixture_approximations(kb_round2):
    for disease in X.DISEASES:
        sets = approximations(kb_round2, disease)
        for key in _KEYS:
            assert getattr(sets, key) == frozenset(X.APPROX[disease][key]), (
                disease, key)


def test_unknown_disease_is_refused(kb_round2):
    with pytest.raises(errors.UnknownDisease):
        concepts(kb_round2, "GOUT")
    with pytest.raises(errors.UnknownDisease):
        approximations(kb_round2, "GOUT")


def test_a_disease_only_priorities_name_has_empty_regions(kb_round2):
    for priorities in (PriorityConfig({("GOUT", 1): 2}),
                       PriorityConfig(scoped={((1, 2), "GOUT"): {1: 1, 2: 3}})):
        kb = Lattice(kb_round2.facts, kb_round2.decisions, alpha=kb_round2.alpha,
                     priorities=priorities, round2=True)
        sets = approximations(kb, "GOUT")
        assert sets == ApproximationSets(frozenset(), frozenset(), frozenset())
        with pytest.raises(errors.UnknownDisease):
            approximations(kb, "GOUTY")


def test_regions_satisfy_rough_set_identities():
    for seed in (3, 5, 8):
        rng = seeded(seed)
        kb, _, _ = random_kb(rng, 3)
        for disease in kb.diseases():
            s = approximations(kb, disease)
            assert s.lower1 <= s.upper1
            assert s.lower2 <= s.upper2
            assert s.boundary1 == s.upper1 - s.lower1
            assert s.boundary2 == s.upper2 - s.lower2
            assert s.boundary1 == s.boundary2
            assert not (s.lower1 & s.lower2)


def test_vd_of_reports_membership():
    s = ApproximationSets.from_vd_map({"01": 1, "10": 0, "11": 2})
    assert s.vd_of("01") == TruthValue.PRESENT
    assert s.vd_of("10") == TruthValue.ABSENT
    assert s.vd_of("11") == TruthValue.INCONCLUSIVE
    with pytest.raises(errors.NotPresent):
        s.vd_of("00")


def test_added_labels_route_to_their_regions():
    s = ApproximationSets.from_vd_map({})
    s2 = on_decisions_added(s, [("01", 1), ("10", 0), ("11", 2)])
    assert s2.lower1 == {"01"}
    assert s2.lower2 == {"10"}
    assert s2.boundary1 == s2.boundary2 == {"11"}
    assert s2.upper1 == {"01", "11"}
    assert s2.upper2 == {"10", "11"}
    # value semantics: the input object is untouched
    assert s.lower1 == frozenset()
    with pytest.raises(errors.AlreadyPresent):
        on_decisions_added(s2, [("01", 0)])


def test_a_label_repeated_within_one_batch_is_already_placed():
    s = ApproximationSets.from_vd_map({"10": 0})
    before = (s.lower1, s.lower2, s.boundary1)
    with pytest.raises(errors.AlreadyPresent, match="^label '01' already placed$"):
        on_decisions_added(s, [("01", 1), ("01", 0)])
    assert (s.lower1, s.lower2, s.boundary1) == before == (frozenset(), {"10"}, frozenset())


def test_removed_labels_leave_every_region():
    s = ApproximationSets.from_vd_map({"01": 1, "10": 0, "11": 2})
    s2 = on_decisions_removed(s, ["11", "01"])
    assert s2 == ApproximationSets.from_vd_map({"10": 0})
    with pytest.raises(errors.NotPresent):
        on_decisions_removed(s2, ["11"])


@pytest.mark.parametrize("old,new", [(0, 1), (0, 2), (1, 0),
                                     (1, 2), (2, 0), (2, 1)])
def test_truth_change_transitions(old, new):
    s = ApproximationSets.from_vd_map({"01": old, "10": 1})
    s2 = on_truth_changed(s, "01", old, new)
    assert s2 == ApproximationSets.from_vd_map({"01": new, "10": 1})


def test_truth_change_guards():
    s = ApproximationSets.from_vd_map({"01": 1})
    with pytest.raises(errors.InvalidTransition):
        on_truth_changed(s, "01", 1, 1)
    with pytest.raises(errors.NotPresent):
        on_truth_changed(s, "01", 0, 2)  # filed under vd=1, not vd=0
    with pytest.raises(errors.NotPresent):
        on_truth_changed(s, "10", 1, 2)


def test_incremental_upkeep_short_burst():
    transitions = run_edit_scripts(25, 12, seed0=52000)
    assert transitions  # scripts actually exercised truth changes


def test_reference_approx_agrees_with_from_vd_map():
    rng = seeded(77)
    for _ in range(50):
        vd_map = {format(i, "04b"): rng.randrange(3)
                  for i in range(1, 16) if rng.random() < 0.6}
        s = ApproximationSets.from_vd_map(vd_map)
        want = oracles.reference_approx(vd_map)
        assert {k: getattr(s, k) for k in _KEYS} == want


def test_regions_are_stored_as_frozensets():
    s = ApproximationSets(["001"], ("010",), iter(["100"]))
    assert (s.lower1, s.lower2, s.boundary1) == ({"001"}, {"010"}, {"100"})
    assert all(type(region) is frozenset for region in (s.lower1, s.lower2, s.boundary1))
    assert s.upper1 == {"001", "100"}
    assert hash(s) == hash(ApproximationSets(frozenset({"001"}), frozenset({"010"}),
                                             frozenset({"100"})))


@pytest.mark.parametrize("lower1,lower2,boundary1,shared", [
    ({"001"}, {"001"}, (), "001"),
    ({"001", "011"}, (), {"011", "101"}, "011"),
    ((), {"010", "110"}, {"110", "010"}, "010"),
    ({"111", 5}, {5}, {"111"}, "111"),
    ({5, 3}, {5, 3}, (), 3),
])
def test_a_label_in_two_regions_is_refused(lower1, lower2, boundary1, shared):
    with pytest.raises(errors.OutOfRange,
                       match="^label %r is in two approximation regions$" % (shared,)):
        ApproximationSets(lower1, lower2, boundary1)


@pytest.mark.parametrize("regions", [(5, (), ()), ((), (), [["001"]])])
def test_a_region_that_is_not_a_collection_of_labels_is_refused(regions):
    with pytest.raises(errors.OutOfRange, match="^a region must be an iterable of labels$"):
        ApproximationSets(*regions)


def test_a_str_or_an_unhashable_value_is_not_taken_as_labels():
    s = ApproximationSets.from_vd_map({"1": 1})
    for regions in (("001", (), ()), ((), "01", ()), ((), (), "")):
        with pytest.raises(errors.OutOfRange, match="^a region must be an iterable of labels$"):
            ApproximationSets(*regions)
    with pytest.raises(errors.OutOfRange, match="^labels removed must be a collection"):
        on_decisions_removed(s, "1")
    for call in (lambda: s.vd_of(["1"]), lambda: on_truth_changed(s, ["1"], 1, 0),
                 lambda: on_decisions_added(s, [(["1"], 1)])):
        with pytest.raises(errors.OutOfRange, match=r"^label \['1'\] is not hashable$"):
            call()
    for vds in ([("1", 1)], "1", None):
        with pytest.raises(errors.OutOfRange, match="^a vd map must be a mapping"):
            ApproximationSets.from_vd_map(vds)
    assert on_decisions_removed(s, ["1"]) == ApproximationSets((), (), ())


def test_updates_refuse_a_bad_truth_value_or_label_collection():
    s = ApproximationSets.from_vd_map({"1": 1})
    for call in (lambda: on_decisions_added(s, [("0", 7)]),
                 lambda: ApproximationSets.from_vd_map({"1": 7}),
                 lambda: on_truth_changed(s, "1", 1, "x"),
                 lambda: on_truth_changed(s, "1", None, 0)):
        with pytest.raises(errors.OutOfRange, match="^truth value must be 0, 1 or 2, got "):
            call()
    for added in (5, [5], [("0",)], [("0", 1, 2)]):
        with pytest.raises(errors.OutOfRange, match=r"^decisions added must be \(label, vd\)"):
            on_decisions_added(s, added)
    for removed in (5, [["1"]]):
        with pytest.raises(errors.OutOfRange, match="^labels removed must be a collection"):
            on_decisions_removed(s, removed)
    # labels of mixed types sort for the message instead of failing
    with pytest.raises(errors.NotPresent, match="^label 2 is in"):
        on_decisions_removed(s, ["1", 2, None])
    with pytest.raises(errors.AlreadyPresent, match="^label '1' already placed$"):
        on_decisions_added(s, [(2, 0), ("1", 0)])
