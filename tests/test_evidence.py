"""Units for graded sources, truth triples, and decision resolution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected_lbp as X
import oracles
from roughkb import errors
from roughkb._num import publish2
from roughkb.evidence import (GRADING_CAP, EvidenceProfile, PresenceMatrix, TruthTriple,
                              TruthValue, presence_matrix, resolve_decision,
                              truth_triple)

F = Fraction


def _profile(fact, disease):
    return EvidenceProfile.from_levels(X.COUNTS[(fact, disease)], X.Q)


def test_grading_weights_descend():
    # one source at level j of 5 weighs 5 - j + 1
    assert [EvidenceProfile.from_levels({2: {j: 1}}, 5).kind_mass(2)
            for j in (1, 2, 3, 4, 5)] == [5, 4, 3, 2, 1]
    assert EvidenceProfile([(1,), (0,), (0,)]).kind_mass(1) == 1
    for q in (0, -1, "5", 2.0):
        with pytest.raises(errors.OutOfRange):
            EvidenceProfile.from_levels({}, q)
    # a build costs O(q) per record group, so q is capped
    assert EvidenceProfile.from_levels({}, GRADING_CAP).q == GRADING_CAP
    assert EvidenceProfile([(0,) * GRADING_CAP] * 3).q == GRADING_CAP
    with pytest.raises(errors.OutOfRange):
        EvidenceProfile([(0,) * (GRADING_CAP + 1)] * 3)


def test_an_uncapped_q_is_refused_before_any_row_is_built():
    class Kinds(dict):
        def get(self, *args):
            raise AssertionError("a row was built")

    with pytest.raises(errors.OutOfRange):
        EvidenceProfile.from_levels(Kinds(), GRADING_CAP + 1)
    with pytest.raises(errors.OutOfRange):
        EvidenceProfile.from_levels(Kinds(), 10 ** 8)


def test_profile_sparse_equals_dense():
    sparse = EvidenceProfile.from_levels({1: {3: 8}, 2: {5: 6}, 3: {3: 7, 5: 5}}, 5)
    dense = EvidenceProfile([(0, 0, 8, 0, 0), (0, 0, 0, 0, 6), (0, 0, 7, 0, 5)])
    assert sparse == dense
    assert sparse.q == 5


def test_profile_rejects_bad_shapes():
    with pytest.raises(errors.OutOfRange):
        EvidenceProfile([(1, 2), (3, 4)])  # only two kinds
    with pytest.raises(errors.OutOfRange):
        EvidenceProfile([(1,), (2, 3), (4,)])  # ragged
    with pytest.raises(errors.OutOfRange):
        EvidenceProfile([(1,), (-2,), (0,)])
    with pytest.raises(errors.OutOfRange):
        EvidenceProfile.from_levels({1: {6: 1}}, 5)  # level past q


@pytest.mark.parametrize("by_kind,message", [
    ({1: {"a": 1}}, "^level 'a' outside 1..3$"),
    ({2: {1.0: 1}}, "^level 1.0 outside 1..3$"),
    ({1: 5}, "^kind 1 counts must map levels to counts$"),
    ({3: [1]}, "^kind 3 counts must map levels to counts$"),
    # kind 7 would be dropped, leaving an all-zero profile
    ({7: {1: 1}}, "^kind 7 outside 1..3$"),
    ({"1": {1: 1}}, "^kind '1' outside 1..3$"),
])
def test_malformed_sparse_levels_are_refused(by_kind, message):
    with pytest.raises(errors.OutOfRange, match=message):
        EvidenceProfile.from_levels(by_kind, 3)


@pytest.mark.parametrize("build,value", [
    (EvidenceProfile, 5),
    (EvidenceProfile, [5, [0], [0]]),
    (PresenceMatrix, [5, [0], [0]]),
])
def test_evidence_values_refuse_rows_that_are_not_sequences(build, value):
    with pytest.raises(errors.OutOfRange):
        build(value)



def test_kind_mass_hand_example():
    p = _profile(1, "SIJ")
    assert p.kind_mass(1) == 24   # 8 sources at level 3
    assert p.kind_mass(2) == 6    # 6 sources at level 5
    assert p.kind_mass(3) == 26   # 7*3 + 5*1


def test_truth_triple_normalizes_and_matches_oracle():
    for key, counts in X.COUNTS.items():
        t = truth_triple(_profile(*key))
        assert sum(t) == 1
        assert all(isinstance(c, Fraction) for c in t)
        assert tuple(t) == oracles.reference_triple(counts, X.Q)


def test_truth_triples_match_frozen_table():
    for key, printed in X.TRIPLES_2DP.items():
        t = truth_triple(_profile(*key))
        assert tuple(publish2(c) for c in t) == tuple(F(s) for s in printed)


def test_truth_triple_rejects_empty():
    empty = EvidenceProfile([(0, 0), (0, 0), (0, 0)])
    with pytest.raises(errors.ZeroEvidence):
        truth_triple(empty)


def test_presence_matrix_indicates_occupancy():
    m = presence_matrix(_profile(1, "SIJ"))
    assert m.rows == ((False, False, True, False, False),
                      (False, False, False, False, True),
                      (False, False, True, False, True))
    assert m.q == 5


# --- resolution case law ----------------------------------------------------

def _resolve(rows, triple):
    return resolve_decision(PresenceMatrix(rows), TruthTriple(*triple))


def test_resolve_single_rows():
    t = (F(1, 2), F(3, 10), F(1, 5))
    assert _resolve([(0, 1, 0), (0, 0, 0), (0, 0, 0)], t) == (TruthValue.PRESENT, t[0])
    assert _resolve([(0, 0, 0), (0, 1, 1), (0, 0, 0)], t) == (TruthValue.ABSENT, t[1])
    assert _resolve([(0, 0, 0), (0, 0, 0), (1, 0, 0)], t) == (TruthValue.INCONCLUSIVE, t[2])


def test_resolve_empty_matrix():
    with pytest.raises(errors.EmptyMatrix):
        _resolve([(0, 0), (0, 0), (0, 0)], (1, 0, 0))


def test_resolve_earliest_column_picks_the_live_rows():
    # row 0 dominates the triple but only row 1 reaches the best column
    t = (F(9, 10), F(1, 20), F(1, 20))
    assert _resolve([(0, 1, 0), (1, 0, 0), (0, 0, 0)], t) == (TruthValue.ABSENT, t[1])


def test_resolve_pair_strict_order():
    t = (F(2, 5), F(3, 5), F(0))
    assert _resolve([(1, 0, 0), (1, 0, 0), (0, 0, 0)], t) == (TruthValue.ABSENT, t[1])


def test_resolve_pair_tie_broken_by_later_column():
    t = (F(2, 5), F(2, 5), F(1, 5))
    got = _resolve([(0, 1, 1), (0, 1, 0), (0, 0, 0)], t)
    assert got == (TruthValue.PRESENT, t[0])


def test_resolve_pair_tie_terminal_defaults():
    t = (F(1, 2), F(1, 2), F(0))
    got = _resolve([(0, 1, 0), (0, 1, 0), (0, 0, 0)], t)
    assert got == (TruthValue.INCONCLUSIVE, t[0])  # presence/absence pair keeps tv1

    t = (F(1, 2), F(0), F(1, 2))
    got = _resolve([(1, 0), (0, 0), (1, 0)], t)
    assert got == (TruthValue.INCONCLUSIVE, t[2])  # pairs with kind 3 keep tv3


def test_resolve_three_distinct_takes_the_maximum():
    t = (F(1, 2), F(3, 10), F(1, 5))
    assert _resolve([(1, 0), (1, 0), (1, 0)], t) == (TruthValue.PRESENT, t[0])


def test_resolve_three_single_tie():
    # tied pair loses to a strict winner: inconclusive on the winner's mass
    t = (F(3, 10), F(3, 10), F(2, 5))
    assert _resolve([(1, 0), (1, 0), (1, 0)], t) == (TruthValue.INCONCLUSIVE, t[2])
    # tied pair wins: inconclusive on the pair's own default component
    t = (F(2, 5), F(2, 5), F(1, 5))
    assert _resolve([(1, 0), (1, 0), (1, 0)], t) == (TruthValue.INCONCLUSIVE, t[0])


def test_resolve_three_way_tie_scans_later_columns():
    t = (F(1, 3), F(1, 3), F(1, 3))
    # next column discriminates in favor of kind 2
    assert _resolve([(1, 0, 0), (1, 1, 0), (1, 0, 0)], t) == (TruthValue.ABSENT, t[1])
    # next column is itself contested; the scan continues past it
    assert _resolve([(1, 1, 1), (1, 1, 0), (1, 0, 0)], t) == (TruthValue.PRESENT, t[0])
    # contested column with nothing after it falls to the pair default
    assert _resolve([(1, 1, 0), (1, 1, 0), (1, 0, 0)], t) == (TruthValue.INCONCLUSIVE, t[0])
    # no later sources at all
    assert _resolve([(1, 0, 0), (1, 0, 0), (1, 0, 0)], t) == (TruthValue.INCONCLUSIVE, t[2])


def test_resolution_of_fixture_profiles_matches_oracle():
    for key in X.COUNTS:
        if not any(X.COUNTS[key].get(m) for m in (1, 2, 3)):
            continue
        p = _profile(*key)
        t = truth_triple(p)
        vd, cf = resolve_decision(presence_matrix(p), t)
        assert (int(vd), cf) == oracles.reference_resolve(
            presence_matrix(p).rows, tuple(t))


# --- randomized agreement with the prose transcription ----------------------

@st.composite
def matrices_and_triples(draw, q_max=5):
    """A nonempty 3 x q boolean matrix plus an arbitrary rational triple.

    The triple is drawn as three nonnegative masses and normalized, so
    ties (including three-way ties) appear with useful frequency.
    """
    q = draw(st.integers(min_value=1, max_value=q_max))
    cells = draw(st.lists(st.booleans(), min_size=3 * q, max_size=3 * q)
                 .filter(lambda c: any(c)))
    rows = tuple(tuple(cells[r * q:(r + 1) * q]) for r in range(3))
    masses = draw(st.lists(st.integers(min_value=0, max_value=4),
                           min_size=3, max_size=3)
                  .filter(lambda m: sum(m) > 0))
    total = sum(masses)
    triple = tuple(F(m, total) for m in masses)
    return rows, triple


@settings(max_examples=300, deadline=None)
@given(matrices_and_triples())
def test_resolution_agrees_with_reference(case):
    rows, triple = case
    got = _resolve(rows, triple)
    want = oracles.reference_resolve(rows, triple)
    assert (int(got[0]), got[1]) == want
