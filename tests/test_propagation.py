"""Pairwise/multi-constituent combination and whole-lattice propagation."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (DISEASE_POOL, entries_with_triples, kb_from_atomics, random_atomics,
                      random_kb, random_priorities, seeded)
from roughkb import errors
from roughkb.evidence import TruthTriple, TruthValue
from roughkb.kbio import serialize_kb
from roughkb.lattice import (Fact, Lattice, SetDecision, _cone, build_kb, facts_of, insert_fact,
                             modify_node)
from roughkb.propagation import DecisionEntry, PriorityConfig, derive, propagate

F = Fraction


# --- decision entries and priorities ----------------------------------------

def test_decision_entry_validates_fields():
    e = DecisionEntry("ANK", 1, F(1, 2), tv=(F(1, 2), F(1, 4), F(1, 4)))
    assert e.vd is TruthValue.PRESENT
    assert isinstance(e.tv, TruthTriple)
    assert e.replace(cf=F(3, 4)).cf == F(3, 4)
    assert e.replace(cf=F(3, 4)).disease == "ANK"
    with pytest.raises(errors.OutOfRange):
        DecisionEntry("ANK", 3, F(1, 2))
    with pytest.raises(errors.OutOfRange):
        DecisionEntry("ANK", 1, F(3, 2))
    # a disease name outside the text formats' name grammar, or not text
    # (None and 1.5 were named 'None' and '1.5')
    for name in ("NEW DIS", "", "a#b", "d\n", "\u00e9", None, 1.5):
        message = "bad disease name %r" % (name,)
        with pytest.raises(errors.OutOfRange, match="^%s$" % re.escape(message)):
            DecisionEntry(name, 1, F(1, 2))


def test_truth_triples_coerce_numbers_as_every_entry_point_does():
    # a float is read through its shortest decimal, as the credibility is
    e = DecisionEntry("ANK", 1, 0.1, tv=(0.1, 0.2, 0.7))
    assert e.cf == F(1, 10)
    assert e.tv == (F(1, 10), F(1, 5), F(7, 10))
    assert sum(e.tv) == 1
    assert TruthTriple("1/4", 0.25, F(1, 2)) == (F(1, 4), F(1, 4), F(1, 2))
    # an exact component is kept as given
    half = F(1, 2)
    assert TruthTriple(half, F(1, 4), F(1, 4)).tv1 is half
    with pytest.raises(errors.OutOfRange, match="^a truth triple has three components, got 2$"):
        DecisionEntry("ANK", 1, F(1, 2), tv=(1, 2))
    with pytest.raises(errors.OutOfRange, match="^not a plain number: 'a'$"):
        DecisionEntry("ANK", 1, F(1, 2), tv=("a", 0, 0))


@pytest.mark.parametrize("tv", [5, F(1, 2), 0.5])
def test_a_truth_triple_that_is_not_a_sequence_is_refused(tv):
    with pytest.raises(errors.OutOfRange, match="^truth triple .* is not a sequence of three$"):
        DecisionEntry("ANK", 1, F(1, 2), tv=tv)


@pytest.mark.parametrize("global_priorities,scoped,message", [
    # written as "priority ANK  ", which no loader reads back
    ({}, {(frozenset(), "ANK"): {}}, "nonempty fact set"),
    ({("bad name!", 1): 2}, {}, "bad disease name 'bad name!'"),
    # read back as ANK, whose weights the file's w= fields do not match
    ({}, {(frozenset({1, 2}), " ANK"): {1: 1, 2: 3}}, "bad disease name ' ANK'"),
    # not text: these were named 'True' and '7'
    ({(True, 1): 2}, {}, "^bad disease name True$"),
    ({}, {(frozenset({1}), 7): {1: 1}}, "^bad disease name 7$"),
])
def test_priority_config_refuses_what_its_file_cannot_hold(global_priorities, scoped, message):
    with pytest.raises(errors.OutOfRange, match=message):
        PriorityConfig(global_priorities, scoped)


@pytest.mark.parametrize("fid", [1.5, True, "1", "x", None, (1,)])
def test_only_an_int_names_a_prioritized_fact(fid):
    # 1.5 and True were stored as fact 1; "x" and None raised a bare
    # ValueError or TypeError
    with pytest.raises(errors.UnknownFact, match="^no fact with id "):
        PriorityConfig({("ANK", fid): 2})
    with pytest.raises(errors.UnknownFact, match="^no fact with id "):
        PriorityConfig(scoped={(frozenset({fid, 2}), "ANK"): {fid: 1, 2: 1}})
    with pytest.raises(errors.UnknownFact, match="^no fact with id "):
        PriorityConfig(scoped={(frozenset({1, 2}), "ANK"): {fid: 1, 2: 1}})


@pytest.mark.parametrize("global_priorities,scoped,message", [
    ({"ANK": 2}, None, "key is a \\(disease, fact id\\) pair"),
    ({("ANK", 1, 2): 2}, None, "key is a \\(disease, fact id\\) pair"),
    ({("ANK", 1): True}, None, "positive integers"),
    ({("ANK", 1): 1.0}, None, "positive integers"),
    (5, None, "global priorities must be a mapping"),
    ([1, 2], None, "global priorities must be a mapping"),
    (None, {"ANK": {1: 1}}, "key is a \\(fact ids, disease\\) pair"),
    (None, {(1, "ANK"): {1: 1}}, "facts 1 are not a collection"),
    (None, {(frozenset({1}), "ANK"): 5}, "must be a mapping"),
    (None, {(frozenset({1}), "ANK"): {1: "2"}}, "positive integers"),
])
def test_priority_config_refuses_malformed_arguments(global_priorities, scoped, message):
    with pytest.raises(errors.OutOfRange, match=message):
        PriorityConfig(global_priorities, scoped)


def test_priority_config_layers():
    cfg = PriorityConfig({("ANK", 1): 3},
                         {(frozenset({1, 2}), "ANK"): {1: 1, 2: 1}})
    # scoped entry pins the pair exactly
    assert cfg.weights_for(frozenset({1, 2}), "ANK") == {1: F(1, 2), 2: F(1, 2)}
    # elsewhere the global priority applies against the default 1
    assert cfg.weights_for(frozenset({1, 3}), "ANK") == {1: F(3, 4), 3: F(1, 4)}
    # unknown diseases fall back to uniform
    assert cfg.weights_for(frozenset({1, 2}), "BUR") == {1: F(1, 2), 2: F(1, 2)}
    assert bool(cfg)
    assert not PriorityConfig()


def test_weights_are_given_for_fact_ids_only():
    cfg = PriorityConfig({("ANK", 2): 3, ("ANK", 9): 2}, {(frozenset({0, 1}), "ANK"): {0: 1, 1: 3}})
    # a priority on a fact outside the set weighs nothing there
    assert cfg.weights_for({1, 2}, "ANK") == {1: F(1, 4), 2: F(3, 4)}
    # a fact set a scoped priority names is read as filed
    assert cfg.weights_for({0, 1}, "ANK") == {0: F(1, 4), 1: F(3, 4)}
    # -1 weighed as fact 2, and "1" and True weighed 1 each
    for facts in ({-1, 1}, {0, 2}, {"1", 2}, {True, 2}, {1.5}):
        with pytest.raises(errors.UnknownFact, match="^no fact with id "):
            cfg.weights_for(facts, "ANK")


@pytest.mark.parametrize("facts,disease,error,message", [
    (5, "ANK", errors.OutOfRange, "^facts 5 are not a collection$"),
    (None, "ANK", errors.OutOfRange, "^facts None are not a collection$"),
    ({1}, ["A"], errors.UnknownDisease, r"^no disease \['A'\] in this knowledge base$"),
    ({1}, None, errors.UnknownDisease, "^no disease None in this knowledge base$"),
], ids=["int-facts", "no-facts", "list-disease", "no-disease"])
def test_weights_for_refuses_what_is_not_facts_or_a_disease(facts, disease, error, message):
    """Each raised a bare TypeError: facts that are not a collection are not
    iterable, and a list is unhashable."""
    with pytest.raises(error, match=message) as caught:
        PriorityConfig({("ANK", 1): 2}).weights_for(facts, disease)
    assert type(caught.value) is error


def test_priority_config_rejects_bad_shapes():
    with pytest.raises(errors.OutOfRange):
        PriorityConfig({("ANK", 1): 0})
    with pytest.raises(errors.OutOfRange):
        PriorityConfig(scoped={(frozenset({1, 2}), "ANK"): {1: 2}})


def test_priority_config_without_fact_renumbers():
    cfg = PriorityConfig({("ANK", 1): 2, ("ANK", 3): 5},
                         {(frozenset({1, 3}), "BUR"): {1: 1, 3: 4},
                          (frozenset({2, 3}), "BUR"): {2: 1, 3: 2}})
    out = cfg.without_fact(2)
    assert out.global_priorities == {("ANK", 1): 2, ("ANK", 2): 5}
    assert out.scoped == {(frozenset({1, 2}), "BUR"): {1: 1, 2: 4}}


def test_alpha_threshold_bounds():
    kb = kb_from_atomics({1: {"ANK": (1, F(1, 2))}}, 2)
    assert propagate(kb, alpha=F(1, 10)).alpha == F(1, 10)
    with pytest.raises(errors.OutOfRange):
        propagate(kb, alpha=F(-1, 10))
    with pytest.raises(errors.OutOfRange):
        propagate(kb, alpha=F(11, 10))


# --- pairwise combination ---------------------------------------------------

P, A, I = TruthValue.PRESENT, TruthValue.ABSENT, TruthValue.INCONCLUSIVE


def _small_kb(n, decisions, alpha=0):
    """An order-n lattice for ``derive`` holding the decision maps given,
    under the gate given and no priorities."""
    return Lattice([Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)], decisions,
                   alpha=alpha)


def _pair(first, second, alpha=0):
    """The (vd, cf) that node {1, 2} derives for ANK under equal weights
    of 1/2, when its predecessors {1} and {2} carry the (vd, cf) pairs
    given (None for no decision); None when ANK does not reach it."""
    kb = _small_kb(2, {mask: {"ANK": DecisionEntry("ANK", *pair)}
                       for mask, pair in ((0b01, first), (0b10, second)) if pair is not None},
                   alpha)
    entry = derive(kb, [0b11])[0b11].get("ANK")
    return None if entry is None else (entry.vd, entry.cf)


def test_same_vd_pair_adds_weighted_contributions():
    assert _pair((P, F(3, 5)), (P, F(1, 5))) == (P, F(2, 5))
    # one side below the gate carries the other alone
    assert _pair((P, F(3, 5)), (P, F(1, 5)), F(1, 5)) == (P, F(3, 10))
    # a product equal to the gate does not pass
    assert _pair((P, F(2, 5)), (P, F(1, 5)), F(1, 5)) is None


def test_diff_vd_pair_takes_the_stronger_side():
    hi, lo = (P, F(3, 5)), (A, F(1, 5))
    assert _pair(hi, lo) == (P, F(1, 5))
    assert _pair(lo, hi) == (P, F(1, 5))


def test_diff_vd_tie_and_contradiction_go_inconclusive():
    assert _pair((P, F(2, 5)), (A, F(2, 5)))[0] == I
    # absent versus open is inconclusive even with a dominant side
    assert _pair((A, F(9, 10)), (I, F(1, 10))) == (I, F(2, 5))


def test_diff_vd_gate_keeps_the_surviving_side():
    assert _pair((P, F(3, 5)), (A, F(1, 10)), F(1, 10)) == (P, F(3, 10))


# --- chains and multi-constituent credibility -------------------------------

def _node3(decisions):
    """The ANK entry that node {1, 2, 3} derives when its predecessors hold
    the entries given by mask."""
    kb = _small_kb(3, {mask: {"ANK": entry} for mask, entry in decisions.items()})
    return derive(kb, [0b111])[0b111]["ANK"]


def _chain(pairs):
    """The prevailing truth value of (vd, cf) pairs, carried in this order
    by the predecessors of node {1, 2, 3} that lack facts 3, 2 and 1."""
    return _node3({mask: DecisionEntry("ANK", vd, cf)
                   for mask, (vd, cf) in zip((0b011, 0b101, 0b110), pairs)}).vd


def test_vd_chain_case_law():
    P, A, I = TruthValue.PRESENT, TruthValue.ABSENT, TruthValue.INCONCLUSIVE
    assert _chain([(P, F(1, 2)), (P, F(1, 4))]) == TruthValue.PRESENT
    assert _chain([(A, F(1, 2)), (I, F(9, 10))]) == TruthValue.INCONCLUSIVE
    assert _chain([(P, F(1, 2)), (A, F(3, 4))]) == TruthValue.ABSENT
    assert _chain([(P, F(1, 2)), (A, F(1, 2))]) == TruthValue.INCONCLUSIVE
    # a 0-versus-2 clash is inconclusive even against a stronger side
    assert _chain([(P, F(1, 2)), (A, F(3, 4)), (I, F(7, 10))]) \
        == TruthValue.INCONCLUSIVE
    # the carried credibility is the running maximum, so a later weaker
    # entry cannot flip an established inconclusive verdict
    assert _chain([(I, F(1, 2)), (I, F(3, 4)), (P, F(7, 10))]) \
        == TruthValue.INCONCLUSIVE


def test_cf_multi_hand_example():
    # the constituents {1, 2}, {1, 3} and {2, 3} lack facts 3, 2 and 1
    entry = _node3({0b011: DecisionEntry("ANK", 1, F(3, 5)),
                    0b101: DecisionEntry("ANK", 1, F(3, 10)),
                    0b110: DecisionEntry("ANK", 0, F(1, 5))})
    # equal priorities: every weight is 1/3
    # per-fact terms: 9/10 * 1/3, |3/5-1/5| * 1/3, |3/10-1/5| * 1/3
    # sum 7/15, averaged over (3 - 1)
    assert (entry.vd, entry.cf) == (TruthValue.PRESENT, F(7, 30))
    assert entry.cf.as_integer_ratio() == (7, 30)


def test_carryover_single_gates():
    assert _pair((I, F(1, 2)), None, F(1, 5)) == (I, F(1, 4))
    assert _pair((I, F(1, 2)), None, F(1, 4)) is None  # == gate fails


# --- external evidence ------------------------------------------------------

def _merged(ext_vd, ext_cf, tv=None):
    """The (vd, cf) that node {1, 2} derives for ANK when the lattice alone
    gives (P, 1/2) and direct evidence (ext_vd, ext_cf, tv) is merged in."""
    kb = _small_kb(2, {mask: {"ANK": DecisionEntry("ANK", P, F(1, 2))} for mask in (0b01, 0b10)})
    entry = derive(kb, [0b11], {frozenset({1, 2}): {"ANK": (ext_vd, ext_cf, tv)}})[0b11]["ANK"]
    return entry.vd, entry.cf


def test_merge_external_cases():
    assert _pair((P, F(1, 2)), (P, F(1, 2))) == (P, F(1, 2))
    assert _merged(P, F(3, 5)) == (TruthValue.PRESENT, ONE_ := F(1))
    assert ONE_ == 1  # the sum clamps at certainty
    assert _merged(A, F(4, 5)) == (TruthValue.ABSENT, F(3, 10))
    assert _merged(A, F(1, 5)) == (TruthValue.PRESENT, F(3, 10))
    # a tie is inconclusive at the merged triple's third component
    assert _merged(A, F(1, 2), (F(5, 7), 0, F(2, 7))) == (TruthValue.INCONCLUSIVE, F(2, 7))


def test_mean_triple_is_a_mean():
    t1 = TruthTriple(F(1, 2), F(1, 4), F(1, 4))
    t2 = TruthTriple(F(1, 4), F(1, 4), F(1, 2))
    # at order 5, node {1, 2, 3} reads t1 then t2 and node {3, 4, 5} t2
    # then t1, from predecessors of no truth triple between them
    entry = lambda tv: DecisionEntry("ANK", 1, F(1, 2), tv=tv)  # noqa: E731
    kb = _small_kb(5, {mask: {"ANK": entry(tv)} for mask, tv in (
        (0b00011, t1), (0b00101, t2), (0b00110, None),
        (0b01100, t2), (0b10100, t1), (0b11000, None))})
    fresh = derive(kb, [0b00111, 0b11100])
    tv = fresh[0b00111]["ANK"].tv
    assert tv == TruthTriple(F(3, 8), F(1, 4), F(3, 8))
    assert [c.as_integer_ratio() for c in tv] == [(3, 8), (1, 4), (3, 8)]
    # an equal mean is the call's one triple
    assert fresh[0b11100]["ANK"].tv is tv
    # no truth record, no mean
    none = _small_kb(3, {mask: {"ANK": entry(None)} for mask in (0b011, 0b101, 0b110)})
    assert derive(none, [0b111])[0b111]["ANK"].tv is None


def test_external_evidence_merges_and_is_consumed():
    atomics = {1: {"ANK": (1, F(1, 2))}, 2: {"ANK": (1, F(1, 4))}}
    ext = {frozenset({1, 2}): {
        "ANK": (1, F(1, 5), None),
        "BUR": (2, F(3, 10), TruthTriple(F(1, 5), F(1, 5), F(3, 5))),
    }}
    kb = kb_from_atomics(atomics, 2)
    merged = propagate(kb, external=ext)
    top = merged.node("11").decisions
    # lattice gives ANK (1, 3/8); the agreeing external adds its share
    assert (top["ANK"].vd, top["ANK"].cf) == (TruthValue.PRESENT, F(23, 40))
    # BUR exists only through the direct evidence
    assert (top["BUR"].vd, top["BUR"].cf) == (TruthValue.INCONCLUSIVE, F(3, 10))
    assert top["BUR"].tv == TruthTriple(F(1, 5), F(1, 5), F(3, 5))
    # external input is consumed, not stored: recomputing drops it
    again = propagate(merged)
    assert "BUR" not in again.node("11").decisions
    assert again.node("11").decisions["ANK"].cf == F(3, 8)


@pytest.mark.parametrize("external,error,message", [
    # each of these left the knowledge base equal to the one without evidence
    ({frozenset({1, 99}): {"ANK": (1, F(1, 5))}}, errors.UnknownFact, "no fact with id 99"),
    ({frozenset({1}): {"ANK": (1, F(1, 5))}}, errors.OutOfRange, "external evidence maps"),
    ({frozenset(): {"ANK": (1, F(1, 5))}}, errors.OutOfRange, "external evidence maps"),
    # read as facts {1, 2}, though a bool names no fact
    ({frozenset({True, 2}): {"ANK": (1, F(1, 5))}}, errors.UnknownFact, "no fact with id True"),
    # these raised a bare TypeError
    ({frozenset({1, 2}): 5}, errors.OutOfRange, "external evidence maps"),
    ({frozenset({1, 2}): {"ANK": 5}}, errors.OutOfRange, "external evidence on"),
    ({5: {"ANK": (1, F(1, 5))}}, errors.OutOfRange, "external evidence maps"),
    (5, errors.OutOfRange, "external evidence must be a mapping"),
], ids=["outside", "single", "empty", "bool", "value", "disease-value", "key", "not-a-map"])
def test_malformed_external_evidence_is_refused(external, error, message):
    kb = kb_from_atomics({1: {"ANK": (1, F(1, 2))}, 2: {"ANK": (1, F(1, 4))}}, 3)
    with pytest.raises(error) as caught:
        propagate(kb, external=external)
    assert type(caught.value) is error
    assert str(caught.value).startswith(message)


# --- orchestration corner cases ---------------------------------------------

def test_derive_all_gated_means_absent():
    entry = {"ANK": DecisionEntry("ANK", 1, F(1, 100))}
    kb = _small_kb(3, {0b011: entry, 0b101: entry, 0b110: entry}, F(1, 2))
    assert derive(kb, [0b111]) == {0b111: {}}


def test_derive_requires_no_disease_to_be_invented():
    kb = kb_from_atomics({}, 2)
    assert kb.node("11").decisions == {}
    assert derive(kb, [0b11]) == {0b11: {}}


# --- agreement with the straight-line reference -----------------------------

def _as_view(kb):
    """Non-empty decision maps keyed by fact set, oracle-shaped."""
    view = {}
    for label, node in kb.nodes.items():
        if node.level == 0 or not node.decisions:
            continue
        view[facts_of(label)] = {d: (int(e.vd), e.cf)
                                 for d, e in node.decisions.items()}
    return view


def _nonempty(view):
    return {k: v for k, v in view.items() if v}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("round2", [False, True])
def test_propagate_matches_reference(seed, round2):
    rng = seeded(1000 + seed)
    n = rng.choice((2, 3, 4))
    alpha = rng.choice((0, F(1, 20), F(1, 10)))
    kb, atomics, priorities = random_kb(rng, n, alpha=alpha, round2=round2)
    publish = oracles.round2 if round2 else (lambda x: x)
    want = oracles.reference_propagate(n, atomics, priorities.weights_for,
                                       alpha, publish)
    assert _as_view(kb) == _nonempty(want)


@pytest.mark.parametrize("n,seed", [(5, 1), (5, 2), (6, 3), (6, 4), (7, 5)])
@pytest.mark.parametrize("round2", [False, True])
def test_derived_decisions_match_the_oracles_at_orders_5_to_7(n, seed, round2):
    rng = seeded(2000 + seed)
    diseases = DISEASE_POOL[:3]
    atomics = random_atomics(rng, n, diseases)
    priorities = random_priorities(rng, n, diseases)
    alpha = (0, F(1, 20), F(1, 10))[seed % 3]
    facts = [Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)]
    kb = propagate(build_kb(facts, entries_with_triples(rng, atomics)),
                   priorities=priorities, alpha=alpha, round2=round2)
    publish = oracles.round2 if round2 else (lambda x: x)
    want = oracles.reference_propagate(n, atomics, priorities.weights_for,
                                       alpha, publish)
    assert _as_view(kb) == _nonempty(want)
    # each derived tv is the mean of its carriers' stored triples
    for label, node in kb.nodes.items():
        if node.level < 2:
            continue
        for disease, entry in node.decisions.items():
            triples = [kb.node(p).decisions[disease].tv for p in node.predecessors
                       if disease in kb.node(p).decisions]
            triples = [t for t in triples if t is not None]
            assert entry.tv == (oracles.reference_mean_triple(triples, publish)
                                if triples else None), (label, disease)


@st.composite
def atomic_tables(draw):
    """A small random atomic-decision table plus a gate value."""
    n = draw(st.integers(min_value=2, max_value=3))
    diseases = DISEASE_POOL[:draw(st.integers(min_value=1, max_value=2))]
    table = {}
    for fid in range(1, n + 1):
        per = {}
        for disease in diseases:
            if draw(st.booleans()):
                per[disease] = (draw(st.sampled_from((0, 1, 2))),
                                F(draw(st.integers(1, 20)), 20))
        if per:
            table[fid] = per
    if not table:
        table[1] = {diseases[0]: (1, F(1, 2))}
    alpha = draw(st.sampled_from((0, F(1, 20), F(1, 8))))
    return n, table, alpha


@settings(max_examples=120, deadline=None)
@given(atomic_tables())
def test_propagate_matches_reference_generatively(case):
    n, table, alpha = case
    kb = kb_from_atomics(table, n, alpha=alpha)
    want = oracles.reference_propagate(n, table, PriorityConfig().weights_for,
                                       alpha, lambda x: x)
    assert _as_view(kb) == _nonempty(want)


# --- gate behaviour ---------------------------------------------------------

@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_raising_the_gate_only_removes_diseases(seed):
    rng = seeded(seed)
    atomics = {f: per for f, per in
               random_kb(rng, 3, with_priorities=False)[1].items()}
    gates = (0, F(1, 20), F(1, 10), F(1, 4))
    builds = [kb_from_atomics(atomics, 3, alpha=a) for a in gates]
    for lo, hi in zip(builds, builds[1:]):
        for label in lo.nodes:
            assert set(hi.node(label).decisions) <= set(lo.node(label).decisions)


@pytest.mark.parametrize("seed", [41, 42])
def test_gate_never_raises_credibility_when_verdicts_agree(seed):
    rng = seeded(seed)
    # one disease, a single truth value everywhere: no cancellation terms
    atomics = {fid: {"ANK": (1, F(rng.randint(30, 100), 100))}
               for fid in (1, 2, 3)}
    gates = (0, F(1, 10), F(1, 4))
    builds = [kb_from_atomics(atomics, 3, alpha=a) for a in gates]
    for lo, hi in zip(builds, builds[1:]):
        for label in lo.nodes:
            for d, entry in hi.node(label).decisions.items():
                assert entry.cf <= lo.node(label).decisions[d].cf


def test_agreeing_atomics_pass_their_verdict_up():
    for vd in (0, 1, 2):
        atomics = {fid: {"ANK": (vd, F(fid, 5))} for fid in (1, 2, 3)}
        kb = kb_from_atomics(atomics, 3)
        for label, node in kb.nodes.items():
            if node.level >= 1:
                assert int(node.decisions["ANK"].vd) == vd, label


# --- fact numbering ------------------------------------------------------------

def _renumbering_changes(round2):
    """(level >= 2 nodes compared, [(seed, label)] of those whose presence
    or vd differs in some disease): seeded order-3 to order-6 KBs of two diseases, built
    as given and again with their facts renumbered by a seeded
    permutation, each node against its image."""
    nodes, changed = 0, []
    for seed in range(300):
        rng = seeded(seed)
        n = rng.randint(3, 6)
        atomics = random_atomics(rng, n, DISEASE_POOL[:2])
        perm = rng.sample(range(1, n + 1), n)   # fact f becomes fact perm[f - 1]
        kb = kb_from_atomics(atomics, n, round2=round2)
        moved = kb_from_atomics({perm[f - 1]: per for f, per in atomics.items()}, n,
                                round2=round2)
        for level in kb.levels[2:]:
            for label in level:
                image = sum(1 << (perm[f - 1] - 1) for f in facts_of(label))
                nodes += 1
                if ({d: e.vd for d, e in kb.decisions.get(int(label, 2), {}).items()}
                        != {d: e.vd for d, e in moved.decisions.get(image, {}).items()}):
                    changed.append((seed, label))
    return nodes, changed


@pytest.mark.parametrize("round2,count", [(False, 24), (True, 27)])
def test_fact_numbering_moves_the_prevailing_value_at_pinned_nodes(round2, count):
    """The prevailing-value chain folds a node's carriers in ascending mask
    order, which is not order-free, so a KB's verdicts depend on how its
    facts are numbered: pinned here, node count and one node by name."""
    nodes, changed = _renumbering_changes(round2)
    assert nodes == 7270
    assert len(changed) == count
    assert (11, "101111") in changed


# --- the level loop against a node-by-node walk ------------------------------

def _walk(kb, masks, external):
    """What ``derive`` returns, node by node: one mask per call, over a
    lattice whose decisions are read fresh where derived here and stored
    otherwise."""
    fresh = {}
    for mask in masks:
        fresh[mask] = derive(kb, [mask], external)[mask]
        kb = kb.with_updates({mask: fresh[mask]})
    return fresh


def _composite_evidence(rng, n, diseases):
    """Direct evidence on f1+f2 and f1+f2+f3, one disease of which no
    atomic decision carries."""
    if n < 2:
        return {}
    triple = TruthTriple(F(1, 5), F(3, 10), F(1, 2))
    external = {frozenset({1, 2}): {"NEW": (1, F(rng.randint(1, 100), 100), triple)}}
    if n >= 3:
        external[frozenset({1, 2, 3})] = {diseases[0]: (rng.randrange(3),
                                                        F(rng.randint(1, 100), 100), None)}
    return external


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("round2", [False, True])
def test_derive_matches_a_node_by_node_walk(n, round2):
    rng = seeded(3000 + n)
    diseases = DISEASE_POOL[:3]
    atomics = random_atomics(rng, n, diseases)
    drawn = random_priorities(rng, n, diseases)
    # a global and (from order 2) a scoped layer whatever the draw
    priorities = PriorityConfig(
        drawn.global_priorities or {(diseases[0], 1): 3},
        drawn.scoped or ({(frozenset({1, 2}), diseases[1]): {1: 1, 2: 4}} if n >= 2 else {}))
    gate = (0, F(1, 20), F(1, 10))[n % 3]
    external = _composite_evidence(rng, n, diseases)
    facts = [Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)]
    atomic = build_kb(facts, entries_with_triples(rng, atomics))
    kb = Lattice(atomic.facts, atomic.decisions, alpha=gate, priorities=priorities,
                 round2=round2)
    masks = [int(label, 2) for level in kb.levels[2:] for label in level]
    got = derive(kb, masks, external)
    assert got == _walk(kb, masks, external)
    assert list(got) == masks
    if n >= 2:
        assert "NEW" in got[0b11]


@pytest.mark.parametrize("n,seed", [(5, 1), (6, 2), (7, 3)])
@pytest.mark.parametrize("round2", [False, True])
def test_edit_cones_match_a_node_by_node_walk(n, seed, round2):
    rng = seeded(3100 + seed)
    kb, _, _ = random_kb(rng, n, alpha=(0, F(1, 20), F(1, 10))[seed % 3], round2=round2)

    def cone_of(edited, label):
        mask = int(label, 2)
        cone = _cone(mask, n)
        view = kb.with_updates({mask: edited.node(label).decisions})
        assert {m: edited.decisions.get(m, {}) for m in cone} == _walk(view, cone, {})

    level1 = "0" * (n - 1) + "1"
    upper = "0" * (n - 3) + "101"
    for label in (level1, upper):
        vd = (int(kb.node(label).decisions.get("ANK", DecisionEntry("ANK", 0, 0)).vd) + 1) % 3
        cone_of(modify_node(kb, label, SetDecision("ANK", vd, F(rng.randint(1, 99), 100))), label)
    grown = insert_fact(kb, Fact(n + 1, "a%d" % (n + 1), "yes"),
                        [DecisionEntry("ANK", 2, F(7, 10)), DecisionEntry("NEW", 1, F(1, 4))])
    cone = _cone(1 << n, n + 1)
    assert {m: grown.decisions.get(m, {}) for m in cone} == _walk(grown, cone, {})


def _assert_built_once(kb, masks):
    """Equal triples of ``masks``' decisions are one object, and so are
    equal decisions of one disease; returns (entries, entry objects)."""
    triples, entries = {}, {}
    count = 0
    for mask in masks:
        for disease, entry in kb.decisions.get(mask, {}).items():
            count += 1
            tv = None if entry.tv is None else tuple(entry.tv)
            if tv is not None:
                assert triples.setdefault(tv, entry.tv) is entry.tv
            key = disease, int(entry.vd), entry.cf, tv
            assert entries.setdefault(key, entry) is entry
    return count, len(entries)


@pytest.mark.parametrize("round2", [False, True])
def test_derive_builds_each_distinct_triple_and_entry_once(round2):
    n, diseases = 7, DISEASE_POOL[:3]
    rng = seeded(2500 + round2)
    atomics = random_atomics(rng, n, diseases)
    atomic = build_kb([Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)],
                      entries_with_triples(rng, atomics))
    priorities = random_priorities(rng, n, diseases)
    kb = propagate(atomic, priorities=priorities, round2=round2)
    composite = [int(label, 2) for level in kb.levels[2:] for label in level]
    count, objects = _assert_built_once(kb, composite)
    assert objects < count
    # the same inside the cone of a level-1 edit
    label = "0" * (n - 1) + "1"
    vd = (int(kb.node(label).decisions.get("ANK", DecisionEntry("ANK", 0, 0)).vd) + 1) % 3
    edited = modify_node(kb, label, SetDecision("ANK", vd, F(37, 100)))
    count, objects = _assert_built_once(edited, _cone(1, n))
    assert objects < count
    # the table lives for one call: a second propagate shares no triple or entry
    again = propagate(atomic, priorities=priorities, round2=round2)
    assert again == kb

    def made(lattice):
        return [entry for mask in composite for entry in lattice.decisions.get(mask, {}).values()]

    assert not {id(e) for e in made(kb)} & {id(e) for e in made(again)}
    assert not ({id(e.tv) for e in made(kb) if e.tv is not None}
                & {id(e.tv) for e in made(again) if e.tv is not None})


def _small_kb_file(n, round2):
    """An order-1 or order-2 file with a gate, global and scoped
    priorities and, at order 2, composite evidence for a new disease."""
    def triple(a, b):
        return F(a, 100), F(b, 100), F(100 - a - b, 100)

    facts = [Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)]
    atomics = {1: [DecisionEntry("ANK", 1, F(37, 100), tv=triple(37, 20)),
                   DecisionEntry("BUR", 2, F(3, 10))]}
    scoped, external = {}, {}
    if n == 2:
        atomics[2] = [DecisionEntry("ANK", 0, F(9, 20), tv=triple(10, 45)),
                      DecisionEntry("BUR", 2, F(2, 3), tv=triple(5, 30))]
        scoped = {(frozenset({1, 2}), "BUR"): {1: 1, 2: 2}}
        external = {frozenset({1, 2}): {"CFJ": (1, F(1, 4), triple(25, 5))}}
    kb = propagate(build_kb(facts, atomics), priorities=PriorityConfig({("ANK", 1): 3}, scoped),
                   external=external, alpha=F(1, 20), round2=round2)
    return serialize_kb(kb)


_HEAD = 'roughkb-kb 1\nmode %s\nalpha 1/20\norder %d\nfact f1 "a1" "yes"\n'
SMALL_FILES = {
    (1, False): _HEAD % ("exact", 1) + (
        "priority ANK f1 3\nnode 0\nnode 1\n"
        "decision ANK vd=1 cf=0.370000 tv=0.370000/0.200000/0.430000 w=f1:1\n"
        "decision BUR vd=2 cf=0.300000 tv=- w=f1:1\n"),
    (1, True): _HEAD % ("round2", 1) + (
        "priority ANK f1 3\nnode 0\nnode 1\n"
        "decision ANK vd=1 cf=0.37 tv=0.37/0.20/0.43 w=f1:1\n"
        "decision BUR vd=2 cf=0.30 tv=- w=f1:1\n"),
    (2, False): _HEAD % ("exact", 2) + (
        'fact f2 "a2" "yes"\npriority ANK f1 3\npriority BUR f1+f2 f1=1 f2=2\n'
        "node 00\nnode 01\n"
        "decision ANK vd=1 cf=0.370000 tv=0.370000/0.200000/0.430000 w=f1:1\n"
        "decision BUR vd=2 cf=0.300000 tv=- w=f1:1\n"
        "node 10\n"
        "decision ANK vd=0 cf=0.450000 tv=0.100000/0.450000/0.450000 w=f2:1\n"
        "decision BUR vd=2 cf=0.666667 tv=0.050000/0.300000/0.650000 w=f2:1\n"
        "node 11\n"
        "decision ANK vd=0 cf=0.165000 tv=0.235000/0.325000/0.440000 w=f1:3/4,f2:1/4\n"
        "decision BUR vd=2 cf=0.544444 tv=0.050000/0.300000/0.650000 w=f1:1/3,f2:2/3\n"
        "decision CFJ vd=1 cf=0.250000 tv=0.250000/0.050000/0.700000 w=f1:1/2,f2:1/2\n"),
    (2, True): _HEAD % ("round2", 2) + (
        'fact f2 "a2" "yes"\npriority ANK f1 3\npriority BUR f1+f2 f1=1 f2=2\n'
        "node 00\nnode 01\n"
        "decision ANK vd=1 cf=0.37 tv=0.37/0.20/0.43 w=f1:1\n"
        "decision BUR vd=2 cf=0.30 tv=- w=f1:1\n"
        "node 10\n"
        "decision ANK vd=0 cf=0.45 tv=0.10/0.45/0.45 w=f2:1\n"
        "decision BUR vd=2 cf=0.67 tv=0.05/0.30/0.65 w=f2:1\n"
        "node 11\n"
        "decision ANK vd=0 cf=0.17 tv=0.24/0.33/0.44 w=f1:3/4,f2:1/4\n"
        "decision BUR vd=2 cf=0.54 tv=0.05/0.30/0.65 w=f1:1/3,f2:2/3\n"
        "decision CFJ vd=1 cf=0.25 tv=0.25/0.05/0.70 w=f1:1/2,f2:1/2\n"),
}


@pytest.mark.parametrize("n,round2", sorted(SMALL_FILES))
def test_order_1_and_2_files_are_pinned(n, round2):
    assert _small_kb_file(n, round2) == SMALL_FILES[(n, round2)]
