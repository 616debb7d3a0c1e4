"""Lattice structure, label arithmetic, construction, and edits."""

import pickle
import re
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DISEASE_POOL, entries_with_triples, kb_from_atomics, random_atomics,
                      random_kb, random_priorities, seeded)
from roughkb import errors
from roughkb.evidence import TruthTriple
from roughkb.kbio import build_from_document, load_kb, parse_evidence, serialize_kb
from roughkb.lattice import (DEFAULT_ORDER_CAP, ConditionEdit, DropDecision, Fact, Lattice,
                             LatticeNode, SetDecision, _bit_positions, _build_structure,
                             _minterms, _skeleton, build_kb, check_structure, delete_fact,
                             facts_of, insert_fact, level_of, modify_node)
from roughkb.minimizer import SopExpression, generate_rules, minimize
from roughkb.propagation import DecisionEntry, PriorityConfig, propagate

F = Fraction


def _facts(n):
    return [Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)]


def _tiny_kb(n=3):
    return build_kb(_facts(n), {1: [DecisionEntry("ANK", 1, F(1, 2))]})


def _label(fids, n):
    """The order-n label of a fact set, read from the order's label table."""
    return _skeleton(n).labels[sum(1 << (f - 1) for f in set(fids))]


# --- label arithmetic -------------------------------------------------------

def test_label_layout_prints_highest_fact_first():
    assert _label([1], 3) == "001"
    assert _label([2], 3) == "010"
    assert _label([1, 3], 3) == "101"
    assert facts_of("101") == frozenset({1, 3})
    assert level_of("101") == 2
    assert level_of("000") == 0


def test_neighbors_enumerate_in_document_order():
    def node(label):
        return LatticeNode(label, facts_of(label), {})
    assert node("111").predecessors == ("011", "101", "110")
    assert node("101").predecessors == ("001", "100")
    assert node("001").successors == ("011", "101")
    assert node("010").successors == ("011", "110")
    assert node("111").successors == ()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
def test_label_roundtrip(case):
    n, fids = case
    label = _label(fids, n)
    assert len(label) == n
    assert facts_of(label) == frozenset(fids)
    assert level_of(label) == len(fids)


# --- structural properties --------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_structure_invariants(n):
    kb = _tiny_kb(n) if n >= 1 else None
    assert len(kb.nodes) == 2 ** n
    assert kb.head.level_count == n + 1
    assert kb.head.entry == "0" * n
    seen = set()
    for level, labels in enumerate(kb.levels):
        assert len(labels) == comb(n, level)
        for label in labels:
            assert label not in seen
            seen.add(label)
            assert level_of(label) == level
            node = kb.node(label)
            assert len(node.predecessors) == level
            assert len(node.successors) == n - level
            for p in node.predecessors:
                assert facts_of(p) < facts_of(label)
                assert level_of(p) == level - 1
            for s in node.successors:
                assert facts_of(label) < facts_of(s)
                assert level_of(s) == level + 1
    assert check_structure(kb) == []


@pytest.mark.parametrize("n", [1, 3, 6])
def test_skeletons_share_labels_and_conditions_not_nodes(n):
    levels, nodes = _build_structure(n)
    again_levels, again = _build_structure(n)
    assert again is not nodes
    assert again_levels == levels
    assert list(again) == list(nodes)
    for label, node in nodes.items():
        other = again[label]
        assert other is not node
        assert other.decisions is not node.decisions
        assert other.label is node.label
        assert other.condition == node.condition
        assert node.condition == facts_of(label)
        assert node.decisions == {}


@pytest.mark.parametrize("n", range(1, 13))
def test_a_cold_skeleton_lists_each_level_in_numeric_order(n, monkeypatch):
    monkeypatch.setattr("roughkb.lattice._SKELETONS", {})
    levels, nodes = _build_structure(n)
    fmt = "0%db" % n
    assert levels == tuple(
        tuple(format(mask, fmt)
              for mask in sorted(sum(1 << p for p in combo)
                                 for combo in combinations(range(n), level)))
        for level in range(n + 1))
    assert list(nodes) == [label for level in levels for label in level]
    for label, node in nodes.items():
        assert node.condition == facts_of(label)
    warm_levels, warm = _build_structure(n)
    assert warm_levels == levels
    assert warm == nodes


def test_a_cold_skeleton_is_one_label_table_without_frozensets(monkeypatch):
    """The table of an order holds each label's mask and ascending fact
    ids, and the labels by mask; no part of it is a frozenset."""
    monkeypatch.setattr("roughkb.lattice._SKELETONS", {})
    n = 6
    table = _skeleton(n)
    parts = [table.levels, *table.levels, table.masks, *table.masks,
             *table.masks.values(), table.labels, table.fact_ids, *table.fact_ids]
    assert not any(isinstance(part, frozenset) for part in parts)
    assert list(table.masks) == [label for level in table.levels for label in level]
    for label, mask in table.masks.items():
        assert table.labels[mask] is label
        assert mask == int(label, 2)
        facts = table.fact_ids[mask]
        assert facts == tuple(sorted(facts_of(label)))
    assert len(table.labels) == len(table.fact_ids) == 1 << n


def test_a_region_reads_into_one_int_over_masks_and_back():
    rng = seeded(3141)
    for n in range(1, 9):
        labels = _skeleton(n).labels
        chosen = rng.sample(labels, rng.randrange(len(labels) + 1))
        region = _minterms(chosen + chosen[:3], n)  # a repeat sets no new bit
        assert region == sum(1 << int(label, 2) for label in chosen)
        assert [labels[mask] for mask in _bit_positions(region)] == sorted(chosen)
    with pytest.raises(errors.OutOfRange, match="^bad minterm label '0x1' for order 3$"):
        _minterms(["001", "1", "0x1"], 3)


def test_edits_leave_the_cached_skeletons_intact():
    """A skeleton dict or node shared between lattices would carry one
    lattice's decisions into the next lattice of the same order."""
    n = 5
    kb, _, _ = random_kb(seeded(5150), n)
    text = serialize_kb(kb)
    first = load_kb(text)
    label = _label([2], n)
    disease = next(iter(first.node(label).decisions))
    edited = modify_node(first, label, DropDecision(disease))
    set_top = modify_node(first, "1" * n, SetDecision("ANK", 1, F(1, 2)))
    grown = insert_fact(edited, Fact(n + 1, "extra", "yes"), [DecisionEntry("ANK", 1, F(3, 4))])
    shrunk = delete_fact(grown, 1)
    for lattice in (first, edited, set_top, grown, shrunk, delete_fact(first, 3)):
        assert check_structure(lattice) == []
    assert serialize_kb(first) == text
    assert text != serialize_kb(edited) != serialize_kb(set_top) != text
    second = load_kb(text)
    assert check_structure(second) == []
    assert serialize_kb(second) == text
    for m in (n - 1, n, n + 1):
        assert not any(node.decisions for node in _build_structure(m)[1].values())


def test_nodes_handed_out_share_nothing_with_any_lattice():
    """Nodes are built on demand: emptying a node or a node map that an
    edited lattice hands out changes neither that lattice nor the one
    it was edited from."""
    kb, _, _ = random_kb(seeded(2400), 4)
    text = serialize_kb(kb)
    edited = modify_node(kb, "0001", SetDecision("ANK", 1, F(1, 3)))
    edited_text = serialize_kb(edited)
    assert edited_text != text
    outside = "0010"  # not in the cone of 0001
    assert kb.node(outside).decisions
    edited.nodes[outside].decisions.clear()
    edited.node(outside).decisions.clear()
    assert serialize_kb(kb) == text
    assert serialize_kb(edited) == edited_text
    assert edited.node(outside) == kb.node(outside)


# --- construction -----------------------------------------------------------

def test_build_rejects_bad_fact_lists():
    with pytest.raises(errors.OutOfRange):
        build_kb([], {})
    with pytest.raises(errors.DuplicateFact):
        build_kb([Fact(1, "a", "yes"), Fact(1, "b", "yes")], {})
    with pytest.raises(errors.DuplicateFact):
        build_kb([Fact(1, "a", "yes"), Fact(2, "a", "yes")], {})
    with pytest.raises(errors.OutOfRange):
        build_kb([Fact(1, "a", "yes"), Fact(3, "b", "yes")], {})


def test_every_builder_checks_the_order_cap_before_building(monkeypatch):
    """An order above the cap is refused with one message by every entry
    point that takes an order, before any node is built."""
    def refuse(n):
        raise AssertionError("skeleton of order %d built" % n)
    for name in ("_skeleton", "_build_structure"):
        monkeypatch.setattr("roughkb.lattice." + name, refuse)
        monkeypatch.setattr("roughkb.kbio." + name, refuse)
    n = DEFAULT_ORDER_CAP + 1
    doc = parse_evidence("module m\ngrading q=1\n" + "".join(
        'fact f%d "a%d" "yes"\n' % (f, f) for f in range(1, n + 1)))
    text = "roughkb-kb 1\nmode exact\nalpha 0\norder %d\n" % n + "".join(
        "fact f%d a%d yes\n" % (f, f) for f in range(1, n + 1))
    builders = {
        "Lattice": lambda: Lattice(_facts(n), {}),
        "build_kb": lambda: build_kb(_facts(n), {}),
        "build_from_document": lambda: build_from_document(doc),
        # insert_fact reads the order first, so a stand-in at the cap will do
        "insert_fact": lambda: insert_fact(SimpleNamespace(n=DEFAULT_ORDER_CAP),
                                           Fact(n, "a%d" % n, "yes"), []),
        "load_kb": lambda: load_kb(text),
        "minimize": lambda: minimize(["1" * n], n),
        "SopExpression": lambda: SopExpression(n, []),
        "generate_rules": lambda: generate_rules(SimpleNamespace(n=n, nodes={}), {}),
    }
    for name, build in builders.items():
        with pytest.raises(errors.OrderTooLarge) as caught:
            build()
        assert str(caught.value) == "order %d exceeds the cap of %d" % (n, DEFAULT_ORDER_CAP), name


def test_the_constructor_checks_the_facts():
    nodes = _build_structure(2)[1]
    for facts in ([Fact(2, "a", "yes")], [Fact(2, "b", "yes"), Fact(1, "a", "yes")],
                  [Fact(1, "a", "yes"), Fact(3, "b", "yes")]):
        with pytest.raises(errors.OutOfRange, match=r"^fact ids must be 1\.\.%d in order$"
                           % len(facts)):
            Lattice(facts, nodes)
    with pytest.raises(errors.DuplicateFact, match="^fact 'a'='yes' appears twice$"):
        Lattice([Fact(1, "a", "yes"), Fact(2, "a", "yes")], nodes)
    with pytest.raises(errors.DuplicateFact, match="^fact id 1 appears twice$"):
        Lattice([Fact(1, "a", "yes"), Fact(1, "b", "yes")], nodes)
    # build_kb puts the facts in id order, even ids of unlike types
    with pytest.raises(errors.OutOfRange, match="^fact ids must be"):
        build_kb([Fact(1, "a", "yes"), Fact("2", "b", "yes")], {})


def test_the_constructor_refuses_a_label_of_another_order():
    """Decisions are keyed by int mask: a label, a bool, and an int outside
    0..2**n - 1 name no node, and the least of several is named, ints
    first."""
    entry = {"ANK": DecisionEntry("ANK", 1, F(1, 2))}
    for key in ("01", "011", "", True, False, -1, 4, 2.0, None, (1,)):
        with pytest.raises(errors.DanglingLabel,
                           match=r"^no node of order 2 has mask %s$" % re.escape(repr(key))):
            Lattice(_facts(2), {3: entry, key: entry})
    with pytest.raises(errors.DanglingLabel, match="^no node of order 2 has mask -1$"):
        Lattice(_facts(2), {"01": entry, True: entry, 1 << 2: entry, -1: entry})
    with pytest.raises(errors.DanglingLabel, match="^no node of order 2 has mask True$"):
        Lattice(_facts(2), {"01": entry, 1 << 2: entry, True: entry})
    # with_updates checks the maps it files as the constructor does
    kb = Lattice(_facts(2), {1: entry})
    with pytest.raises(errors.DanglingLabel, match="^no node of order 2 has mask -1$"):
        kb.with_updates({2: entry, "01": entry, True: entry, 1 << 2: entry, -1: entry})
    with pytest.raises(errors.DanglingLabel, match="^no node of order 2 has mask '10'$"):
        kb.with_updates({2: entry, "10": entry})
    with pytest.raises(errors.DanglingLabel, match=r"^no node labelled \['01'\]$"):
        _tiny_kb(2).node(["01"])


def test_the_constructor_drops_empty_maps():
    kb = Lattice(_facts(2), {0b01: {}, 0b11: {}})
    assert kb.decisions == {}
    assert kb == Lattice(_facts(2), {})
    assert kb.with_updates({0b10: {}}) == kb


def test_every_lattice_is_keyed_by_int_mask():
    """Build, propagate, load and the three edits key each decision map by
    its node's mask, and a label names the map its mask keys."""
    atomic = build_kb(_facts(3)[::-1], {1: [DecisionEntry("ANK", 1, F(1, 2))],
                                        3: [DecisionEntry("BUR", 0, F(3, 4))]})
    assert list(atomic.decisions) == [0b001, 0b100]
    kb = propagate(atomic, round2=True)
    grown = insert_fact(kb, Fact(4, "a4", "yes"), [DecisionEntry("ANK", 2, F(1, 4))])
    shrunk = delete_fact(grown, 2)
    edited = modify_node(kb, "001", SetDecision("ANK", 0, F(1, 3)))
    renamed = modify_node(kb, "100", ConditionEdit(value="no"))
    lattices = [atomic, kb, load_kb(serialize_kb(kb)), grown, shrunk, edited, renamed]
    for lattice in lattices:
        assert lattice.decisions
        for mask, entries in lattice.decisions.items():
            assert type(mask) is int and 0 < mask < 1 << lattice.n
            assert lattice.node(_skeleton(lattice.n).labels[mask]).decisions == entries
    # insert keeps every map under its key: the new fact is the top bit
    assert all(grown.decisions[mask] is entries for mask, entries in kb.decisions.items())
    assert set(grown.decisions[0b1000]) == {"ANK"}
    # delete drops the masks holding fact 2's bit and shifts the bits above it down
    assert shrunk.decisions == {mask & 0b1 | (mask >> 1) & ~0b1: entries
                                for mask, entries in grown.decisions.items() if not mask & 0b10}
    assert shrunk.decisions[0b100] is grown.decisions[0b1000]


@pytest.mark.parametrize("call", [
    lambda: Lattice([5], {}),
    lambda: Lattice([Fact(1, "a", "yes"), ("2", "b", "yes")], {}),
    lambda: insert_fact(_tiny_kb(2), 5, []),
    lambda: build_kb([5], {}),
    lambda: build_kb([Fact(1, "a", "yes"), None], {}),
], ids=["Lattice", "Lattice-tuple", "insert_fact", "build_kb", "build_kb-None"])
def test_a_fact_that_is_not_a_fact_is_refused(call):
    """Each raised a bare AttributeError reading the value's id."""
    with pytest.raises(errors.OutOfRange, match="^fact .+ is not a Fact$") as caught:
        call()
    assert type(caught.value) is errors.OutOfRange


@pytest.mark.parametrize("build", [Lattice, build_kb], ids=["Lattice", "build_kb"])
@pytest.mark.parametrize("facts", [5, None, Fact(1, "a", "yes")], ids=["int", "None", "Fact"])
def test_facts_that_are_not_a_collection_are_refused(build, facts):
    """Each raised a bare TypeError from tuple(facts)."""
    with pytest.raises(errors.OutOfRange, match="^facts .+ are not a collection$"):
        build(facts, {})


@pytest.mark.parametrize("decisions,message", [
    ({1: {"ANK": "junk"}}, "^decision 'ANK' at 1 is not a DecisionEntry of that disease"),
    ({1: {"ANK": None}}, "^decision 'ANK' at 1 is not a DecisionEntry"),
    ({1: {"BUR": DecisionEntry("ANK", 1, "0.5")}},
     "^decision 'BUR' at 1 is not a DecisionEntry of that disease: DecisionEntry\\('ANK'"),
    ({1: ["ANK"]}, "^decisions must map masks to maps of entries$"),
    ({1: "ANK"}, "^decisions must map masks to maps of entries$"),
    ([1], "^decisions must map masks to maps of entries$"),
])
def test_the_constructor_refuses_a_malformed_decision_map(decisions, message):
    """Each was accepted: serialize_kb then raised a bare AttributeError or
    TypeError, or wrote an ANK entry as BUR's, which loads as another lattice."""
    with pytest.raises(errors.OutOfRange, match=message):
        Lattice(_facts(2), decisions)
    with pytest.raises(errors.OutOfRange, match=message):
        Lattice(_facts(2), {}).with_updates(decisions)


@pytest.mark.parametrize("alpha", [2, F(-1, 2), "3/2"])
def test_the_constructor_refuses_a_gate_outside_the_unit_interval(alpha):
    """A lattice holds only a gate its file can hold: ``load_kb`` refuses
    ``alpha 2``."""
    kb = _tiny_kb(2)
    with pytest.raises(errors.OutOfRange, match=r"^alpha %s outside \[0, 1\]$" % F(alpha)):
        Lattice(kb.facts, kb.decisions, alpha=alpha)


@pytest.mark.parametrize("facts,message", [
    ([Fact([1], "a", "b")], r"fact ids must be 1\.\.1 in order"),
    ([Fact(1, ["a"], "b")], r"fact 1 attribute and value must be text, got \['a'\]='b'"),
    ([Fact(1, 5, "x")], r"fact 1 attribute and value must be text, got 5='x'"),
    ([Fact(True, "a", "b")], r"fact ids must be 1\.\.1 in order"),
    ([Fact(1, "a", "b"), Fact(2.0, "c", "d")], r"fact ids must be 1\.\.2 in order"),
], ids=["list-id", "list-attribute", "int-attribute", "bool-id", "float-id"])
def test_fact_fields_of_the_wrong_type_are_refused(facts, message):
    with pytest.raises(errors.OutOfRange, match="^%s$" % message):
        build_kb(facts, {})


def test_edits_refuse_fact_fields_of_the_wrong_type():
    kb = _tiny_kb(2)
    for fid in ([3], 3.0):
        with pytest.raises(errors.OutOfRange, match=r"^fact ids must be 1\.\.3 in order$"):
            insert_fact(kb, Fact(fid, "c", "yes"), [])
    with pytest.raises(errors.OutOfRange, match="^fact 3 attribute and value must be text"):
        insert_fact(kb, Fact(3, ["c"], "yes"), [])
    with pytest.raises(errors.OutOfRange, match="^fact 1 attribute and value must be text"):
        modify_node(kb, "01", ConditionEdit(value=5))


def test_levels_follow_from_the_order_after_unpickling(monkeypatch):
    kb = _tiny_kb(4)
    levels = kb.levels
    data = pickle.dumps(kb)
    # a fresh process starts with no cached skeleton
    monkeypatch.setattr("roughkb.lattice._SKELETONS", {})
    again = pickle.loads(data)
    assert again.levels == levels
    assert again == kb
    assert check_structure(again) == []


def test_build_rejects_bad_atomic_decisions():
    with pytest.raises(errors.UnknownFact):
        build_kb(_facts(2), {3: [DecisionEntry("ANK", 1, F(1, 2))]})
    with pytest.raises(errors.OutOfRange):
        build_kb(_facts(2), {1: [DecisionEntry("ANK", 1, F(1, 2)),
                                 DecisionEntry("ANK", 0, F(1, 4))]})


@pytest.mark.parametrize("key", [1.5, True, "2", "x", None, (1,)])
def test_only_an_int_keys_atomic_decisions(key):
    # 1.5 and True were taken as fact 1, "2" as fact 2; "x" raised a bare
    # ValueError and None or (1,) a bare TypeError
    with pytest.raises(errors.UnknownFact, match="^no fact with id "):
        build_kb(_facts(2), {key: [DecisionEntry("ANK", 1, F(1, 2))]})


@pytest.mark.parametrize("entries", [None, 5, [None], ["ANK"], "ANK",
                                     [DecisionEntry("ANK", 1, F(1, 2)), (1, F(1, 2))]])
def test_atomic_decisions_that_are_not_entries_are_refused(entries):
    with pytest.raises(errors.OutOfRange, match="^fact 1 decision"):
        build_kb(_facts(2), {1: entries})


def test_a_bool_names_no_fact():
    kb = _tiny_kb(2)
    for fid in (True, False):
        with pytest.raises(errors.UnknownFact, match="^no fact with id "):
            kb.fact(fid)
        with pytest.raises(errors.UnknownFact, match="^no fact with id "):
            delete_fact(kb, fid)


def test_build_places_atomics_and_leaves_composites_empty():
    kb = build_kb(_facts(2), {1: [DecisionEntry("ANK", 1, F(1, 2))],
                              2: [DecisionEntry("BUR", 0, F(3, 4))]})
    assert set(kb.node("01").decisions) == {"ANK"}
    assert set(kb.node("10").decisions) == {"BUR"}
    assert kb.node("11").decisions == {}
    assert kb.node("00").decisions == {}
    assert kb.diseases() == ("ANK", "BUR")
    assert "node 01\ndecision ANK vd=1 cf=0.500000 tv=- w=f1:1\n" in serialize_kb(kb)


def test_node_and_fact_lookup_errors():
    kb = _tiny_kb(2)
    with pytest.raises(errors.DanglingLabel):
        kb.node("111")
    with pytest.raises(errors.UnknownFact):
        kb.fact(9)
    assert kb.fact(2).attribute == "a2"


def test_an_id_that_names_no_fact_is_unknown():
    kb = _tiny_kb(2)
    for fid in (9, 0, -1, "a", None, 1.0, [1]):
        with pytest.raises(errors.UnknownFact, match="^no fact with id "):
            kb.fact(fid)
        with pytest.raises(errors.UnknownFact, match="^no fact with id "):
            delete_fact(kb, fid)


# --- fact insertion and deletion --------------------------------------------

def test_insert_fact_prefixes_existing_labels():
    rng = seeded(101)
    kb, _, _ = random_kb(rng, 2)
    bigger = insert_fact(kb, Fact(3, "a3", "yes"),
                         [DecisionEntry("ANK", 2, F(1, 3))])
    assert bigger.n == 3
    for label in kb.nodes:
        old = kb.node(label).decisions
        new = bigger.node("0" + label).decisions
        assert set(old) == set(new)
        for d in old:
            assert (old[d].vd, old[d].cf) == (new[d].vd, new[d].cf)
    assert bigger.node("100").decisions["ANK"].cf == F(1, 3)
    assert check_structure(bigger) == []


def test_insert_fact_requires_the_next_id():
    kb = _tiny_kb(2)
    with pytest.raises(errors.OutOfRange):
        insert_fact(kb, Fact(5, "a5", "yes"), [])
    with pytest.raises(errors.DuplicateFact):
        insert_fact(kb, Fact(3, "a1", "yes"), [])


@pytest.mark.parametrize("seed", [7, 19, 23])
def test_insert_then_delete_restores_the_lattice(seed):
    rng = seeded(seed)
    kb, _, _ = random_kb(rng, 3, round2=True)
    grown = insert_fact(kb, Fact(4, "a4", "yes"),
                        [DecisionEntry("COX", 1, F(2, 5))])
    back = delete_fact(grown, 4)
    assert back == kb


@pytest.mark.parametrize("seed,drop", [(3, 1), (3, 2), (11, 3), (29, 2),
                                       (7, 4), (13, 5), (17, 6), (19, 7)])
def test_delete_fact_equals_rebuild_on_reduced_input(seed, drop):
    """Deleting a fact writes the file of a fresh build from the other
    facts' stored atomics, at every order 3-7 that has the fact, in both
    modes, under global priorities and scoped ones on fact sets with and
    without the fact.  The drops cover every position 1..n at each order."""
    diseases = DISEASE_POOL[:3]
    for n in range(max(3, drop), 8):
        rng = seeded(100 * seed + n)
        entries = entries_with_triples(rng, random_atomics(rng, n, diseases))
        glob = {(d, f): rng.randint(1, 4) for d in diseases for f in range(1, n + 1)
                if rng.random() < 0.5}
        others = [f for f in range(1, n + 1) if f != drop]
        scoped = {(frozenset(facts), rng.choice(diseases)): {f: rng.randint(1, 4) for f in facts}
                  for facts in (rng.sample(others, 2) + [drop], rng.sample(others, 2))}
        priorities = PriorityConfig(glob, scoped)
        alpha = (0, F(1, 20))[n % 2]
        shift = lambda f: f - 1 if f > drop else f  # noqa: E731
        for round2 in (False, True):
            kb = propagate(build_kb(_facts(n), entries), priorities=priorities,
                           alpha=alpha, round2=round2)
            survivors = [Fact(shift(f.id), f.attribute, f.value)
                         for f in kb.facts if f.id != drop]
            # the rebuild's atomics are the stored ones, truth triples included
            reduced = {shift(fid): list(kb.node(_label([fid], n)).decisions.values())
                       for fid in others}
            rebuilt = propagate(build_kb(survivors, reduced),
                                priorities=priorities.without_fact(drop), alpha=alpha,
                                round2=round2)
            assert serialize_kb(delete_fact(kb, drop)) == serialize_kb(rebuilt), (n, round2)


@pytest.mark.parametrize("priorities,fid", [
    (PriorityConfig({("ANK", 9): 2, ("ANK", 0): 3}), 0),
    (PriorityConfig(scoped={(frozenset({1, 2, 9}), "ANK"): {1: 1, 2: 2, 9: 3}}), 9),
])
def test_priorities_on_facts_outside_the_order_are_refused(priorities, fid):
    """A lattice refuses what its file could not hold: the loader refuses a
    priority on fact f0 or on a fact above the order."""
    kb = _tiny_kb(3)
    message = r"^priority on fact %d outside 1\.\.3$" % fid
    with pytest.raises(errors.OutOfRange, match=message):
        propagate(kb, priorities=priorities)
    # every edit builds its result through the same constructor
    with pytest.raises(errors.OutOfRange, match=message):
        Lattice(kb.facts, kb.decisions, priorities=priorities)


def test_build_orders_the_facts_by_id():
    facts = _facts(3)
    atomics = {1: [DecisionEntry("ANK", 1, F(1, 2))], 3: [DecisionEntry("BUR", 0, F(1, 4))]}
    # the two-decimal mode, whose files hold every value exactly
    in_order = propagate(build_kb(facts, atomics), round2=True)
    backwards = propagate(build_kb(facts[::-1], atomics), round2=True)
    assert backwards.facts == tuple(facts)
    assert backwards == in_order
    text = serialize_kb(backwards)
    assert text == serialize_kb(in_order)
    assert load_kb(text) == in_order


def _rebuilt(n, entries, priorities, alpha, round2):
    return serialize_kb(propagate(build_kb(_facts(n), entries), priorities=priorities,
                                  alpha=alpha, round2=round2))


# (round2, n, seed).  Order 12 runs in the two-decimal mode only: its
# file holds every value exactly, so its text is the strict comparison,
# and the exact mode takes about twice as long at that order.
_CONE_CASES = [(round2, n, seed) for round2 in (False, True)
               for n, seed in ((5, 1), (6, 2), (7, 3), (8, 4), (10, 5))] + [(True, 12, 6)]


@pytest.mark.parametrize("round2,n,seed", _CONE_CASES)
def test_cone_edits_serialize_as_a_rebuild_of_the_edited_atomics(round2, n, seed):
    """A cone re-derivation reads stored predecessors outside the cone, so
    a stale value read from one would show against a rebuild."""
    rng = seeded(3000 + seed)
    entries = entries_with_triples(rng, random_atomics(rng, n, DISEASE_POOL[:3]))
    priorities = random_priorities(rng, n, DISEASE_POOL[:3])
    alpha = (0, F(1, 20), F(1, 10))[seed % 3]
    kb = propagate(build_kb(_facts(n), entries), priorities=priorities,
                   alpha=alpha, round2=round2)
    fid = rng.choice(sorted(entries))
    label = _label([fid], n)
    victim = entries[fid][0]

    # level-1 set: a new value for a decision the fact already carries
    tv = TruthTriple(F(1, 5), F(3, 10), F(1, 2))
    change = SetDecision(victim.disease, (int(victim.vd) + 1) % 3,
                         F(rng.randint(1, 100), 100), tv=tv)
    edited = dict(entries)
    edited[fid] = [DecisionEntry(change.disease, change.vd, change.cf, tv=tv)
                   if e.disease == victim.disease else e for e in entries[fid]]
    assert (serialize_kb(modify_node(kb, label, change))
            == _rebuilt(n, edited, priorities, alpha, round2))

    # drop that decision
    dropped = dict(entries)
    dropped[fid] = [e for e in entries[fid] if e.disease != victim.disease]
    assert (serialize_kb(modify_node(kb, label, DropDecision(victim.disease)))
            == _rebuilt(n, dropped, priorities, alpha, round2))

    # insert a fact with decisions of its own
    new = [DecisionEntry(d, rng.randrange(3), F(rng.randint(1, 100), 100),
                         tv=TruthTriple(F(1, 4), F(1, 4), F(1, 2)))
           for d in DISEASE_POOL[:2]]
    grown = dict(entries)
    grown[n + 1] = new
    assert (serialize_kb(insert_fact(kb, Fact(n + 1, "a%d" % (n + 1), "yes"), new))
            == _rebuilt(n + 1, grown, priorities, alpha, round2))


def test_delete_refuses_the_last_fact():
    kb = _tiny_kb(1)
    with pytest.raises(errors.OutOfRange):
        delete_fact(kb, 1)
    with pytest.raises(errors.UnknownFact):
        delete_fact(_tiny_kb(2), 5)


# --- targeted edits ---------------------------------------------------------

class _Recorder:
    def __init__(self):
        self.events = []

    def decisions_added(self, disease, pairs):
        self.events.append(("added", disease, list(pairs)))

    def decisions_removed(self, disease, pairs):
        self.events.append(("removed", disease, list(pairs)))

    def truth_changed(self, disease, label, old_vd, new_vd):
        self.events.append(("changed", disease, label, int(old_vd), int(new_vd)))


def _two_fact_kb():
    kb = build_kb(_facts(2), {1: [DecisionEntry("ANK", 1, F(1, 2))],
                              2: [DecisionEntry("ANK", 1, F(1, 4))]})
    return propagate(kb)


def test_set_decision_ripples_upward():
    kb = _two_fact_kb()
    assert kb.node("11").decisions["ANK"].vd == 1
    rec = _Recorder()
    out = modify_node(kb, "01", SetDecision("ANK", 0, F(1, 2)), observer=rec)
    assert out.node("01").decisions["ANK"].vd == 0
    # the flipped side carries the higher credibility, so it prevails
    assert out.node("11").decisions["ANK"].vd == 0
    assert out.node("11").decisions["ANK"].cf == F(1, 8)
    assert rec.events == [("changed", "ANK", "01", 1, 0),
                          ("changed", "ANK", "11", 1, 0)]


def test_set_decision_tie_turns_inconclusive():
    kb = _two_fact_kb()
    rec = _Recorder()
    # equal credibility on opposite verdicts: the pair cannot settle
    out = modify_node(kb, "01", SetDecision("ANK", 0, F(1, 4)), observer=rec)
    assert out.node("11").decisions["ANK"].vd == 2
    assert ("changed", "ANK", "11", 1, 2) in rec.events


def test_set_decision_with_same_vd_is_silent():
    kb = _two_fact_kb()
    rec = _Recorder()
    out = modify_node(kb, "01", SetDecision("ANK", 1, F(9, 10)), observer=rec)
    assert rec.events == []
    assert out.node("01").decisions["ANK"].cf == F(9, 10)
    assert out.node("11").decisions["ANK"].cf != kb.node("11").decisions["ANK"].cf


def test_set_decision_that_changes_nothing_returns_the_kb():
    kb = _two_fact_kb()
    stored = kb.node("01").decisions["ANK"]
    rec = _Recorder()
    same = SetDecision("ANK", stored.vd, stored.cf, tv=stored.tv)
    assert modify_node(kb, "01", same, observer=rec) is kb
    assert rec.events == []


def test_reasserting_the_stored_vd_and_cf_keeps_the_triple_and_the_kb(kb_round2):
    """A SetDecision without a triple that repeats the stored vd and cf
    changes nothing, at level 1 and above."""
    for label in ("001", "011", "111"):
        for disease, stored in kb_round2.node(label).decisions.items():
            assert stored.tv is not None
            rec = _Recorder()
            change = SetDecision(disease, stored.vd, stored.cf)
            assert modify_node(kb_round2, label, change, observer=rec) is kb_round2
            assert rec.events == []
            # another cf is an edit, and it carries no triple
            other = SetDecision(disease, stored.vd, 1 - stored.cf / 2)
            assert modify_node(kb_round2, label, other).node(label).decisions[disease].tv is None


def test_drop_decision_reports_removals():
    kb = _two_fact_kb()
    rec = _Recorder()
    out = modify_node(kb, "01", DropDecision("ANK"), observer=rec)
    assert "ANK" not in out.node("01").decisions
    # the composite survives on the carryover from fact 2 alone
    assert out.node("11").decisions["ANK"].vd == 1
    assert rec.events == [("removed", "ANK", [("01", 1)])]
    with pytest.raises(errors.NotPresent):
        modify_node(out, "01", DropDecision("ANK"))


def test_new_atomic_decision_reports_additions():
    kb = _two_fact_kb()
    rec = _Recorder()
    out = modify_node(kb, "01", SetDecision("BUR", 2, F(1, 5)), observer=rec)
    assert out.node("01").decisions["BUR"].vd == 2
    assert ("added", "BUR", [("01", 2), ("11", 2)]) in rec.events
    assert set(out.diseases()) >= {"ANK", "BUR"}


def test_condition_edit_renames_in_place():
    kb = _two_fact_kb()
    out = modify_node(kb, "01", ConditionEdit(attribute="fever", value="no"))
    assert out.fact(1).attribute == "fever"
    assert out.fact(1).value == "no"
    assert out.node("11").decisions == kb.node("11").decisions
    with pytest.raises(errors.IllegalConditionEdit):
        modify_node(kb, "11", ConditionEdit(attribute="x"))


def test_root_rejects_decision_edits():
    kb = _two_fact_kb()
    with pytest.raises(errors.OutOfRange):
        modify_node(kb, "00", SetDecision("ANK", 1, F(1, 2)))
    with pytest.raises(errors.DanglingLabel):
        modify_node(kb, "0110", SetDecision("ANK", 1, F(1, 2)))
