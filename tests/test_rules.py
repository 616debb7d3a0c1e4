"""Rules from ``generate_rules``: pinned on approximations that did not
come from the knowledge base, and region by region against the public
``minimize`` and the reference measures on seeded knowledge bases."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracles
import roughkb
from conftest import kb_from_atomics, random_kb, seeded
from roughkb import errors, metrics, minimizer, roughset
from roughkb.evidence import TruthValue
from roughkb.lattice import DEFAULT_ORDER_CAP, SetDecision, modify_node
from roughkb.minimizer import MinimizedRule, generate_rules, minimize
from roughkb.roughset import ApproximationSets

F = Fraction
ALL_KINDS = ("certain", "uncertain", "possible")
# each rule's (kind, vd) and the region it is minimized from
REGION_OF = {("certain", 1): "lower1", ("certain", 0): "lower2",
             ("uncertain", 2): "boundary1", ("possible", 1): "upper1",
             ("possible", 0): "upper2"}


def _kb():
    """Order 3, exact mode.  The node of fact 2 alone (010) has no BUR
    decision and the entry node 000 none at all."""
    return kb_from_atomics({1: {"ANK": (1, F(1, 2)), "BUR": (0, F(3, 10))},
                            2: {"ANK": (0, F(1, 4))},
                            3: {"ANK": (2, F(3, 5)), "BUR": (1, F(7, 10))}}, 3)


def _sets(lower1=(), lower2=(), boundary1=()):
    return ApproximationSets(frozenset(lower1), frozenset(lower2), frozenset(boundary1))


def _shown(rules):
    return [(r.disease, int(r.vd), r.kind, str(r.condition), tuple(sorted(r.source_labels)),
             None if r.metrics is None else (r.metrics.support, r.metrics.strength,
                                             r.metrics.certainty, r.metrics.coverage))
            for r in rules]


# --- approximations that did not come from the knowledge base ---------------

@pytest.mark.parametrize("approx,kinds,error,message", [
    # the least bad label of the rule's region is named
    ({"ANK": _sets(lower1={"001", "0x1", "01"})}, ALL_KINDS,
     errors.OutOfRange, "bad minterm label '01' for order 3"),
    # an upper region's stored parts are read in order, lower1 first
    ({"ANK": _sets(lower1={"001", "10"}, boundary1={"0x1", "011"})}, ("possible",),
     errors.OutOfRange, "bad minterm label '10' for order 3"),
    # the certain rule's undecided label raises before the uncertain rule's
    # malformed one
    ({"BUR": _sets(lower1={"001", "010"}, boundary1={"0x1"})}, ALL_KINDS,
     errors.DanglingLabel, "node 010 carries no decision for 'BUR'"),
    ({"BUR": _sets(lower1={"001"}, lower2={"010"})}, ALL_KINDS,
     errors.DanglingLabel, "node 010 carries no decision for 'BUR'"),
    ({"ANK": _sets(lower1={"001", "000"})}, ("certain",),
     errors.DanglingLabel, "node 000 carries no decision for 'ANK'"),
])
def test_hand_built_regions_raise_at_their_rule(approx, kinds, error, message):
    with pytest.raises(error) as caught:
        generate_rules(_kb(), approx, kinds)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_a_malformed_label_fails_alike_in_rules_and_property_checks():
    # both read a region through lattice._minterms
    approx = {"ANK": _sets(lower1={"001", "0x1", "100"})}
    raised = []
    for run in (generate_rules, metrics.check_properties):
        with pytest.raises(errors.KbError) as caught:
            run(_kb(), approx)
        raised.append((type(caught.value), str(caught.value)))
    assert raised == [(errors.OutOfRange, "bad minterm label '0x1' for order 3")] * 2


# prints what generate_rules and check_properties raise on a region of two
# undecided labels, 000 and 010
_TWO_UNDECIDED = """
import sys
sys.path[:0] = sys.argv[1:]
from roughkb import errors, metrics, minimizer
from test_rules import _kb, _sets
kb, approx = _kb(), {"BUR": _sets(lower1={"001", "010", "000", "110"})}
for run in (minimizer.generate_rules, metrics.check_properties):
    try:
        run(kb, approx)
    except errors.DanglingLabel as caught:
        print(caught)
"""


@pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
def test_the_least_undecided_label_is_named_under_any_hash_seed(seed):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughkb.__file__)))
    done = subprocess.run([sys.executable, "-c", _TWO_UNDECIDED, src, here],
                          env={**os.environ, "PYTHONHASHSEED": seed},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["node 000 carries no decision for 'BUR'"] * 2


@pytest.mark.parametrize("kinds,message", [
    (("certain", "certain"), "rule kind 'certain' given twice"),
    (("possible", "certain", "uncertain", "possible"), "rule kind 'possible' given twice"),
    (("certain", "sure"), "unknown rule kind 'sure'"),
])
def test_unknown_and_repeated_kinds_are_refused(kinds, message):
    with pytest.raises(errors.OutOfRange, match="^%s$" % message):
        generate_rules(_kb(), {"ANK": _sets(lower1={"001"})}, kinds)


@pytest.mark.parametrize("n,error,message", [
    (0, errors.OutOfRange, "order must be at least 1, got 0"),
    (DEFAULT_ORDER_CAP + 1, errors.OrderTooLarge,
     "order %d exceeds the cap of %d" % (DEFAULT_ORDER_CAP + 1, DEFAULT_ORDER_CAP)),
])
def test_an_order_outside_the_cap_is_refused_as_minimize_refuses_it(n, error, message):
    kb = SimpleNamespace(n=n, nodes={})
    with pytest.raises(error) as caught:
        generate_rules(kb, {"ANK": _sets(lower1={"1" * n})})
    assert str(caught.value) == message


@pytest.mark.parametrize("call,error", [
    # each raised a bare TypeError or AttributeError
    (lambda kb: roughset.approximations(kb, ["ANK"]), errors.UnknownDisease),
    (lambda kb: roughset.concepts(kb, ["ANK"]), errors.UnknownDisease),
    (lambda kb: generate_rules(kb, {"ANK": 5}), errors.OutOfRange),
    (lambda kb: metrics.check_properties(kb, {"ANK": 5}), errors.OutOfRange),
    (lambda kb: generate_rules(kb, {}, None), errors.OutOfRange),
], ids=["approximations", "concepts", "generate_rules", "check_properties", "kinds"])
def test_malformed_rule_path_arguments_fail_typed(call, error):
    with pytest.raises(error) as caught:
        call(_kb())
    assert type(caught.value) is error
    assert str(caught.value)


def test_a_label_in_both_lower_and_boundary_is_refused():
    approx = {"ANK": SimpleNamespace(lower1={"001", "011", "100"}, lower2={"010"},
                                     boundary1={"100", "101", "011"})}
    with pytest.raises(errors.OutOfRange,
                       match="^label '011' is in two approximation regions$"):
        generate_rules(_kb(), approx, ALL_KINDS)


def test_approximations_taken_before_an_edit_measure_the_edited_values():
    kb = _kb()
    approx = {d: roughset.approximations(kb, d) for d in kb.diseases()}
    kb = modify_node(kb, "001", SetDecision("ANK", 0, F(1, 2)))
    kb = modify_node(kb, "100", SetDecision("BUR", 2, F(1, 2)))
    # ANK and BUR vd=1 regions now hold no decision of vd 1: unmeasured
    assert _shown(generate_rules(kb, approx, ALL_KINDS)) == [
        ("ANK", 0, "possible", "(NOT f1 AND f2) OR f3",
         ("010", "100", "101", "110", "111"), (F(6, 5), F(48, 83), F(1), F(1))),
        ("ANK", 2, "uncertain", "f3",
         ("100", "101", "110", "111"), (F(19, 20), F(38, 83), F(1, 2), F(1, 2))),
        ("ANK", 0, "certain", "NOT f1 AND f2 AND NOT f3",
         ("010",), (F(1, 4), F(10, 83), F(1), F(2, 9))),
        ("ANK", 1, "certain", "f1 AND NOT f3", ("001", "011"), None),
        ("ANK", 1, "possible", "f1 OR f3",
         ("001", "011", "100", "101", "110", "111"), None),
        ("BUR", 0, "certain", "f1 AND NOT f3",
         ("001", "011"), (F(9, 20), F(27, 83), F(1), F(1))),
        ("BUR", 0, "possible", "f1 AND NOT f3",
         ("001", "011"), (F(9, 20), F(27, 83), F(1), F(1))),
        ("BUR", 1, "certain", "f3", ("100", "101", "110", "111"), None),
        ("BUR", 1, "possible", "f3", ("100", "101", "110", "111"), None),
    ]


# --- region by region against the public functions --------------------------

def _region_by_region(kb, approx, kinds):
    """The rules built from each region's labels through ``minimize`` and
    ``oracles.reference_measures`` (None where it divides by zero), in the
    order ``generate_rules`` documents."""
    view = {label: {d: (int(e.vd), e.cf) for d, e in node.decisions.items()}
            for label, node in kb.nodes.items() if node.decisions}
    rules = []
    for disease in sorted(approx):
        for kind in kinds:
            for (each, vd), region in REGION_OF.items():
                labels = frozenset(getattr(approx[disease], region))
                if each != kind or not labels:
                    continue
                try:
                    measured = metrics.RuleMetrics(
                        **oracles.reference_measures(view, labels, disease, vd))
                except ZeroDivisionError:
                    measured = None
                condition = minimize(labels, kb.n)
                rules.append(MinimizedRule(condition, disease, TruthValue(vd), kind, labels,
                                           measured))
    rules.sort(key=lambda r: (r.disease, -(r.metrics.strength if r.metrics else 0), r.vd))
    return rules


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("round2", [False, True])
@pytest.mark.parametrize("with_priorities", [False, True])
def test_rules_equal_the_region_by_region_build(n, round2, with_priorities):
    kb, _, _ = random_kb(seeded(900 + n), n, round2=round2,
                         with_priorities=with_priorities)
    approx = {d: roughset.approximations(kb, d) for d in kb.diseases()}
    rules = generate_rules(kb, approx, ALL_KINDS)
    assert rules == _region_by_region(kb, approx, ALL_KINDS)
    for rule in rules:
        assert rule.condition.truth_set() == rule.source_labels


def test_rules_do_not_walk_their_source_labels_again(monkeypatch, kb_round2,
                                                     approx_round2):
    kb, _, _ = random_kb(seeded(907), 7, round2=True)
    cases = [(kb, {d: roughset.approximations(kb, d) for d in kb.diseases()}),
             (kb_round2, approx_round2)]
    wanted = [generate_rules(kb, approx, ALL_KINDS) for kb, approx in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a rule's source labels were walked again")

    summed = Counter()
    vd_sums = metrics._vd_sums

    def count(kb, labels, disease, masses):
        summed[id(kb), disease] += 1
        return vd_sums(kb, labels, disease, masses)

    monkeypatch.setattr(minimizer, "minimize", refuse)
    monkeypatch.setattr(metrics, "_vd_sums", count)
    assert [generate_rules(kb, approx, ALL_KINDS) for kb, approx in cases] == wanted
    # lower1, lower2 and boundary1: each stored region is summed at most once
    assert summed and max(summed.values()) <= 3
