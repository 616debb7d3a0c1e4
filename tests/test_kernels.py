"""Integer kernels against their Fraction forms and per-fact scans.

The rendering, rounding and summing helpers in ``roughkb._num``, the
integer ``_level2``, ``_cf_multi`` and ``_mean_triple``, the superset cone and
the bitmask ``SopExpression`` each replace a slower form of the same
exact computation.  These tests hold them to the forms they replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from roughkb import errors
from roughkb._num import Converted, fsum, publish2, render
from roughkb.evidence import TruthTriple
from roughkb.lattice import _cone, facts_of
from roughkb.minimizer import SopExpression
from roughkb.propagation import (DecisionEntry, _cf_multi, _level2, _mean_triple, _record,
                                 _triple, _triple_record)

F = Fraction

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 7)
# exact halves at the last rendered or published digit, of either sign
halves = st.builds(lambda k, p: F(2 * k + 1, 2 * 10 ** p),
                   st.integers(-10 ** 6, 10 ** 6), st.sampled_from([0, 2, 6]))


# --- rendering, rounding and summing ----------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(rationals, halves, st.integers(-10 ** 9, 10 ** 9)),
       st.sampled_from([0, 2, 6]))
def test_render_matches_the_fraction_form(x, places):
    assert render(x, places) == oracles.reference_render(x, places)


@settings(max_examples=300, deadline=None)
@given(st.one_of(rationals, halves, st.integers(-10 ** 9, 10 ** 9)))
def test_publish2_matches_the_fraction_form(x):
    assert publish2(x) == oracles.round2(x)


@pytest.mark.parametrize("x,places,text", [
    (F(1, 2), 0, "0"), (F(3, 2), 0, "2"), (F(-1, 2), 0, "-0"),
    (F(-5, 2), 0, "-2"), (F(1, 200), 2, "0.00"), (F(3, 200), 2, "0.02"),
    (F(-3, 200), 2, "-0.02"), (F(1, 3), 6, "0.333333"), (7, 2, "7.00")])
def test_render_rounds_exact_halves_to_even(x, places, text):
    assert render(x, places) == text


def test_publish2_rounds_exact_halves_up():
    assert publish2(F(1, 200)) == F(1, 100)
    assert publish2(F(-1, 200)) == 0
    assert publish2(F(-3, 200)) == F(-1, 100)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(rationals, st.integers(-100, 100)), max_size=12))
def test_fsum_matches_sum(values):
    got = fsum(values)
    assert type(got) is Fraction
    assert got == sum(values)


# --- pairwise and multi-constituent credibility -----------------------------

def _publish(mode):
    return oracles.round2 if mode == "round2" else (lambda x: x)


credibilities = st.one_of(st.sampled_from([F(0), F(1)]),
                          st.integers(0, 100).map(lambda k: F(k, 100)),
                          st.fractions(0, 1, max_denominator=60))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([1, 2]),
                       st.tuples(st.sampled_from([0, 1, 2]), credibilities), min_size=1),
       st.integers(1, 5), st.integers(1, 5), st.sampled_from([F(0), F(1, 20), F(1, 10)]),
       st.sampled_from(["exact", "round2"]))
def test_level2_matches_the_reference_propagation(atomics, p1, p2, gate, mode):
    """_level2 gives the reference's (vd, cf) of node {1, 2} under any
    priorities, gate and mode, as a record's integers."""
    node, prio, total = frozenset({1, 2}), {1: p1, 2: p2}, p1 + p2
    weights = lambda facts, disease: {f: F(prio[f], total) for f in facts}  # noqa: E731
    want = oracles.reference_propagate(2, {f: {"ANK": pair} for f, pair in atomics.items()},
                                       weights, gate, _publish(mode))[node].get("ANK")
    # in ascending label order, {1} lacks fact 2 and {2} lacks fact 1
    carriers = [(3 - f, _record(DecisionEntry("ANK", *atomics[f])))
                for f in (1, 2) if f in atomics]
    got = _level2(carriers, node, prio, total, gate, mode == "round2")
    if want is None:
        assert got is None
        return
    vd, num, den = got
    assert (vd, F(num, den)) == want
    # the record's integers: lowest terms, or over 100 in the two-decimal mode
    assert (num, den) == ((want[1] * 100, 100) if mode == "round2"
                          else want[1].as_integer_ratio())


def _agrees(node, carriers, prio, gate, mode):
    """_cf_multi gives the prevailing value of the chain fold, and the cf
    and pass flag of the per-fact scan."""
    publish = _publish(mode)
    total = sum(prio.values())
    weights = {f: F(p, total) for f, p in prio.items()}
    pairs = [(facts, (int(e.vd), e.cf)) for facts, e in carriers]
    want_vd = oracles._fold_vd([pair for _, pair in pairs])
    want = oracles.reference_cf_multi(node, pairs, weights, gate, publish)
    lacking = [(min(node - facts), _record(e)) for facts, e in carriers]
    got = _cf_multi(lacking, node, prio, total, gate, mode == "round2")
    if want is None:
        assert got is None
        return want
    vd, num, den = got
    assert (vd, F(num, den)) == (want_vd, want)
    # the record's integers: lowest terms, or over 100 in the two-decimal mode
    assert (num, den) == ((want * 100, 100) if mode == "round2" else want.as_integer_ratio())
    return want


@st.composite
def multi_cases(draw):
    size = draw(st.integers(3, 7))
    node = frozenset(range(1, size + 1))
    preds = [node - {f} for f in sorted(node, reverse=True)]
    picked = draw(st.lists(st.sampled_from(preds), min_size=1, unique=True))
    carriers = [(facts, DecisionEntry("ANK", draw(st.sampled_from([0, 1, 2])),
                                      draw(credibilities)))
                for facts in picked]
    # unequal priorities give the weights different denominators
    prio = {f: draw(st.integers(1, 4)) for f in node}
    return node, carriers, prio


@settings(max_examples=250, deadline=None)
@given(multi_cases(), st.sampled_from([F(0), F(1, 20), F(1, 10)]),
       st.sampled_from(["exact", "round2"]))
def test_cf_multi_matches_the_per_fact_scan(case, gate, mode):
    node, carriers, prio = case
    _agrees(node, carriers, prio, gate, mode)


@pytest.mark.parametrize("gate", [F(0), F(1, 20), F(1, 10)])
@pytest.mark.parametrize("mode", ["exact", "round2"])
def test_cf_multi_edge_cases_match_the_per_fact_scan(gate, mode):
    node = frozenset({1, 2, 3, 4})
    third = {f: 1 for f in node}
    e = lambda vd, cf: DecisionEntry("ANK", vd, cf)  # noqa: E731
    # the only absent vote lacks fact 4, so fact 4's absent camp is empty
    emptied = [(frozenset({1, 2, 3}), e(0, F(9, 10))),
               (frozenset({1, 2, 4}), e(1, F(3, 10))),
               (frozenset({1, 3, 4}), e(1, F(1, 5)))]
    assert _agrees(node, emptied, third, gate, mode) is not None
    # a single carrier at level 4: one fact sees no constituent at all
    single = [(frozenset({2, 3, 4}), e(2, F(7, 10)))]
    assert _agrees(node, single, third, gate, mode) is not None
    # zero credibilities: a camp that is present but carries no mass
    zeros = [(frozenset({1, 2, 3}), e(1, F(0))),
             (frozenset({2, 3, 4}), e(0, F(0))),
             (frozenset({1, 3, 4}), e(0, F(1, 2)))]
    assert _agrees(node, zeros, third, gate, mode) is not None
    nothing = [(frozenset({1, 2, 3}), e(1, F(0)))]
    assert _agrees(node, nothing, third, gate, mode) is None
    # certainties on every side: a 0-versus-2 clash and an agreeing camp
    certain = [(frozenset({1, 2, 3}), e(0, F(1))),
               (frozenset({1, 2, 4}), e(2, F(1))),
               (frozenset({2, 3, 4}), e(2, F(1)))]
    assert _agrees(node, certain, {1: 3, 2: 1, 3: 2, 4: 1}, gate, mode) is not None


@pytest.mark.parametrize("mode", ["exact", "round2"])
def test_cf_multi_terms_at_the_gate_do_not_pass(mode):
    node = frozenset({1, 2, 3})
    e = lambda cf: DecisionEntry("ANK", 1, cf)  # noqa: E731
    gate = F(1, 10)
    # fact 1 sees 1/10 + 2/10, so its term (3/10) * (1/3) is the gate
    # itself and drops; facts 2 and 3 give 6/10 * 1/3 and 7/10 * 1/3
    mixed = [(frozenset({1, 2}), e(F(1, 10))), (frozenset({1, 3}), e(F(2, 10))),
             (frozenset({2, 3}), e(F(5, 10)))]
    want = F(11, 50) if mode == "round2" else F(13, 60)  # 0.20 + 0.23 over 2
    assert _agrees(node, mixed, {1: 1, 2: 1, 3: 1}, gate, mode) == want
    # every term at the gate: nothing passes
    level = [(facts, e(F(3, 20))) for facts, _ in mixed]
    assert _agrees(node, level, {1: 1, 2: 1, 3: 1}, gate, mode) is None


@pytest.mark.parametrize("mode", ["exact", "round2"])
def test_cf_multi_sum_clamps_to_one(mode):
    # every fact's term is 2 * 1/3; published at 0.67 the three sum to
    # 2.01 over i - 1 = 2, which the two-decimal mode clamps to 1
    node = frozenset({1, 2, 3})
    full = [(facts, DecisionEntry("ANK", 1, F(1)))
            for facts in (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))]
    assert _agrees(node, full, {1: 1, 2: 1, 3: 1}, F(0), mode) == 1


# --- truth-triple means ------------------------------------------------------

# a hand-edited file may hold components outside [0, 1]
components = st.one_of(st.fractions(-1, 2, max_denominator=400),
                       st.integers(0, 100).map(lambda k: F(k, 100)))
triples = st.builds(TruthTriple, components, components, components)


@settings(max_examples=200, deadline=None)
@given(st.lists(triples, min_size=1, max_size=6), st.one_of(st.none(), triples),
       st.sampled_from(["exact", "round2"]))
def test_mean_triple_matches_the_fraction_mean(items, external, mode):
    items = items + ([external] if external else [])
    table = Converted(_triple)
    got, record = _mean_triple([_triple_record(t) for t in items], mode == "round2", table)
    want = oracles.reference_mean_triple(items, _publish(mode))
    assert got == want
    assert all(type(c) is F for c in got)
    # the record is the same triple over one denominator, and keys it in the table
    assert tuple(F(num, record[3]) for num in record[:3]) == got
    assert table == {record: got}


@pytest.mark.parametrize("mode", ["exact", "round2"])
@pytest.mark.parametrize("with_external", [False, True])
def test_mean_triple_publishes_exact_halves_up(mode, with_external):
    # means of 0.005, 0.125 and 0.995: a half at the third decimal each
    a = TruthTriple(F(1, 100), F(1, 4), F(1))
    b = TruthTriple(F(0), F(0), F(99, 100))
    # direct evidence joins a node's mean as one more record, in any position
    items = [b, a] if with_external else [a, b]
    got = _mean_triple([_triple_record(t) for t in items], mode == "round2",
                       Converted(_triple))[0]
    assert got == oracles.reference_mean_triple([a, b], _publish(mode))
    if mode == "round2":
        assert got == (F(1, 100), F(13, 100), F(1))
    else:
        assert got == (F(1, 200), F(1, 8), F(199, 200))


# --- cones and expressions ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cone_labels_are_the_strict_supersets(n):
    """``_cone`` gives the masks of the labels whose facts strictly contain
    a label's, in (level, mask) order."""
    labels = [format(v, "0%db" % n) for v in range(2 ** n)]
    for mask, label in enumerate(labels):
        want = [int(other, 2) for other in labels if facts_of(other) > facts_of(label)]
        assert _cone(mask, n) == sorted(want, key=lambda m: (m.bit_count(), m))


def _holds(term, label):
    """A term on a label, literal by literal."""
    bits = int(label, 2)
    return all(bool(bits >> (fid - 1) & 1) == positive for fid, positive in term)


@st.composite
def expressions(draw):
    n = draw(st.integers(1, 6))
    literal = st.tuples(st.integers(1, n), st.booleans())
    terms = draw(st.lists(st.frozensets(literal, max_size=n), max_size=5))
    return SopExpression(n, terms)


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_expression_masks_match_the_literals(expr):
    labels = [format(v, "0%db" % expr.n) for v in range(2 ** expr.n)]
    want = {label for label in labels
            if any(_holds(term, label) for term in expr.terms)}
    assert expr.truth_set() == want
    assert {label for label in labels if expr.evaluate(label)} == want


def test_expression_rejects_a_label_of_the_wrong_length():
    with pytest.raises(errors.OutOfRange):
        SopExpression(3, [frozenset({(1, True)})]).evaluate("01")
