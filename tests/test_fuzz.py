"""Mutated knowledge-base files and evidence documents fail typed, and
so do the public values and updates given malformed arguments.

Each file example takes one well-formed input and makes one mutation: a
token or a ``key=`` value replaced, a line's tokens re-joined with a
whitespace run, a line deleted, duplicated or truncated.  The result
must load (KB files) or parse (evidence documents), or raise a
``KbError``.  Any other exception fails the test.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kb_from_atomics, random_kb, seeded
from roughkb import errors, kbio, roughset
from roughkb.evidence import EvidenceProfile
from roughkb.lattice import (ConditionEdit, DropDecision, Fact, Lattice, SetDecision, build_kb,
                             insert_fact, modify_node)
from roughkb.minimizer import SopExpression, generate_rules, minimize
from roughkb.propagation import DecisionEntry, PriorityConfig, propagate

EVIDENCE = """\
module fuzz
grading q=3
alpha 1/10
fact f1 "sore back" yes
fact f2 stiffness yes
fact f3 fever no
priority ANK f1 2
priority BUR f1+f3 f1=1 f3=3
evidence f1 ANK m=1 level=1 count=4
evidence f2 ANK m=2 level=3 count=2
evidence f1+f2 BUR m=3 level=2 count=5
"""

# Replacement tokens: near misses of the grammar, plus free text of at
# most 8 characters.  A longer exponent token such as ``1e-99999999``
# makes Fraction build 10**N, an unbounded cost this test leaves out.
TOKENS = st.one_of(
    st.sampled_from(["", "-", "0", "1", "2", "3", "17", "-1", "1/0", "0/0",
                     "1/2", "3/2", "0.5", "1.5", "-0.25", "1e3", "nan", "inf",
                     "f0", "f1", "f4", "f99", "f1+f1", "f1+f9", "f1:1", "f1:0",
                     "f1:2", "f1:1/2,f1:1/2", "vd=1", "=", ":", ",", "/", "+",
                     '"', "'", "#", "node", "decision", "priority", "fact",
                     "order", "alpha", "evidence", "grading", "module",
                     "1_0", "\u0662", "f1\u0662", "C#J",
                     "\t", "  ", "\r", "\x0b", "\x1c", "\xa0", "\u2028"]),
    st.text(alphabet="0123456789-+./:,=fexvdcwt#\"' ", max_size=8),
)
# Runs of what str.split() splits at, line breaks of str.splitlines() among them.
SPACES = st.text(alphabet=" \t\r\n\x0b\x1c\x1f\xa0\u2003\u2028", min_size=1, max_size=3)


@st.composite
def mutations(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    tokens = line.split(" ")
    keyed = [j for j, token in enumerate(tokens) if "=" in token]
    op = draw(st.sampled_from(("token", "value", "respace", "delete", "duplicate",
                               "truncate")))
    if op == "value" and keyed:
        j = draw(st.sampled_from(keyed))
        tokens[j] = tokens[j].partition("=")[0] + "=" + draw(TOKENS)
        lines[i] = " ".join(tokens)
    elif op in ("token", "value"):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
        lines[i] = " ".join(tokens)
    elif op == "respace":
        lines[i] = draw(SPACES).join(tokens)
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, line)
    else:
        lines[i] = line[:draw(st.integers(0, len(line)))]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _evidence_texts():
    return (kbio.render_evidence(kbio.fixture_document()), EVIDENCE)


@functools.lru_cache(maxsize=None)
def _kb_texts():
    doc = kbio.fixture_document()
    kbs = [kbio.build_from_document(doc, round2=True),
           kbio.build_from_document(doc, round2=False),
           random_kb(seeded(56), 5)[0]]       # global and scoped priorities
    return tuple(kbio.serialize_kb(kb) for kb in kbs)


def test_the_inputs_are_well_formed():
    texts = _kb_texts()
    for text in texts:
        kbio.load_kb(text)
    assert "priority ANK f1 " in texts[2] and "+" in texts[2]
    for text in _evidence_texts():
        kbio.parse_evidence(text)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_kb_files_load_or_fail_typed(data):
    text = data.draw(st.sampled_from(_kb_texts()))
    try:
        kbio.load_kb(data.draw(mutations(text)))
    except errors.KbError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_evidence_documents_parse_or_fail_typed(data):
    text = data.draw(st.sampled_from(_evidence_texts()))
    try:
        kbio.parse_evidence(data.draw(mutations(text)))
    except errors.KbError:
        pass


# --- public values and updates ----------------------------------------------

# Labels are any hashable value: text of the right or a wrong order,
# malformed text, numbers and None.  The updates and ``vd_of`` are also
# given unhashable labels, and a label collection may be a str, which
# must not be read as one-character labels.
LABELS = st.one_of(st.sampled_from(["", "0", "1", "01", "10", "11", "011", "0x1"]),
                   st.integers(-2, 3), st.none())
ANY_LABELS = st.one_of(LABELS, st.lists(LABELS, max_size=1))
VDS = st.one_of(st.integers(-1, 3), st.sampled_from(["1", "x", None, 1.5, [1]]))
ORDERS = st.one_of(st.integers(-1, 4), st.sampled_from(["2", 2.0, None, 40]))
JUNK = st.one_of(st.integers(-2, 2), st.none(), st.sampled_from(["ab", "01", "001", ""]))
REGIONS = st.one_of(st.frozensets(LABELS, max_size=4), st.lists(LABELS, max_size=4), JUNK,
                    st.lists(st.lists(LABELS, max_size=1), min_size=1, max_size=2))
LITERALS = st.one_of(st.tuples(st.one_of(st.integers(-1, 5), st.just("1"), st.just(1.5)),
                               st.one_of(st.booleans(), st.just(1), st.just("no"))),
                     JUNK, st.tuples(st.integers(1, 3)))
TERMS = st.one_of(st.lists(st.one_of(st.lists(LITERALS, max_size=3), JUNK), max_size=3), JUNK)
SPARSE = st.dictionaries(st.one_of(st.integers(0, 4), st.just("1")),
                         st.one_of(st.dictionaries(st.one_of(st.integers(0, 4), st.just("a"),
                                                             st.just(1.5)),
                                                   st.one_of(st.integers(-1, 3), st.just("x")),
                                                   max_size=3),
                                   JUNK, st.lists(st.integers(), max_size=2)),
                         max_size=3)
# Fact ids and priorities: ints in and out of range, and hashable values
# an int() call would have read as one (1.5, True, "1") or refused.
FACT_IDS = st.one_of(st.integers(-1, 4), st.sampled_from([1.5, True, False, "1", "x", None, (1,)]))
PRIORITY_VALUES = st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.5, "2", None]))
FACTS = tuple(Fact(i, "a%d" % i, "v") for i in (1, 2, 3))
ENTRY_LISTS = st.one_of(
    st.lists(st.sampled_from([DecisionEntry("ANK", 1, Fraction(1, 2)),
                              DecisionEntry("BUR", 0, 1), None, "ANK", (1, 1)]), max_size=3),
    JUNK)
ATOMICS = st.dictionaries(FACT_IDS, ENTRY_LISTS, max_size=3)
GLOBAL_PRIORITIES = st.one_of(
    st.dictionaries(st.one_of(st.tuples(st.sampled_from(["ANK", "bad name!"]), FACT_IDS),
                              st.tuples(st.just("ANK")), FACT_IDS),
                    PRIORITY_VALUES, max_size=3),
    JUNK)
SCOPED_PRIORITIES = st.one_of(
    st.dictionaries(st.one_of(st.tuples(st.one_of(st.frozensets(FACT_IDS, max_size=3), FACT_IDS),
                                        st.just("ANK")),
                              FACT_IDS),
                    st.one_of(st.dictionaries(FACT_IDS, PRIORITY_VALUES, max_size=3), JUNK),
                    max_size=2),
    JUNK)
PLACED = st.dictionaries(st.sampled_from(["0", "1", "01", "10", "11"]), st.integers(0, 2),
                         max_size=4).map(roughset.ApproximationSets.from_vd_map)
# The entry points that read an order's label table, on one order-3
# knowledge base: its labels, junk labels and junk keys of every kind.
KB = kb_from_atomics({1: {"ANK": (1, Fraction(1, 2)), "BUR": (0, Fraction(3, 10))},
                      2: {"ANK": (0, Fraction(1, 4))}, 3: {"BUR": (2, Fraction(3, 5))}}, 3)
KB_LABELS = st.one_of(LABELS, st.sampled_from(["000", "001", "011", "110", "111", "0111"]))
ANY_KB_LABELS = st.one_of(KB_LABELS, st.lists(KB_LABELS, max_size=3))
NAMES = st.sampled_from(["ANK", "BUR", "CFJ", "bad name!", "", None, 1.5, ("ANK",)])
ANY_NAMES = st.one_of(NAMES, st.lists(NAMES, max_size=1))
# Facts: the order-3 facts, and lists that mix them with values that are
# not facts.
NOT_FACTS = st.sampled_from([5, None, "f1", (1, "a1", "v"), Fact(1, "a1", "v")])
FACT_LISTS = st.one_of(st.just(FACTS), st.lists(st.one_of(st.sampled_from(FACTS), NOT_FACTS),
                                                max_size=4))
ENTRY = DecisionEntry("ANK", 1, Fraction(1, 2))
# Decision keys: order-3 masks, ints outside 0..7, bools and labels.
DECISIONS = st.one_of(
    st.dictionaries(st.one_of(st.integers(-1, 8), st.booleans(), KB_LABELS), st.one_of(st.just({"ANK": ENTRY}), st.just({}), JUNK,
                                         st.dictionaries(NAMES, st.sampled_from([ENTRY, None]),
                                                         max_size=2)),
                    max_size=3),
    JUNK, st.lists(st.tuples(KB_LABELS, st.just({"ANK": ENTRY})), max_size=2))
CHANGES = st.one_of(st.builds(SetDecision, ANY_NAMES, VDS, st.sampled_from([0, "1/2", 2, None]),
                              st.sampled_from([None, (0, 0, 1), (1, 2), "ab", 5])),
                    st.builds(DropDecision, ANY_NAMES),
                    st.builds(ConditionEdit, st.sampled_from([None, "b", 5]),
                              st.sampled_from([None, "yes", "no", ["v"]])),
                    JUNK)
PLACED3 = st.dictionaries(KB_LABELS.filter(lambda label: label is not None),
                          st.integers(0, 2), max_size=4).map(roughset.ApproximationSets.from_vd_map)
APPROX = st.one_of(st.dictionaries(NAMES, st.one_of(PLACED3, PLACED, JUNK), max_size=2), JUNK,
                   st.lists(NAMES, max_size=2))
KINDS = st.one_of(st.lists(st.sampled_from(["certain", "uncertain", "possible", "sure", None,
                                            ("certain",)]), max_size=3),
                  st.frozensets(st.sampled_from(["certain", "possible"])), JUNK)
EVIDENCE_VALUES = st.one_of(st.tuples(VDS, st.sampled_from([Fraction(1, 5), "1/2", 2, None])),
                            st.tuples(st.just(1), st.just(Fraction(1, 5)),
                                      st.sampled_from([None, (0, 0, 1), (1,), "abc"])),
                            JUNK)
EXTERNAL = st.one_of(
    st.dictionaries(st.one_of(st.frozensets(FACT_IDS, max_size=3), FACT_IDS),
                    st.one_of(st.dictionaries(NAMES, EVIDENCE_VALUES, max_size=2), JUNK),
                    max_size=2),
    JUNK, st.lists(st.tuples(st.frozensets(FACT_IDS, max_size=3), JUNK), max_size=2))
CALLS = st.one_of(
    st.tuples(st.just(roughset.ApproximationSets), st.tuples(REGIONS, REGIONS, REGIONS)),
    st.tuples(st.just(roughset.ApproximationSets.from_vd_map),
              st.tuples(st.one_of(st.dictionaries(LABELS, VDS, max_size=4),
                                  st.lists(st.tuples(LABELS, VDS), max_size=3), JUNK))),
    st.tuples(st.just(roughset.ApproximationSets.vd_of), st.tuples(PLACED, ANY_LABELS)),
    st.tuples(st.just(roughset.on_decisions_added),
              st.tuples(PLACED, st.one_of(st.lists(st.one_of(st.tuples(ANY_LABELS, VDS), LABELS,
                                                             st.tuples(LABELS)), max_size=4),
                                          JUNK))),
    st.tuples(st.just(roughset.on_decisions_removed),
              st.tuples(PLACED, st.one_of(st.lists(ANY_LABELS, max_size=4), JUNK))),
    st.tuples(st.just(roughset.on_truth_changed), st.tuples(PLACED, ANY_LABELS, VDS, VDS)),
    st.tuples(st.just(SopExpression), st.tuples(ORDERS, TERMS)),
    st.tuples(st.just(minimize), st.tuples(REGIONS, ORDERS)),
    st.tuples(st.just(EvidenceProfile.from_levels),
              st.tuples(SPARSE, st.one_of(st.integers(-1, 4), st.just("3")))),
    st.tuples(st.just(build_kb), st.tuples(FACT_LISTS, ATOMICS)),
    st.tuples(st.just(PriorityConfig), st.tuples(GLOBAL_PRIORITIES, SCOPED_PRIORITIES)),
    st.tuples(st.just(Lattice), st.tuples(FACT_LISTS, DECISIONS)),
    st.tuples(st.just(insert_fact),
              st.tuples(st.just(KB), st.one_of(st.just(Fact(4, "a4", "v")), NOT_FACTS),
                        ENTRY_LISTS)),
    st.tuples(st.just(Lattice.node), st.tuples(st.just(KB), ANY_KB_LABELS)),
    st.tuples(st.just(modify_node), st.tuples(st.just(KB), ANY_KB_LABELS, CHANGES)),
    st.tuples(st.just(SopExpression.evaluate),
              st.tuples(st.just(SopExpression(3, [{(1, True), (3, False)}])), ANY_KB_LABELS)),
    st.tuples(st.just(roughset.approximations), st.tuples(st.just(KB), ANY_NAMES)),
    st.tuples(st.just(generate_rules), st.tuples(st.just(KB), APPROX, KINDS)),
    st.tuples(st.just(lambda kb, external: propagate(kb, external=external)),
              st.tuples(st.just(KB), EXTERNAL)),
)
# the arguments each call takes as a collection of labels
LABEL_COLLECTIONS = {roughset.ApproximationSets: (0, 1, 2), roughset.on_decisions_removed: (1,),
                     minimize: (0,)}


@settings(max_examples=300, deadline=None)
@given(CALLS)
def test_public_values_and_updates_fail_typed(call):
    build, args = call
    try:
        value = build(*args)
    except errors.KbError:
        return
    assert not any(isinstance(args[i], str) for i in LABEL_COLLECTIONS.get(build, ()))
    if isinstance(value, SopExpression):
        # the order passed the cap check, so its truth set is small
        assert all(value.evaluate(label) for label in value.truth_set())
        str(value)
    elif isinstance(value, Lattice):
        propagate(value)
    elif isinstance(value, PriorityConfig):
        for facts, _ in value.scoped:
            value.weights_for(facts, "ANK")
