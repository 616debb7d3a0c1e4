"""Evidence parsing, knowledge-base serialization, and the CLI."""

import copy
import hashlib
import importlib.resources
import os
import pickle
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected_lbp as X
from conftest import DISEASE_POOL, kb_from_atomics, random_atomics, random_kb, seeded
import roughkb
from roughkb import errors, kbio, lattice
from roughkb._num import parse_rational, render
from roughkb.evidence import (EvidenceProfile, TruthTriple, TruthValue,
                              presence_matrix)
from roughkb.minimizer import generate_rules
from roughkb.propagation import DecisionEntry, PriorityConfig
from roughkb.roughset import approximations

F = Fraction
P = pytest.param

# sha256 of the canonical renderings of the bundled fixture; regenerate
# only after a deliberate format change
EVD_SHA = "4c7ab25f085075f2726ca12be752957c9cdfa4377ec74f3b53daf0d89a54d993"
KB_ROUND2_SHA = "b28502258a699afd8341ddb95ea71a1e766ac7e613ff591af1d8b617feff68e9"
KB_EXACT_SHA = "c1f5986a5856e1f02f9e1e0984811e977f4dc29edf2a40d730531d9c0341625c"
RULES_RECORDS_SHA = "557e88efb828eb62b67e18343da9f3f1830f1bca6e01f3a0482ce2c0b6c9bb7d"
RULES_TEXT_SHA = "0bcde9907d1f2f5aa7ee776b4b2bd8fbc9479911a1322b721a47a11cd1cd6bdc"


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fixture_text():
    return (importlib.resources.files("roughkb")
            .joinpath("data/low_back_pain.evd").read_text(encoding="utf-8"))


BASE = """\
module demo
grading q=3
fact f1 "sore back" yes
fact f2 stiffness yes
"""


# --- evidence documents -----------------------------------------------------

def test_fixture_document_round_trips(fixture_doc):
    text = _fixture_text()
    assert kbio.parse_evidence(text) == fixture_doc
    rendered = kbio.render_evidence(fixture_doc)
    assert _sha(rendered) == EVD_SHA
    assert kbio.parse_evidence(rendered) == fixture_doc
    assert kbio.render_evidence(kbio.parse_evidence(rendered)) == rendered


def test_fixture_document_contents(fixture_doc):
    assert fixture_doc.module == "low_back_pain"
    assert fixture_doc.q == X.Q
    assert fixture_doc.diseases() == tuple(sorted(X.DISEASES))
    assert tuple((f.id, f.attribute, f.value) for f in fixture_doc.facts) \
        == tuple((i, a, v) for i, (a, v) in sorted(X.FACTS.items()))
    scoped = fixture_doc.priorities.scoped
    assert scoped == {k: v for k, v in X.SCOPED_PRIORITIES.items()}


def test_parse_tolerates_comments_and_blank_lines():
    doc = kbio.parse_evidence(
        BASE + "\n# a remark\n\nevidence f1 ANK m=1 level=2 count=3\n")
    assert len(doc.records) == 1
    assert doc.records[0].count == 3


def test_parse_quoted_attributes():
    doc = kbio.parse_evidence(BASE + "evidence f1 ANK m=1 level=1 count=1\n")
    assert doc.facts[0].attribute == "sore back"


@pytest.mark.parametrize("text,line,needle", [
    ("", None, "no module header"),
    ("module a\n", None, "no grading declaration"),
    (BASE + "priority ANK f1+f2 f1=2 f2\n", 5, "expected fN=P, got 'f2'"),
    ("fact f1 a yes\n", 1, "no module header"),
    ("module a\nmodule b\n", 2, "duplicate module"),
    ("module a\ngrading q=2\ngrading q=3\n", 3, "duplicate grading"),
    ("module a\ngrading q=0\n", 2, "positive"),
    ("module a\ngrading q=2000000\n", 2, "exceeds the cap of 1000"),
    ("module a\nevidence f1 D m=1 level=1 count=1\n", 2,
     "grading must precede"),
    ("module a\nalpha 3/2\n", 2, "outside"),
    ("module a\nalpha spam\n", 2, "bad alpha"),
    (BASE + "fact f1 other yes\n", 5, "declared twice"),
    (BASE + "priority ANK f9 2\n", 5, "not declared"),
    (BASE + "priority ANK f1+f2 f1=2\n", 5, "cover"),
    (BASE + "priority ANK f1 0\n", 5, "positive"),
    (BASE + "evidence f1+f1 ANK m=1 level=1 count=1\n", 5, "repeated fact"),
    (BASE + "evidence f1 ANK m=4 level=1 count=1\n", 5, "kind"),
    (BASE + "evidence f1 ANK m=1 level=1 count=-2\n", 5, "nonnegative"),
    (BASE + "evidence f1 ANK m=1 level=1 count=1\n"
            "evidence f1 ANK m=1 level=1 count=2\n", 6, "duplicate evidence"),
    (BASE + "conjecture f1 ANK\n", 5, "unknown directive"),
])
def test_parse_rejects_with_line_numbers(text, line, needle):
    with pytest.raises(errors.ParseError) as info:
        kbio.parse_evidence(text)
    assert info.value.line == line
    assert needle in str(info.value)


def test_parse_error_classes_are_specific():
    with pytest.raises(errors.UnknownFactRef):
        kbio.parse_evidence(BASE + "evidence f1+f7 ANK m=1 level=1 count=1\n")
    with pytest.raises(errors.LevelOutOfRange) as info:
        kbio.parse_evidence(BASE + "evidence f1 ANK m=1 level=4 count=1\n")
    assert info.value.line == 5


def test_parse_requires_contiguous_facts():
    text = "module a\ngrading q=3\nfact f2 b yes\n"
    with pytest.raises(errors.SyntaxError) as info:
        kbio.parse_evidence(text)
    assert info.value.line is None
    assert "contiguous" in str(info.value)


# blanks shlex and str.split read differently, and shlex's special characters
_SPLIT_EDGES = list("\x0b\x0c\xa0\u2003\u3000\x1c\x85\t \"'#\\")


@settings(max_examples=500, deadline=None)
@given(st.text(st.one_of(st.sampled_from(_SPLIT_EDGES), st.characters(min_codepoint=0x20,
                                                                      max_codepoint=0x7e)),
               max_size=40))
def test_evidence_lines_split_as_shlex_splits_them(line):
    try:
        want = shlex.split(line, comments=True)
    except ValueError:
        with pytest.raises(ValueError):
            kbio._tokens(line, comments=True)
    else:
        assert kbio._tokens(line, comments=True) == want


_FACT_TEXT = st.text(st.one_of(st.sampled_from(_SPLIT_EDGES),
                               st.characters(min_codepoint=0x20, max_codepoint=0x7e)),
                     max_size=12)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["", " ", "\t "]), st.sampled_from([" ", "\t", " \t "]),
       _FACT_TEXT, _FACT_TEXT)
def test_fact_lines_split_as_shlex_splits_them(indent, blank, attribute, value):
    line = '%sfact%sf1%s"%s"%s"%s"' % (indent, blank, blank, attribute, blank, value)
    try:
        want = shlex.split(line)
    except ValueError:
        with pytest.raises(ValueError):
            kbio._tokens(line, comments=False)
    else:
        assert kbio._tokens(line, comments=False) == want
    try:
        rendered = kbio._fact_lines([lattice.Fact(1, attribute, value)])[0]
    except errors.OutOfRange:
        return
    assert kbio._tokens(rendered, comments=False) == ["fact", "f1", attribute, value]


def test_render_refuses_unquotable_text():
    from roughkb.lattice import Fact
    doc = kbio.parse_evidence(BASE)
    # a quote ends the quoted text, and a line break ends the line
    for text in ('a "quoted" pain', "a\nb", "a\rb", "a\x1cb", "a\u2028b"):
        bad = kbio.EvidenceDocument(
            doc.module, doc.q, (Fact(1, text, "yes"),),
            doc.priorities, (), doc.alpha)
        with pytest.raises(errors.OutOfRange):
            kbio.render_evidence(bad)


@pytest.mark.parametrize("attribute", ["numb\\", "C:\\\\x", "a\\b\\"])
def test_fact_text_with_backslashes_round_trips(kb_file, capsys, attribute):
    # shlex reads a backslash in double quotes as an escape, so the
    # renderers double each one
    assert kbio.cli(["insert-fact", kb_file, "--attribute", attribute,
                     "--value", "yes"]) == 0
    assert kbio.cli(["check", kb_file]) == 0
    assert capsys.readouterr().err == ""
    with open(kb_file, encoding="utf-8") as stream:
        text = stream.read()
    kb = kbio.load_kb(text)
    assert kb.fact(4).attribute == attribute
    assert kbio.serialize_kb(kb) == text
    doc = kbio.parse_evidence(BASE)
    doc = kbio.EvidenceDocument(doc.module, doc.q,
                                doc.facts + (lattice.Fact(3, attribute, "yes"),),
                                doc.priorities, doc.records, F(1, 20))
    assert "\nalpha 1/20\n" in kbio.render_evidence(doc)
    assert kbio.parse_evidence(kbio.render_evidence(doc)) == doc


# Direct evidence on f1+f2 and f1+f2+f3 meets the lattice's own decision
# in each way the merge tells apart, and on f1+f3 names a disease that
# no atomic names.
COMPOSITE_DOC = BASE + """\
fact f3 fever no
evidence f1 ANK m=1 level=1 count=1
evidence f1 ANK m=3 level=2 count=1
evidence f2 ANK m=1 level=1 count=1
evidence f2 ANK m=2 level=2 count=2
evidence f1+f2 ANK m=1 level=1 count=1
evidence f1+f2 ANK m=2 level=2 count=2
evidence f1+f2 ANK m=3 level=3 count=1
evidence f1 BUR m=1 level=2 count=1
evidence f1 BUR m=2 level=3 count=1
evidence f2 BUR m=1 level=1 count=1
evidence f1+f2 BUR m=2 level=1 count=3
evidence f1+f2 BUR m=3 level=2 count=1
evidence f1+f2+f3 BUR m=2 level=1 count=1
evidence f1 COX m=2 level=1 count=2
evidence f2 COX m=2 level=1 count=1
evidence f2 COX m=3 level=3 count=1
evidence f1+f2 COX m=1 level=1 count=3
evidence f1+f2 COX m=3 level=3 count=1
evidence f1 DIS m=3 level=3 count=1
evidence f2 DIS m=3 level=3 count=1
evidence f1+f2 DIS m=2 level=1 count=1
evidence f3 ANK m=1 level=3 count=1
evidence f1+f3 ENT m=1 level=2 count=2
evidence f1+f3 ENT m=2 level=3 count=1
"""

# (label, disease) -> merged (vd, cf, tv) by mode; each comment gives the
# lattice's (vd, cf) without the direct evidence, then the evidence's
COMPOSITE_MERGED = {
    False: {
        # (1, 18/35) and (1, 3/8) agree: the sum
        ("011", "ANK"): (1, "249/280", ("131/280", "5/14", "7/40")),
        # (1, 5/6) against (0, 9/11): the lattice is stronger
        ("011", "BUR"): (1, "1/66", ("5/9", "38/99", "2/33")),
        # (0, 7/8) against (1, 9/10): the evidence is stronger
        ("011", "COX"): (1, "1/40", ("3/10", "7/12", "7/60")),
        # (2, 1) against (0, 1): a tie, inconclusive at the merged tv3
        ("011", "DIS"): (2, "2/3", ("0", "1/3", "2/3")),
        # (1, 5/9) against (0, 1) at level 3
        ("111", "BUR"): (0, "71/99", ("5/9", "85/198", "1/66")),
        # no carrier: the evidence alone
        ("101", "ENT"): (1, "4/5", ("4/5", "1/5", "0")),
    },
    True: {
        # (1, 0.52) and (1, 0.38)
        ("011", "ANK"): (1, "0.90", ("0.47", "0.36", "0.18")),
        # (1, 0.84) against (0, 0.82)
        ("011", "BUR"): (1, "0.02", ("0.56", "0.38", "0.06")),
        # (0, 0.88) against (1, 0.90)
        ("011", "COX"): (1, "0.02", ("0.30", "0.58", "0.12")),
        # (2, 1) against (0, 1)
        ("011", "DIS"): (2, "0.67", ("0", "0.33", "0.67")),
        # (1, 0.56) against (0, 1)
        ("111", "BUR"): (0, "0.71", ("0.56", "0.43", "0.02")),
        ("101", "ENT"): (1, "0.80", ("0.80", "0.20", "0")),
    },
}


@pytest.mark.parametrize("round2", [False, True])
def test_composite_evidence_merges_into_its_node(round2):
    kb = kbio.build_from_document(kbio.parse_evidence(COMPOSITE_DOC), round2=round2)
    for (label, disease), (vd, cf, tv) in COMPOSITE_MERGED[round2].items():
        entry = kb.node(label).decisions[disease]
        assert (entry.vd, entry.cf, entry.tv) == (vd, F(cf), tuple(map(F, tv))), (label, disease)


# --- knowledge-base serialization -------------------------------------------

def test_serialize_load_round_trip_round2(kb_round2):
    text = kbio.serialize_kb(kb_round2)
    assert _sha(text) == KB_ROUND2_SHA
    again = kbio.load_kb(text)
    assert again == kb_round2
    assert kbio.serialize_kb(again) == text


def test_values_survive_copy_and_pickle(fixture_doc, kb_round2, approx_round2):
    profile = EvidenceProfile.from_levels(X.COUNTS[(1, "SIJ")], X.Q)
    triple = TruthTriple(F(1, 2), F(1, 4), F(1, 4))
    values = [kb_round2, kb_round2.node("011"), DecisionEntry("ANK", 1, F(1, 2), triple),
              triple, fixture_doc.priorities, fixture_doc, profile, presence_matrix(profile),
              approx_round2["SIJ"], generate_rules(kb_round2, approx_round2)[0]]
    assert fixture_doc.priorities and kb_round2.node("011").decisions
    for copied in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        for value in values:
            again = copied(value)
            assert type(again) is type(value) and again == value
        assert _sha(kbio.serialize_kb(copied(kb_round2))) == KB_ROUND2_SHA


def test_serialize_load_round_trip_exact(kb_exact):
    text = kbio.serialize_kb(kb_exact)
    assert _sha(text) == KB_EXACT_SHA
    assert kbio.serialize_kb(kbio.load_kb(text)) == text
    assert "mode exact" in text
    # exact credibilities render at six decimals, half to even
    assert "cf=0.464286" in text      # 26/56 on the first fact


def test_serialized_mode_markers(kb_round2):
    text = kbio.serialize_kb(kb_round2)
    assert text.splitlines()[0] == "roughkb-kb 1"
    assert "mode round2" in text
    assert "cf=0.46" in text


def test_load_accepts_shuffled_node_blocks(kb_round2):
    lines = kbio.serialize_kb(kb_round2).splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("node "))
    head, blocks = lines[:first], []
    for line in lines[first:]:
        if line.startswith("node "):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    shuffled = "\n".join(head + sum(blocks[::-1], [])) + "\n"
    assert kbio.load_kb(shuffled) == kb_round2


def _node_lines(text, edit):
    """The file with ``edit`` applied to each line of its node section."""
    head, sep, section = text.partition("node 000\n")
    return head + "".join(edit(line) + "\n" for line in (sep + section).splitlines())


# Edits of the round2 fixture file: each is read as str.splitlines() and
# str.split() read it, so it loads as the file itself (refusal None) or
# is refused with the message given.
WHITESPACE = [
    P(lambda t: _node_lines(t, lambda l: l.replace(" ", "\t")), None, id="tabs"),
    P(lambda t: _node_lines(t, lambda l: l.replace(" ", "   ")), None, id="space-runs"),
    P(lambda t: _node_lines(t, lambda l: " \t " + l), None, id="indented"),
    P(lambda t: _node_lines(t, lambda l: l + " \t"), None, id="trailing"),
    P(lambda t: t.replace("\n", "\r\n"), None, id="crlf"),
    P(lambda t: t.replace("\n", "\r"), None, id="cr"),
    P(lambda t: t.replace("\nnode ", "\n\n \t\n\nnode "), None, id="blank-lines"),
    P(lambda t: _node_lines(t, lambda l: l.replace(" ", "\xa0")), None, id="nbsp"),
    P(lambda t: _node_lines(t, lambda l: l.replace(" ", "\u2003")), None, id="em-space"),
    P(lambda t: t.replace("fact f", "fact\tf"), None, id="fact-tab"),
    P(lambda t: t.replace("\nfact ", "\n \tfact   "), None, id="fact-indented"),
    P(lambda t: t.replace("priority ", "priority\t"), None, id="priority-tab"),
    P(lambda t: t.replace("\npriority ", "\n  priority \t"), None, id="priority-indented"),
    P(lambda t: t.replace("fact f1", "fact\xa0f1", 1),
      "line 5: expected 3 fact lines", id="fact-nbsp"),
    P(lambda t: t.replace("priority ", "priority\xa0", 1),
      "line 8: unexpected 'priority' line in node section", id="priority-nbsp"),
    P(lambda t: t.replace("cf=0.79 tv=", "cf=0.79\x0btv=", 1),
      "line 18: bad decision line", id="vt-breaks-the-line"),
    P(lambda t: t.replace("cf=0.79 tv=", "cf=0.79\x1ctv=", 1),
      "line 18: bad decision line", id="fs-breaks-the-line"),
]


@pytest.mark.parametrize("edit,refusal", WHITESPACE)
def test_load_reads_whitespace_as_split_does(kb_round2, edit, refusal):
    text = kbio.serialize_kb(kb_round2)
    assert text.splitlines()[17].startswith("decision CFJ vd=1 cf=0.79 tv=")
    edited = edit(text)
    assert edited != text
    if refusal is None:
        loaded = kbio.load_kb(edited)
        assert loaded == kb_round2
        assert kbio.serialize_kb(loaded) == text
    else:
        with pytest.raises(errors.CorruptRecord) as info:
            kbio.load_kb(edited)
        assert str(info.value) == refusal


def test_load_version_mismatch(kb_round2):
    text = kbio.serialize_kb(kb_round2).replace("roughkb-kb 1", "roughkb-kb 9", 1)
    with pytest.raises(errors.VersionMismatch):
        kbio.load_kb(text)


def test_load_corrupt_inputs(kb_round2):
    text = kbio.serialize_kb(kb_round2)
    cases = [
        "",                                        # empty
        "pickles galore\n",                        # wrong magic
        text.replace("vd=2", "vd=7", 1),           # truth value range
        text.replace("node 011", "node 012", 1),   # label alphabet
        text + text.splitlines()[-2] + "\n",       # some line twice
    ] + [_with_priorities(text, lines) for lines, _, _ in BAD_PRIORITIES]
    for bad in cases:
        with pytest.raises((errors.CorruptRecord, errors.VersionMismatch)):
            kbio.load_kb(bad)
    # (file, refused line, message)
    refusals = [
        ("roughkb-kb 1\n", None, "unexpected end of file, wanted 'mode'"),
        (text.replace("roughkb-kb 1\n", "roughkb-kb\n", 1), 1, "bad version header"),
        (text.replace("alpha 0\n", "alpha\n", 1), 3, "bad alpha line"),
        (text.replace("order 3\n", "order 0\n", 1), 4, "bad order line"),
        (text.replace("fact f1 ", "fact f2 ", 1), 5, "expected fact f1 declaration"),
    ]
    for bad, line, message in refusals:
        with pytest.raises(errors.CorruptRecord, match=message) as info:
            kbio.load_kb(bad)
        assert info.value.line == line


def _with_priorities(text, lines):
    """The file with extra priority lines after its own (lines 8-15 of the
    round2 fixture), so the first one is line 16."""
    return text.replace("node 000\n", "".join(l + "\n" for l in lines) + "node 000\n", 1)


# priority lines the loader refuses: (lines added, refused line, message)
BAD_PRIORITIES = [
    (["priority PIVD f1 2", "priority PIVD f1 3"], 17, "duplicate priority"),
    (["priority CFJ f1+f2 f1=1 f2=1"], 16, "duplicate priority"),
    (["priority PIVD f9 3"], 16, "names f9 in an order-3 file"),
    (["priority PIVD f1+f4 f1=1 f4=1"], 16, "names f4 in an order-3 file"),
    (["priority PIVD f1 0"], 16, "priority must be positive"),
    (["priority PIVD f1+f3 f1=1 f1=2 f3=1"], 16, "cover the fact set exactly"),
    (["priority PIVD f1+f1 f1=1"], 16, "cover the fact set exactly"),
]


@pytest.mark.parametrize("lines,line,message", BAD_PRIORITIES)
def test_load_refuses_a_bad_priority_line_at_its_line(kb_round2, lines, line, message):
    text = _with_priorities(kbio.serialize_kb(kb_round2), lines)
    with pytest.raises(errors.CorruptRecord, match=message) as caught:
        kbio.load_kb(text)
    assert caught.value.line == line


# A token with a huge exponent would make Fraction build 10**10000000;
# every number site refuses exponent notation before that.
HUGE = "1e-10000000"


def _refused_quickly(call, limit=0.5):
    start = time.perf_counter()
    with pytest.raises(errors.KbError) as info:
        call()
    assert time.perf_counter() - start < limit
    return info.value


@pytest.mark.parametrize("pattern,replacement,what", [
    (r"alpha \S+", "alpha " + HUGE, "alpha"),
    (r"cf=\S+", "cf=" + HUGE, "cf"),
    (r"tv=[^/]+/", "tv=%s/" % HUGE, "tv"),
    (r"w=f(\d+):[^,\s]+", r"w=f\1:" + HUGE, "w"),
])
def test_load_refuses_exponents_in_number_tokens(kb_round2, pattern, replacement, what):
    text = kbio.serialize_kb(kb_round2)
    bad = re.sub(pattern, replacement, text, count=1)
    assert HUGE in bad
    line = next(i for i, l in enumerate(bad.splitlines(), 1) if HUGE in l)
    exc = _refused_quickly(lambda: kbio.load_kb(bad))
    assert isinstance(exc, errors.CorruptRecord)
    assert exc.line == line
    assert HUGE in str(exc)


@pytest.mark.parametrize("token", ["0", "-1", "+3", "0.25", ".5", "5.", "1/4",
                                   "-1/2", "0.000001", "007"])
def test_parse_rational_matches_fraction_on_plain_numbers(token):
    assert parse_rational(token) == F(token)


@pytest.mark.parametrize("token", ["", ".", "-", "/4", "1/", "1e3", "1E-3", " 1",
                                   "1_0", "nan", "1/2/3", "1/-2", "1.5/2"])
def test_parse_rational_refuses_everything_else(token):
    with pytest.raises(ValueError):
        parse_rational(token)


def test_api_number_strings_refuse_exponents(fixture_doc):
    # Fraction("1e-1000000") would build 10**1000000 first
    for call in (lambda: DecisionEntry("X", 1, "1e-1000000"),
                 lambda: kbio.build_from_document(fixture_doc, alpha="1e-1000000")):
        exc = _refused_quickly(call, limit=0.1)
        assert isinstance(exc, errors.OutOfRange)
    assert DecisionEntry("X", 1, "0.5").cf == F(1, 2)
    assert DecisionEntry("X", 1, "1/3").cf == F(1, 3)
    assert kbio.build_from_document(fixture_doc, alpha="0.5", round2=True).alpha == F(1, 2)
    assert kbio.build_from_document(fixture_doc, alpha="1/3", round2=True).alpha == F(1, 3)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_api_non_finite_floats_fail_typed(fixture_doc, value):
    with pytest.raises(errors.OutOfRange, match="not a finite number"):
        DecisionEntry("X", 1, value)
    with pytest.raises(errors.OutOfRange, match="not a finite number"):
        kbio.build_from_document(fixture_doc, alpha=value)


@pytest.mark.parametrize("value", [Decimal("nan"), Decimal("snan"), Decimal("inf"),
                                   Decimal("-inf"), None, "", [F(1, 2)], object()])
def test_api_values_fraction_refuses_fail_typed(fixture_doc, value):
    with pytest.raises(errors.OutOfRange):
        DecisionEntry("X", 1, value)
    if value is None:
        return  # alpha=None keeps the document's gate
    with pytest.raises(errors.OutOfRange):
        kbio.build_from_document(fixture_doc, alpha=value)


@pytest.mark.parametrize("value", [Decimal("1E-10000000"), Decimal("0E-10000000"),
                                   Decimal("1E+10000000")])
def test_api_decimals_with_wide_exponents_are_refused_quickly(fixture_doc, value):
    # Fraction(Decimal("1E-10000000")) builds 10**10000000, seconds of work
    for call in (lambda: DecisionEntry("X", 1, value),
                 lambda: kbio.build_from_document(fixture_doc, alpha=value)):
        exc = _refused_quickly(call, limit=0.1)
        assert isinstance(exc, errors.OutOfRange)


def test_api_decimals_stay_exact(fixture_doc):
    assert DecisionEntry("X", 1, Decimal("0.5")).cf == F(1, 2)
    assert DecisionEntry("X", 1, Decimal("0.1")).cf == F(1, 10)
    assert DecisionEntry("X", 1, Decimal("1E-4300")).cf == F(1, 10 ** 4300)
    assert kbio.build_from_document(fixture_doc, alpha=Decimal("0.5"),
                                    round2=True).alpha == F(1, 2)


def test_parse_evidence_refuses_an_exponent_alpha():
    exc = _refused_quickly(lambda: kbio.parse_evidence("module a\nalpha %s\n" % HUGE))
    assert isinstance(exc, errors.SyntaxError)
    assert exc.line == 2
    assert "bad alpha" in str(exc)


def _line_of(text, needle, start=1):
    return next(i for i, l in enumerate(text.splitlines(), 1) if i >= start and needle in l)


@pytest.mark.parametrize("token,bad,message", [
    ("cf=", "cf=0.5x", "bad number"),
    ("cf=", "cf=1.5", "bad decision values"),
    ("vd=", "vd=7", "bad decision values"),
    ("vd=", "vd=one", "bad decision values"),
    ("vd=", "vd=", "bad decision values"),
    ("w=", "w=f1:x", "bad weight"),
    ("w=", "w=f1:0", "bad decision values"),
    ("decision ", "decision C#J", "bad disease name 'C#J'"),
    ("vd=", "vx=1", "expected vd=..., got 'vx=1'"),
    ("vd=", "cf=1", "expected vd=..., got 'cf=1'"),            # out of order
    ("cf=", "cf", "expected cf=..., got 'cf'"),
    ("w=", "", "bad decision line"),                           # a field missing
    ("w=", "w=- extra", "bad decision line"),                  # a field extra
    ("tv=", "tv=0.5/0.5", "truth triple needs three components"),
    ("tv=", "tv=0.5/x/0.5", "bad number 'x'"),
    ("w=", "w=f1", "bad weight 'f1'"),
    ("w=", "w=f1:1,f1:1", "weights name f1 twice"),
    ("w=", "w=f2:1", "weights reference facts outside the condition"),
])
def test_load_refuses_a_repeated_bad_token_at_its_first_line(kb_round2, token, bad, message):
    text = kbio.serialize_kb(kb_round2)
    # the same bad token on every decision line of level-1 node 001
    lines = text.splitlines()
    first = _line_of(text, "node 001") + 1
    count = 0
    for i in range(first - 1, len(lines)):
        if not lines[i].startswith("decision"):
            break
        lines[i] = re.sub(re.escape(token) + r"\S+", bad, lines[i])
        count += 1
    assert count > 1
    with pytest.raises(errors.CorruptRecord) as info:
        kbio.load_kb("\n".join(lines) + "\n")
    assert info.value.line == first
    assert message in str(info.value)


@pytest.mark.parametrize("token,bad", [("cf=", "cf=1.5"), ("vd=", "vd=7"), ("w=", "w=f1:0"),
                                       ("w=", "w=f2:1")])
def test_load_reports_a_line_s_own_checks_before_its_values(kb_round2, token, bad):
    # a value out of range is refused only after the line's own checks
    text = kbio.serialize_kb(kb_round2)
    lines = text.splitlines()
    at = _line_of(text, "node 001") + 1
    lines.insert(at, re.sub(re.escape(token) + r"\S+", bad, lines[at - 1]))
    with pytest.raises(errors.CorruptRecord) as info:
        kbio.load_kb("\n".join(lines) + "\n")
    assert info.value.line == at + 1
    assert "twice" in str(info.value)


@pytest.mark.parametrize("weights", ["w=f1:1,f1:1/2", "w=f1:1,f1:1", "w=f1:0,f1:1"])
def test_load_refuses_a_fact_weighted_twice(kb_round2, weights):
    # the last value used to win, and the file then re-serialized otherwise
    text = kbio.serialize_kb(kb_round2)
    at = _line_of(text, "w=f1:1", start=_line_of(text, "node 001"))
    lines = text.splitlines()
    lines[at - 1] = lines[at - 1].replace("w=f1:1", weights)
    with pytest.raises(errors.CorruptRecord) as info:
        kbio.load_kb("\n".join(lines) + "\n")
    assert info.value.line == at
    assert "weights name f1 twice" in str(info.value)


def test_load_checks_a_cached_weight_item_against_each_condition(kb_round2):
    text = kbio.serialize_kb(kb_round2)
    # w=f1:1 is valid at node 001, read first, and names a fact outside 010
    assert "w=f1:1\n" in text.split("node 010")[0]
    at = _line_of(text, "w=f2:1", start=_line_of(text, "node 010"))
    lines = text.splitlines()
    lines[at - 1] = lines[at - 1].replace("w=f2:1", "w=f1:1")
    with pytest.raises(errors.CorruptRecord) as info:
        kbio.load_kb("\n".join(lines) + "\n")
    assert info.value.line == at
    assert "outside the condition" in str(info.value)


def test_load_reads_signed_and_padded_truth_values(kb_round2):
    text = kbio.serialize_kb(kb_round2)
    assert text.count(" vd=1 ") > 2
    padded = text.replace(" vd=1 ", " vd=01 ", 1).replace(" vd=1 ", " vd=+1 ", 1)
    loaded = kbio.load_kb(padded)
    assert loaded == kbio.load_kb(text)
    assert kbio.serialize_kb(loaded) == text
    assert all(type(e.vd) is TruthValue for node in loaded.nodes.values()
               for e in node.decisions.values())


def test_load_requires_full_population(kb_round2):
    lines = kbio.serialize_kb(kb_round2).splitlines()
    victim = next(i for i, l in enumerate(lines) if l.startswith("node 010"))
    clipped = "\n".join(l for i, l in enumerate(lines)
                        if not (i >= victim and l.startswith("node 010")
                                and "node 010" in l)) + "\n"
    with pytest.raises(errors.CorruptRecord):
        kbio.load_kb(clipped)
    # without its decisions too, the node is missing from the count
    last = next(i for i, l in enumerate(lines) if l.startswith("node 111"))
    with pytest.raises(errors.CorruptRecord) as info:
        kbio.load_kb("\n".join(lines[:last]) + "\n")
    assert (str(info.value), info.value.line) == ("file lists 7 of 8 nodes", None)


def test_load_rejects_foreign_weights(kb_round2):
    text = kbio.serialize_kb(kb_round2)
    bad = text.replace("w=f1:1", "w=f3:1", 1)
    with pytest.raises(errors.CorruptRecord):
        kbio.load_kb(bad)


def _outcome(kb, disease):
    try:
        return approximations(kb, disease)
    except errors.UnknownDisease:
        return "unknown"


@pytest.mark.parametrize("round2", [False, True])
def test_a_save_and_load_keeps_the_diseases(fixture_doc, round2):
    # edits after which some disease is named by no decision
    kb = kbio.build_from_document(fixture_doc, round2=round2)
    edited = [lattice.delete_fact(kb, fact.id) for fact in kb.facts]
    for disease in kb.diseases():
        out = kb
        for label in kb.levels[1]:
            if disease in out.node(label).decisions:
                out = lattice.modify_node(out, label, lattice.DropDecision(disease))
        edited.append(out)
    for out in edited:
        again = kbio.load_kb(kbio.serialize_kb(out))
        assert again.diseases() == out.diseases()
        for disease in kb.diseases():
            assert _outcome(again, disease) == _outcome(out, disease)
    assert "MPS" not in edited[0].diseases()
    assert _outcome(edited[-1], "SIJ") == "unknown"


def _weighted_kbs(n, round2):
    """Two seeded KBs whose weights vary by node and disease: a global
    priority for every (disease, fact) and scoped ones on two fact sets,
    then the same KB with its first disease left without any priority,
    so that one file holds both the shared no-priority ``w=`` texts and
    each other disease's own."""
    rng = seeded(900 + n)
    diseases = DISEASE_POOL[:3]
    glob = {(d, f): rng.randint(1, 4) for d in diseases for f in range(1, n + 1)}
    scoped = {}
    for size in (2, n):
        facts = frozenset(rng.sample(range(1, n + 1), size))
        scoped[(facts, rng.choice(diseases))] = {f: rng.randint(1, 4) for f in facts}
    atomics = random_atomics(rng, n, diseases)
    plain = diseases[0]
    return [kb_from_atomics(atomics, n, priorities=priorities, round2=round2)
            for priorities in (PriorityConfig(glob, scoped), PriorityConfig(
                {key: p for key, p in glob.items() if key[0] != plain},
                {key: prio for key, prio in scoped.items() if key[1] != plain}))]


def _entries(kb):
    return {(label, disease): entry for label, node in kb.nodes.items()
            for disease, entry in node.decisions.items()}


def _w_text(weights):
    """The canonical w= text of a weights map: facts ascending, each weight
    as str(Fraction), and - for no facts."""
    return ",".join("f%d:%s" % (f, weights[f]) for f in sorted(weights)) or "-"


def _w_lines(text):
    """{(label, disease): (line number, w= field)} of a KB text."""
    out, label = {}, None
    for no, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if parts[0] == "node":
            label = parts[1]
        elif parts[0] == "decision":
            out[(label, parts[1])] = no, parts[-1][len("w="):]
    return out


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("round2", [False, True])
def test_seeded_kbs_round_trip_through_the_loader(n, round2):
    for kb in _weighted_kbs(n, round2):
        _check_round_trip(kb, n, round2)


def _check_round_trip(kb, n, round2):
    text = kbio.serialize_kb(kb)
    loaded = kbio.load_kb(text)
    assert kbio.serialize_kb(loaded) == text
    if round2:
        assert loaded == kb
    # the file holds cf and tv at the mode's precision, weights exactly
    places = 2 if round2 else 6
    stored = _entries(kb)
    entries = _entries(loaded)
    w_lines = _w_lines(text)
    assert entries.keys() == stored.keys() == w_lines.keys()
    for key, entry in entries.items():
        want = stored[key]
        condition = kb.node(key[0]).condition
        assert entry.vd == want.vd
        assert (w_lines[key][1] == _w_text(kb.priorities.weights_for(condition, key[1]))
                == _w_text(loaded.priorities.weights_for(condition, key[1])))
        assert entry.cf == F(render(want.cf, places))
        assert entry.tv == (None if want.tv is None else
                            tuple(F(render(c, places)) for c in want.tv))
    assert len({w for _, w in w_lines.values()}) > n


@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("round2", [False, True])
def test_serialize_load_serialize_is_a_fixed_point_up_to_order_12(n, round2):
    """Past the orders the oracles reach: seeded priorities, and a gate
    from order 11."""
    kb, _, _ = random_kb(seeded(1200 + n), n, alpha=(F(1, 10), 0, F(1, 20))[n % 3],
                         round2=round2)
    text = kbio.serialize_kb(kb)
    loaded = kbio.load_kb(text)
    assert kbio.serialize_kb(loaded) == text
    if round2:
        assert loaded == kb


def _as_decimal(w):
    """A weight as a decimal token, or None when it has no finite one."""
    for places in range(1, 8):
        scaled = w * 10 ** places
        if scaled.denominator == 1:
            whole, rest = divmod(scaled.numerator, 10 ** places)
            return "%d.%0*d" % (whole, places, rest)
    return None


def _with_w(text, no, w):
    lines = text.splitlines()
    lines[no - 1] = re.sub(r"w=\S+$", "w=" + w, lines[no - 1])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("round2", [False, True])
def test_the_w_field_is_the_priorities_weights(n, round2):
    kbs = _weighted_kbs(n, round2)
    # the second file mixes the shared no-priority texts with per-disease ones
    diseases = {key[1] for key in _w_lines(kbio.serialize_kb(kbs[1]))}
    assert len(diseases - set(kbs[1].priorities.diseases())) == 1 < len(diseases)
    for kb in kbs:
        _check_w_fields(kb)


def _check_w_fields(kb):
    text = kbio.serialize_kb(kb)
    w_lines = _w_lines(text)
    weights = {key: kb.priorities.weights_for(kb.node(key[0]).condition, key[1])
               for key in w_lines}
    # every w= is the canonical text of the weights the priorities give
    assert all(w == _w_text(weights[key]) for key, (_, w) in w_lines.items())

    # a well-formed, in-range map that differs is refused at its line
    composite = [key for key in w_lines if len(set(weights[key].values())) > 1]
    level1 = next(key for key in w_lines if key[0].count("1") == 1)
    (fid,) = weights[level1]
    rotated = composite[0]
    facts = sorted(weights[rotated])
    values = [weights[rotated][f] for f in facts]
    cases = [(level1, "f%d:1/2" % fid),
             (rotated, _w_text(dict(zip(facts, values[1:] + values[:1]))))]
    # and a composite line of a disease no priority names, if any
    cases += [(key, _w_text(dict.fromkeys(weights[key], F(1, len(weights[key]) + 1))))
              for key in w_lines if key[1] not in kb.priorities.diseases()
              and key[0].count("1") > 1][:1]
    for key, bad in cases:
        no = w_lines[key][0]
        with pytest.raises(errors.CorruptRecord) as info:
            kbio.load_kb(_with_w(text, no, bad))
        assert info.value.line == no
        assert ("w=%s disagrees with the priorities, which give w=%s"
                % (bad, w_lines[key][1]) in str(info.value))

    # the same map reordered, or in decimals, loads and saves back canonical
    key = composite[-1]
    reordered = ",".join(reversed(w_lines[key][1].split(",")))
    assert reordered != w_lines[key][1]
    assert kbio.serialize_kb(kbio.load_kb(_with_w(text, w_lines[key][0], reordered))) == text
    key = next(key for key in composite
               if all(_as_decimal(w) for w in weights[key].values()))
    decimals = ",".join("f%d:%s" % (f, _as_decimal(w)) for f, w in sorted(weights[key].items()))
    assert "/" not in decimals
    assert kbio.serialize_kb(kbio.load_kb(_with_w(text, w_lines[key][0], decimals))) == text

    # w=- is "not stated": it loads, and saves as the computed weights
    unstated = re.sub(r"w=\S+$", "w=-", text, flags=re.M)
    assert unstated.count("w=-") == len(w_lines)
    assert kbio.serialize_kb(kbio.load_kb(unstated)) == text


def test_an_entry_node_decision_has_no_weights(kb_round2):
    entry = kb_round2.node("001").decisions["PIVD"]
    kb = kb_round2.with_updates({0: {"PIVD": entry}})
    text = kbio.serialize_kb(kb)
    assert "node 000\ndecision PIVD vd=%d cf=%s tv=" % (entry.vd, render(entry.cf, 2)) in text
    assert _w_lines(text)[("000", "PIVD")][1] == "-"
    loaded = kbio.load_kb(text)
    assert loaded == kb
    assert lattice.check_structure(loaded) == ["entry node carries decisions"]


@pytest.mark.parametrize("alpha", ["2", "-1/2"])
def test_load_refuses_an_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    text = kbio.serialize_kb(lattice.build_kb([lattice.Fact(1, "sore", "yes")], {}))
    text = text.replace("alpha 0\n", "alpha %s\n" % alpha, 1)
    with pytest.raises(errors.CorruptRecord, match="outside") as caught:
        kbio.load_kb(text)
    assert caught.value.line == 3
    path = tmp_path / "alpha.kb"
    path.write_text(text, encoding="utf-8")
    assert kbio.cli(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 3: alpha")


def _one_fact_kb_text():
    kb = lattice.build_kb([lattice.Fact(1, "sore", "yes")], {})
    return kbio.serialize_kb(kb)


def test_load_rejects_a_short_priority_line(tmp_path, capsys):
    text = _one_fact_kb_text().replace("node 0\n", "priority X\nnode 0\n", 1)
    with pytest.raises(errors.CorruptRecord, match="bad priority line"):
        kbio.load_kb(text)
    path = tmp_path / "short.kb"
    path.write_text(text, encoding="utf-8")
    assert kbio.cli(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_load_checks_the_order_cap_before_building(monkeypatch):
    def refuse(n):
        raise AssertionError("skeleton of order %d built" % n)
    monkeypatch.setattr(kbio, "_build_structure", refuse)
    monkeypatch.setattr(kbio, "_skeleton", refuse)
    text = "roughkb-kb 1\nmode exact\nalpha 0\norder 17\n" + "".join(
        "fact f%d a%d yes\n" % (f, f) for f in range(1, 18))
    with pytest.raises(errors.OrderTooLarge):
        kbio.load_kb(text)


def test_build_from_document_modes(fixture_doc, kb_round2, kb_exact):
    assert kbio.build_from_document(fixture_doc, round2=True) == kb_round2
    assert kbio.build_from_document(fixture_doc) == kb_exact
    assert kb_round2.round2 and not kb_exact.round2


# --- rule rendering ---------------------------------------------------------

def test_rule_renderings_are_frozen(kb_round2, approx_round2):
    from roughkb.minimizer import generate_rules
    rules = generate_rules(kb_round2, approx_round2)
    text = kbio.render_rules_text(rules, kb_round2)
    records = kbio.render_rules_records(rules, kb_round2)
    assert _sha(text) == RULES_TEXT_SHA
    assert _sha(records) == RULES_RECORDS_SHA
    assert text.startswith(
        "Rule 1: (LBP without leg pain, yes) AND NOT "
        "(increased LBP at forward bending, yes) -> (CFJ, 1) [certain] "
        "support=0.95 strength=0.28 certainty=1.00 coverage=1.00")
    assert "f1 AND NOT f2\t001,101\t0.95\t0.28\t1.00\t1.00" in records


# --- command line -----------------------------------------------------------

@pytest.fixture()
def evd_file(tmp_path):
    path = tmp_path / "fixture.evd"
    path.write_text(_fixture_text(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def kb_file(tmp_path, evd_file):
    path = str(tmp_path / "fixture.kb")
    assert kbio.cli(["build", evd_file, "-o", path, "--round2"]) == 0
    return path


def test_cli_build_writes_the_frozen_bytes(kb_file, capsys):
    with open(kb_file, encoding="utf-8") as stream:
        assert _sha(stream.read()) == KB_ROUND2_SHA
    assert capsys.readouterr().out == ""


def test_cli_build_is_deterministic(tmp_path, evd_file, kb_file):
    other = str(tmp_path / "second.kb")
    assert kbio.cli(["build", evd_file, "-o", other]) == 0
    assert kbio.cli(["build", evd_file, "-o", other, "--round2"]) == 0
    with open(other, encoding="utf-8") as a, open(kb_file, encoding="utf-8") as b:
        assert a.read() == b.read()
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith(".")], "temporary files left behind"


def test_cli_build_alpha_override(tmp_path, evd_file):
    path = str(tmp_path / "gated.kb")
    assert kbio.cli(["build", evd_file, "-o", path, "--alpha", "1/4"]) == 0
    kb = kbio.load_kb(open(path, encoding="utf-8").read())
    assert kb.alpha == F(1, 4)


def test_cli_approx_prints_six_regions(kb_file, capsys):
    assert kbio.cli(["approx", kb_file, "--disease", "PIVD"]) == 0
    assert capsys.readouterr().out == (
        "lower1: 010 110\n"
        "upper1: 010 100 101 110 111\n"
        "boundary1: 100 101 111\n"
        "lower2: 001 011\n"
        "upper2: 001 011 100 101 111\n"
        "boundary2: 100 101 111\n")


def test_cli_approx_handles_empty_regions(kb_file, capsys):
    assert kbio.cli(["approx", kb_file, "--disease", "MPS"]) == 0
    out = capsys.readouterr().out
    assert "lower2:\n" in out
    assert "boundary1:\n" in out


def test_cli_rules_formats(kb_file, capsys):
    assert kbio.cli(["rules", kb_file]) == 0
    assert _sha(capsys.readouterr().out) == RULES_TEXT_SHA
    assert kbio.cli(["rules", kb_file, "--format", "records"]) == 0
    first = capsys.readouterr().out
    assert _sha(first) == RULES_RECORDS_SHA
    assert kbio.cli(["rules", kb_file, "--format", "records"]) == 0
    assert capsys.readouterr().out == first


def test_cli_rules_refuse_a_repeated_kind(kb_file, capsys):
    # a repeated kind would print each of its rules twice
    capsys.readouterr()
    assert kbio.cli(["rules", kb_file, "--kinds", "certain,certain"]) == 1
    assert capsys.readouterr() == ("", "error: rule kind 'certain' given twice\n")


@pytest.mark.parametrize("round2", [False, True])
def test_cli_rules_show_unmeasured_rules_with_dashes(tmp_path, evd_file,
                                                     capsys, round2):
    # SIJ's upper2 region is all inconclusive: the rule has no definite
    # mass to measure against, in both modes
    path = str(tmp_path / "fixture.kb")
    assert kbio.cli(["build", evd_file, "-o", path]
                    + (["--round2"] if round2 else [])) == 0
    kinds = ["--kinds", "certain,uncertain,possible"]
    capsys.readouterr()
    assert kbio.cli(["rules", path] + kinds + ["--format", "records"]) == 0
    records = capsys.readouterr().out.splitlines()
    upper2 = [r.split("\t") for r in records
              if r.startswith("SIJ\t0\tpossible\t")]
    assert len(upper2) == 1
    assert upper2[0][5:] == ["-", "-", "-", "-"]
    assert kbio.cli(["rules", path] + kinds) == 0
    text = capsys.readouterr().out.splitlines()
    assert len(text) == len(records)
    unmeasured = [line for line in text if "-> (SIJ, 0) [possible]" in line]
    assert len(unmeasured) == 1
    assert unmeasured[0].endswith(
        "support=- strength=- certainty=- coverage=-")


def test_cli_check_reports_ok(kb_file, capsys):
    assert kbio.cli(["check", kb_file]) == 0
    assert capsys.readouterr().out == (
        "structure: ok (8 nodes)\nproperties: ok (54 checks)\n")


def test_cli_check_reports_a_decision_on_the_entry_node(kb_round2, tmp_path, capsys):
    entry = kb_round2.node("001").decisions["PIVD"]
    path = tmp_path / "entry.kb"
    path.write_text(kbio.serialize_kb(kb_round2.with_updates({0: {"PIVD": entry}})),
                    encoding="utf-8")
    assert kbio.cli(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "structure: 1 problem\n  entry node carries decisions\nproperties: ok (56 checks)\n")


def test_cli_insert_then_delete_restores_the_file(kb_file, capsys):
    with open(kb_file, encoding="utf-8") as stream:
        before = stream.read()
    assert kbio.cli(["insert-fact", kb_file, "--attribute", "numbness",
                     "--value", "yes", "--decision", "PIVD", "1", "0.70"]) == 0
    with open(kb_file, encoding="utf-8") as stream:
        grown = stream.read()
    assert "order 4" in grown
    assert kbio.cli(["delete-fact", kb_file, "--fact", "f4"]) == 0
    with open(kb_file, encoding="utf-8") as stream:
        assert stream.read() == before
    capsys.readouterr()


def test_cli_set_decision_narrates_the_ripple(kb_file, capsys):
    rc = kbio.cli(["set-decision", kb_file, "--label", "001",
                   "--disease", "MPS", "--vd", "0", "--cf", "0.88"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "changed MPS 001 vd=1->0\n"
        "changed MPS 011 vd=1->0\n"
        "changed MPS 101 vd=1->0\n"
        "changed MPS 111 vd=1->0\n")
    assert kbio.cli(["set-decision", kb_file, "--label", "001",
                     "--disease", "MPS", "--drop"]) == 0
    out = capsys.readouterr().out
    assert "removed MPS 001 vd=0" in out


def test_cli_set_decision_reasserting_a_stored_decision_is_a_no_op(kb_file, capsys):
    with open(kb_file, encoding="utf-8") as stream:
        before = stream.read()
    assert "decision CFJ vd=1 cf=0.79 tv=0." in before.split("node 001\n")[1]
    assert kbio.cli(["set-decision", kb_file, "--label", "001",
                     "--disease", "CFJ", "--vd", "1", "--cf", "0.79"]) == 0
    assert capsys.readouterr().out == ""
    with open(kb_file, encoding="utf-8") as stream:
        assert stream.read() == before


def test_cli_error_paths(tmp_path, kb_file, capsys):
    assert kbio.cli(["approx", kb_file, "--disease", "GOUT"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert kbio.cli(["approx", str(tmp_path / "missing.kb"),
                     "--disease", "SIJ"]) == 1
    assert kbio.cli(["set-decision", kb_file, "--label", "001",
                     "--disease", "MPS"]) == 1  # neither --drop nor values
    capsys.readouterr()


@pytest.mark.parametrize("cf", ["abc", "1/0"])
def test_cli_set_decision_rejects_a_bad_credibility(kb_file, capsys, cf):
    with open(kb_file, encoding="utf-8") as stream:
        before = stream.read()
    assert kbio.cli(["set-decision", kb_file, "--label", "001",
                     "--disease", "PIVD", "--vd", "0", "--cf", cf]) == 1
    assert capsys.readouterr().err == "error: bad credibility %r\n" % cf
    with open(kb_file, encoding="utf-8") as stream:
        assert stream.read() == before


def test_cli_refuses_exponents_in_cf_and_alpha(tmp_path, evd_file, kb_file, capsys):
    with open(kb_file, encoding="utf-8") as stream:
        before = stream.read()
    start = time.perf_counter()
    assert kbio.cli(["set-decision", kb_file, "--label", "001",
                     "--disease", "PIVD", "--vd", "0", "--cf", HUGE]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: bad credibility %r\n" % HUGE
    with open(kb_file, encoding="utf-8") as stream:
        assert stream.read() == before
    out = str(tmp_path / "alpha.kb")
    for alpha in (HUGE, "spam"):
        start = time.perf_counter()
        assert kbio.cli(["build", evd_file, "-o", out, "--alpha", alpha]) == 1
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == "error: bad alpha %r\n" % alpha
    assert not os.path.exists(out)


def test_cli_insert_fact_rejects_a_bad_credibility(kb_file, capsys):
    assert kbio.cli(["insert-fact", kb_file, "--attribute", "numbness",
                     "--value", "yes", "--decision", "PIVD", "1", "1/0"]) == 1
    assert capsys.readouterr().err == "error: bad credibility '1/0'\n"
    assert "order 3" in open(kb_file, encoding="utf-8").read()


@pytest.mark.parametrize("command", [
    ["set-decision", "--label", "001", "--disease", "NEW DIS", "--vd", "1", "--cf", "0.5"],
    ["insert-fact", "--attribute", "numbness", "--value", "yes",
     "--decision", "NEW DIS", "1", "0.5"],
])
def test_cli_edits_refuse_a_disease_name_the_file_cannot_hold(kb_file, capsys, command):
    with open(kb_file, encoding="utf-8") as stream:
        before = stream.read()
    assert kbio.cli(command[:1] + [kb_file] + command[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad disease name 'NEW DIS'\n"
    with open(kb_file, encoding="utf-8") as stream:
        assert stream.read() == before
    assert kbio.cli(["check", kb_file]) == 0


# --- the grammar both text formats share --------------------------------------

TWELVE_FACTS = "module a\ngrading q=3\n" + "".join(
    "fact f%d a%d yes\n" % (f, f) for f in range(1, 13))

# Integers are ASCII digits with an optional sign, and names are
# [A-Za-z0-9_.-]+, in both formats and on the command line: int() alone
# would read 1_0 as 10 and a non-ASCII digit as its value.
REFUSALS = [
    # evidence documents: (text, line refused)
    P("evidence", BASE + "evidence f1 ANK m=1 level=1 count=1_0\n", 5, id="count=1_0"),
    P("evidence", BASE + "evidence f1 ANK m=1 level=\u0661 count=1\n", 5,
      id="level=arabic-1"),
    P("evidence", "module a\ngrading q=\u0663\n", 2, id="q=arabic-3"),
    P("evidence", TWELVE_FACTS + "evidence f1\u0662 ANK m=1 level=1 count=1\n", 15,
      id="f1-arabic-2"),
    P("evidence", BASE + "priority ANK f1 2_0\n", 5, id="priority-2_0"),
    P("evidence", BASE + "priority ANK f1 \u0662\n", 5, id="priority-arabic-2"),
    # KB files: (text in the round2 fixture file, its replacement), message
    P("kb", ("order 3", "order \u0663"), "bad order", id="order-arabic-3"),
    P("kb", ("roughkb-kb 1", "roughkb-kb \u0661"), "bad version", id="version-arabic-1"),
    P("kb", (" vd=1 ", " vd=\u0661 "), "bad decision values", id="vd=arabic-1"),
    P("kb", (" vd=1 ", " vd=0_1 "), "bad decision values", id="vd=0_1"),
    P("kb", ("node 000", "priority a#b f1 2\nnode 000"), "bad disease name 'a#b'",
      id="priority-a#b"),
    P("kb", ("decision CFJ", "decision C#J"), "bad disease name 'C#J'", id="decision-C#J"),
    P("kb", ('fact f2 "increased LBP at forward bending"', 'fact f2 "LBP without leg pain"'),
      "declared twice", id="repeated-fact"),
    # the node section's own refusals
    P("kb", ("node 000\n", "decision CFJ vd=1 cf=1 tv=- w=-\nnode 000\n"),
      "decision before any node", id="decision-before-node"),
    P("kb", ("node 011", "node 012"), "unknown node label", id="unknown-label"),
    P("kb", ("node 011", "node 011 extra"), "unknown node label", id="node-extra-token"),
    P("kb", ("node 011", "node\t001"), "node 001 listed twice", id="node-twice"),
    P("kb", ("node 011", "nodes 011"), "unexpected 'nodes' line in node section",
      id="unknown-line"),
    P("kb", ("decision DP vd=2 cf=0.50", "decision CFJ vd=2 cf=0.50"),
      "node 001 decides 'CFJ' twice", id="decides-twice"),
    # command lines on the round2 fixture file: (arguments, error message)
    P("cli", ["set-decision", "--label", "001", "--disease", "PIVD", "--vd", "1_0",
              "--cf", "0.5"], "bad truth value '1_0'", id="--vd-1_0"),
    P("cli", ["delete-fact", "--fact", "\u0663"], "bad fact reference '\u0663'",
      id="--fact-arabic-3"),
]


@pytest.mark.parametrize("kind,case,where", REFUSALS)
def test_files_and_the_cli_refuse_what_the_shared_grammar_refuses(
        kb_round2, tmp_path, capsys, kind, case, where):
    if kind == "evidence":
        with pytest.raises(errors.SyntaxError) as info:
            kbio.parse_evidence(case)
        assert info.value.line == where
    elif kind == "kb":
        old, new = case
        text = kbio.serialize_kb(kb_round2)
        assert old in text
        bad = text.replace(old, new, 1)
        with pytest.raises(errors.CorruptRecord) as info:
            kbio.load_kb(bad)
        assert info.value.line == _line_of(bad, new.splitlines()[0])
        assert where in str(info.value)
    else:
        path = tmp_path / "fixture.kb"
        text = kbio.serialize_kb(kb_round2)
        path.write_text(text, encoding="utf-8")
        assert kbio.cli(case[:1] + [str(path)] + case[1:]) == 1
        assert capsys.readouterr() == ("", "error: %s\n" % where)
        assert path.read_text(encoding="utf-8") == text


def test_signed_and_padded_priorities_are_read_alike(kb_round2):
    doc = kbio.parse_evidence(BASE + "priority ANK f1 2\npriority BUR f1+f2 f1=2 f2=1\n")
    assert kbio.parse_evidence(
        BASE + "priority ANK f1 +2\npriority BUR f1+f2 f1=02 f2=+1\n") == doc
    text = kbio.serialize_kb(kb_round2)
    assert "priority CFJ f1+f2 f1=2 f2=1\n" in text
    signed = text.replace("priority CFJ f1+f2 f1=2 f2=1\n",
                          "priority CFJ f1+f2 f1=+2 f2=01\n", 1)
    assert kbio.load_kb(signed) == kb_round2


def test_every_export_resolves():
    missing = [name for name in roughkb.__all__ if not hasattr(roughkb, name)]
    assert missing == []


def _python(args, cwd=None):
    """Run ``python args`` in a fresh process that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughkb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True,
                          text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli(tmp_path, evd_file):
    out = tmp_path / "fixture.kb"
    done = _python(["-m", "roughkb", "build", evd_file, "-o", str(out)])
    assert done.returncode == 0
    assert done.stderr == ""
    assert _sha(out.read_text(encoding="utf-8")) == KB_EXACT_SHA


def test_cli_usage_errors_exit_two(capsys):
    assert kbio.cli(["frobnicate"]) == 2
    assert kbio.cli([]) == 2
    capsys.readouterr()


def test_the_parser_is_built_at_the_first_call_only():
    code = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import roughkb
from roughkb import kbio
counts = [len(built)]
for argv in (["frobnicate"], ["rules"]):
    assert kbio.cli(argv) == 2
    counts.append(len(built))
print(*counts)
"""
    done = _python(["-c", code])
    assert done.returncode == 0, done.stderr
    at_import, first, second = map(int, done.stdout.split())
    assert at_import == 0
    assert first > 0
    assert second == first


# One process, one parser: each call must behave as in a fresh process.
# An appended list, a store_true flag or an error state kept by the
# parser would leak into the next call.
_SEQUENCE = [
    ["insert-fact", "fixture.kb", "--attribute", "numbness", "--value", "yes",
     "--decision", "PIVD", "1", "0.70", "--decision", "MPS", "0", "0.40"],
    ["insert-fact", "fixture.kb", "--attribute", "tingling", "--value", "no"],
    ["set-decision", "fixture.kb", "--label", "00001", "--disease", "MPS", "--drop"],
    ["set-decision", "fixture.kb", "--label", "00001", "--disease", "MPS",
     "--vd", "0", "--cf", "0.88"],
    ["rules", "fixture.kb", "--kinds"],
    ["--help"],
    ["rules", "fixture.kb", "--kinds", "certain,possible"],
]


def test_cli_calls_in_one_process_match_fresh_processes(tmp_path, kb_file, capsys,
                                                        monkeypatch):
    with open(kb_file, encoding="utf-8") as stream:
        original = stream.read()
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for folder in (here, fresh):
        folder.mkdir()
        (folder / "fixture.kb").write_text(original, encoding="utf-8")
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    monkeypatch.chdir(here)
    capsys.readouterr()
    statuses = []
    for argv in _SEQUENCE:
        status = kbio.cli(argv)
        statuses.append(status)
        out, err = capsys.readouterr()
        done = _python(["-m", "roughkb"] + argv, cwd=str(fresh))
        assert (status, out, err) == (done.returncode, done.stdout, done.stderr), argv
        assert ((here / "fixture.kb").read_bytes()
                == (fresh / "fixture.kb").read_bytes()), argv
    assert statuses == [0, 0, 0, 0, 2, 0, 0]
