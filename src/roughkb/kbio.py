"""Evidence-file ingestion, KB persistence, rule export and the CLI.

Two text formats live here.  Evidence documents are the hand-authored
input: a line-oriented grammar declaring facts, source gradings,
priorities and per-source evidence counts.  Knowledge-base files are
the canonical persisted form of a built lattice: byte-stable, version
stamped, nodes in level-major label order (a lattice keys nodes by mask,
so label text is made and read here).  A decision line's ``w=`` is
rendered from the priorities, not stored; a load checks it, and ``w=-``
means "not stated".  Both round-trip: parsing then rendering a document
reproduces it, and serializing a loaded KB file reproduces the file.

Both formats read the tokens and lines they share through one set of
readers: names are ``[A-Za-z0-9_.-]+``, fact references ``fN``, integers
``[-+]?[0-9]+`` (``_num.parse_int``) and numbers what
``_num.parse_rational`` reads, in ASCII digits only; ``fact`` and
``priority`` lines are read and checked alike.  A token or line one
format refuses, the other refuses too, each with its own error class
(``errors.SyntaxError`` or ``errors.CorruptRecord``) at the line.

The command line wraps the whole pipeline (build, approximations,
rules, edits, consistency check) with deterministic output and
atomic file replacement.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import errors
from ._num import ONE, ZERO, Converted, frac, parse_int, parse_rational, publish2, render
from ._record import Record, set_field
from .evidence import (GRADING_CAP, EvidenceProfile, TruthTriple, TruthValue,
                       presence_matrix, resolve_decision, truth_triple)
from .lattice import (DropDecision, Fact, Lattice, SetDecision, _check_order, _skeleton,
                      build_kb, check_structure, delete_fact, insert_fact, modify_node)
# bench/tracing.py wraps this name to count the nodes a skeleton builds
from .lattice import _build_structure  # noqa: F401
from .minimizer import generate_rules
from .propagation import _NAME_RE, DecisionEntry, PriorityConfig, _totals, propagate
from .roughset import approximations

FORMAT_NAME = "roughkb-kb"
FORMAT_VERSION = 1

_FACT_RE = re.compile(r"f([1-9][0-9]*)\Z")
# The characters str.splitlines() breaks a line at ("\r\n" is one break).
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


# --- readers of what both text formats share ---------------------------------
#
# Each reader raises the caller's ParseError subclass, errors.SyntaxError
# for evidence and errors.CorruptRecord for KB files, at the caller's line.

def _name(token: str, what: str, error, line_no: Optional[int]) -> str:
    if not _NAME_RE.match(token):
        raise error("bad %s name %r" % (what, token), line_no)
    return token


def _fact_ref(token: str, error, line_no: Optional[int]) -> int:
    match = _FACT_RE.match(token)
    if not match:
        raise error("expected a fact reference like f1, got %r" % (token,), line_no)
    return int(match.group(1))


def _fact_refs(token: str, known, error, line_no: Optional[int]) -> List[int]:
    """The facts of ``fA+fB+...``, each passed through ``known(fid, line_no)``."""
    return [known(_fact_ref(part, error, line_no), line_no) for part in token.split("+")]


def _integer(token: str, what: str, error, line_no: Optional[int]) -> int:
    try:
        return parse_int(token)
    except ValueError:
        raise error("bad %s %r" % (what, token), line_no)


def _rational(token: str, what: str, error, line_no: Optional[int]) -> Fraction:
    try:
        return parse_rational(token)
    except (ValueError, ZeroDivisionError):
        raise error("bad %s %r" % (what, token), line_no)


def _field(token: str, key: str, error, line_no: Optional[int]) -> str:
    """The value text of a ``key=value`` token."""
    if not token.startswith(key + "="):
        raise error("expected %s=..., got %r" % (key, token), line_no)
    return token[len(key) + 1:]


def _fact_line(tokens: List[str], facts: Dict[int, Fact], pairs, error,
               line_no: Optional[int]) -> Fact:
    """Read a ``fact fN "attribute" "value"`` line into ``facts`` (by id)
    and ``pairs`` (attribute/value), refusing an id or a pair read before."""
    if len(tokens) != 4:
        raise error('expected: fact fN "attribute" "value"', line_no)
    fact = Fact(_fact_ref(tokens[1], error, line_no), tokens[2], tokens[3])
    if fact.id in facts:
        raise error("fact f%d declared twice" % fact.id, line_no)
    if (fact.attribute, fact.value) in pairs:
        raise error("fact %r / %r declared twice" % (fact.attribute, fact.value),
                    line_no)
    facts[fact.id] = fact
    pairs.add((fact.attribute, fact.value))
    return fact


def _priority(token: str, error, line_no: Optional[int]) -> int:
    p = _integer(token, "priority", error, line_no)
    if p < 1:
        raise error("priority must be positive", line_no)
    return p


def _priority_line(tokens: List[str], known, global_priorities, scoped, error,
                   line_no: Optional[int]):
    """Read ``priority DISEASE fN P`` into ``global_priorities``, or the
    scoped ``priority DISEASE fA+fB fA=P fB=Q`` into ``scoped``.

    ``known(fid, line_no)`` refuses a fact the file does not hold.  Every
    priority is a positive integer, a scoped line assigns each fact of
    its set exactly once, and a key already filed is refused.
    """
    if len(tokens) < 4:
        raise error("bad priority line: expected priority DISEASE fN P,"
                    " or a scoped form", line_no)
    disease = _name(tokens[1], "disease", error, line_no)
    if "=" not in tokens[3]:
        if len(tokens) != 4:
            raise error("bad priority line: expected priority DISEASE fN P", line_no)
        fid = known(_fact_ref(tokens[2], error, line_no), line_no)
        key, table = (disease, fid), global_priorities
        value = _priority(tokens[3], error, line_no)
    else:
        refs = _fact_refs(tokens[2], known, error, line_no)
        texts = {}
        for token in tokens[3:]:
            ref, eq, text = token.partition("=")
            if not eq:
                raise error("expected fN=P, got %r" % (token,), line_no)
            texts[_fact_ref(ref, error, line_no)] = text
        if len(texts) != len(tokens) - 3 or len(set(refs)) != len(refs) \
                or texts.keys() != set(refs):
            raise error("scoped priorities must cover the fact set exactly", line_no)
        key, table = (frozenset(refs), disease), scoped
        value = {fid: _priority(text, error, line_no) for fid, text in texts.items()}
    if key in table:
        raise error("duplicate priority for %s %s" % (disease, tokens[2]), line_no)
    table[key] = value


# --- evidence documents -----------------------------------------------------

class EvidenceRecord(Record):
    """One line of evidence: sources of one kind at one level."""

    __slots__ = ("facts", "disease", "m", "level", "count")

    def __init__(self, facts: Tuple[int, ...], disease: str, m: int, level: int,
                 count: int):
        set_field(self, "facts", facts)
        set_field(self, "disease", disease)
        set_field(self, "m", m)
        set_field(self, "level", level)
        set_field(self, "count", count)


class EvidenceDocument(Record):
    """A parsed evidence file, with records in canonical order."""

    __slots__ = ("module", "q", "facts", "priorities", "records", "alpha")

    def __init__(self, module: str, q: int, facts: Tuple[Fact, ...],
                 priorities: PriorityConfig, records: Tuple[EvidenceRecord, ...],
                 alpha: Fraction = ZERO):
        set_field(self, "module", module)
        set_field(self, "q", q)
        set_field(self, "facts", facts)
        set_field(self, "priorities", priorities)
        set_field(self, "records", records)
        set_field(self, "alpha", alpha)

    def diseases(self) -> Tuple[str, ...]:
        return tuple(sorted({r.disease for r in self.records}))


def _int_field(token: str, key: str, line_no: int) -> int:
    return _integer(_field(token, key, errors.SyntaxError, line_no), key,
                    errors.SyntaxError, line_no)


# A line of spaces, tabs and printable ASCII other than quotes, backslash
# and "#": shlex in its POSIX mode splits it only at spaces and tabs.
_PLAIN_LINE_RE = re.compile(r"[\t !$-&(-\[\]-~]*")
# A line of such words and double-quoted strings with no quote or
# backslash inside, each ended by a space, a tab or the line's end: shlex
# reads each string as its text, as one token.
_QUOTED_LINE_RE = re.compile(r'[ \t]*(?:(?:"[^"\\]*"|[!$-&(-\[\]-~]+)(?:[ \t]+|\Z))*')
_QUOTED_TOKEN_RE = re.compile(r'"([^"\\]*)"|([^ \t]+)')


def _tokens(line: str, comments: bool) -> List[str]:
    """The tokens of a line, as ``shlex.split(line, comments=comments)``
    reads them.  A plain line is split by ``str.split``, and a line of
    words and simple quoted strings, such as a rendered ``fact`` line, by
    a pattern; shlex reads only the others."""
    if _PLAIN_LINE_RE.fullmatch(line):
        return line.split()
    if _QUOTED_LINE_RE.fullmatch(line):
        return [quoted or word for quoted, word in _QUOTED_TOKEN_RE.findall(line)]
    return shlex.split(line, comments=comments)


def parse_evidence(text: str) -> EvidenceDocument:
    """Parse an evidence document; all failures carry line numbers.

    Declarations are single-pass: facts must be declared before any
    priority or evidence line that references them, and the grading
    must precede the evidence records it bounds.

    Raises:
        SyntaxError: malformed line, missing header, duplicate record.
        UnknownFactRef: reference to an undeclared fact.
        LevelOutOfRange: evidence level outside 1..q.
    """
    module = None
    q = None
    alpha = ZERO
    facts: Dict[int, Fact] = {}
    fact_pairs = set()
    global_priorities: Dict[Tuple[str, int], int] = {}
    scoped_priorities: Dict[Tuple[FrozenSet[int], str], Dict[int, int]] = {}
    records: List[EvidenceRecord] = []
    record_keys = set()

    def declared(fid: int, line_no: int) -> int:
        if fid not in facts:
            raise errors.UnknownFactRef("fact f%d is not declared" % fid, line_no)
        return fid

    for line_no, raw in enumerate(text.splitlines(), 1):
        try:
            tokens = _tokens(raw, comments=True)
        except ValueError as exc:
            raise errors.SyntaxError(str(exc), line_no)
        if not tokens:
            continue
        head = tokens[0]
        if module is None:
            if head != "module" or len(tokens) != 2:
                raise errors.SyntaxError("no module header", line_no)
            module = _name(tokens[1], "module", errors.SyntaxError, line_no)
            continue

        if head == "module":
            raise errors.SyntaxError("duplicate module header", line_no)

        elif head == "grading":
            if q is not None:
                raise errors.SyntaxError("duplicate grading declaration", line_no)
            if len(tokens) != 2:
                raise errors.SyntaxError("expected: grading q=N", line_no)
            q = _int_field(tokens[1], "q", line_no)
            if q < 1:
                raise errors.SyntaxError("grading q must be positive", line_no)
            if q > GRADING_CAP:
                raise errors.SyntaxError("grading q=%d exceeds the cap of %d"
                                         % (q, GRADING_CAP), line_no)

        elif head == "alpha":
            if len(tokens) != 2:
                raise errors.SyntaxError("expected: alpha VALUE", line_no)
            alpha = _rational(tokens[1], "alpha", errors.SyntaxError, line_no)
            if not ZERO <= alpha <= ONE:
                raise errors.SyntaxError("alpha outside [0, 1]", line_no)

        elif head == "fact":
            _fact_line(tokens, facts, fact_pairs, errors.SyntaxError, line_no)

        elif head == "priority":
            _priority_line(tokens, declared, global_priorities, scoped_priorities,
                           errors.SyntaxError, line_no)

        elif head == "evidence":
            if len(tokens) != 6:
                raise errors.SyntaxError(
                    "expected: evidence FACTS DISEASE m=M level=J count=K",
                    line_no)
            if q is None:
                raise errors.SyntaxError("grading must precede evidence",
                                         line_no)
            fset = tuple(sorted(_fact_refs(tokens[1], declared, errors.SyntaxError,
                                           line_no)))
            if len(set(fset)) != len(fset):
                raise errors.SyntaxError("repeated fact in %r" % (tokens[1],), line_no)
            disease = _name(tokens[2], "disease", errors.SyntaxError, line_no)
            m = _int_field(tokens[3], "m", line_no)
            if m not in (1, 2, 3):
                raise errors.SyntaxError("assertion kind m must be 1, 2 or 3",
                                         line_no)
            level = _int_field(tokens[4], "level", line_no)
            if not 1 <= level <= q:
                raise errors.LevelOutOfRange(
                    "level %d outside 1..%d" % (level, q), line_no)
            count = _int_field(tokens[5], "count", line_no)
            if count < 0:
                raise errors.SyntaxError("count must be nonnegative", line_no)
            key = (fset, disease, m, level)
            if key in record_keys:
                raise errors.SyntaxError("duplicate evidence record", line_no)
            record_keys.add(key)
            records.append(EvidenceRecord(fset, disease, m, level, count))

        else:
            raise errors.SyntaxError("unknown directive %r" % (head,), line_no)

    if module is None:
        raise errors.SyntaxError("no module header")
    if q is None:
        raise errors.SyntaxError("no grading declaration")
    if set(facts) != set(range(1, len(facts) + 1)):
        raise errors.SyntaxError("fact ids must be f1..f%d contiguously"
                                 % len(facts))
    records.sort(key=lambda r: (r.facts, r.disease, r.m, r.level))
    return EvidenceDocument(module, q, tuple(facts[fid] for fid in sorted(facts)),
                            PriorityConfig(global_priorities, scoped_priorities),
                            tuple(records), alpha)


def _quoted(text: str) -> str:
    """``text`` in double quotes, each backslash doubled, as ``shlex``
    reads it back."""
    if '"' in text or any(c in text for c in _BREAKS):
        raise errors.OutOfRange("cannot render text containing quotes or line"
                                " breaks: %r" % (text,))
    return '"%s"' % text.replace("\\", "\\\\")


def _fact_lines(facts: Sequence[Fact]) -> List[str]:
    return ["fact f%d %s %s" % (fact.id, _quoted(fact.attribute), _quoted(fact.value))
            for fact in facts]


def _priority_lines(priorities: PriorityConfig) -> List[str]:
    """Global then scoped priority lines, as both text formats spell them."""
    lines = ["priority %s f%d %d" % (disease, fid, p)
             for (disease, fid), p in sorted(priorities.global_priorities.items())]
    for (fset, disease), prio in sorted(
            priorities.scoped.items(),
            key=lambda item: (sorted(item[0][0]), item[0][1])):
        refs = "+".join("f%d" % f for f in sorted(fset))
        parts = " ".join("f%d=%d" % (f, prio[f]) for f in sorted(prio))
        lines.append("priority %s %s %s" % (disease, refs, parts))
    return lines


def render_evidence(doc: EvidenceDocument) -> str:
    """Canonical text of a document; parse(render(doc)) == doc."""
    lines = ["module %s" % doc.module, "grading q=%d" % doc.q]
    if doc.alpha != 0:
        lines.append("alpha %s" % doc.alpha)
    lines += _fact_lines(doc.facts)
    lines += _priority_lines(doc.priorities)
    for rec in doc.records:
        refs = "+".join("f%d" % f for f in rec.facts)
        lines.append("evidence %s %s m=%d level=%d count=%d"
                     % (refs, rec.disease, rec.m, rec.level, rec.count))
    return "\n".join(lines) + "\n"


# --- building ---------------------------------------------------------------

def _resolved_decisions(doc: EvidenceDocument, round2: bool):
    """Resolve every record group into (vd, cf, triple) per fact set."""
    grouped: Dict[Tuple[Tuple[int, ...], str], Dict[int, Dict[int, int]]] = {}
    for rec in doc.records:
        rows = grouped.setdefault((rec.facts, rec.disease), {})
        rows.setdefault(rec.m, {})[rec.level] = rec.count
    resolved = {}
    for (fset, disease), rows in sorted(grouped.items()):
        profile = EvidenceProfile.from_levels(rows, doc.q)
        triple = truth_triple(profile)
        if round2:
            triple = TruthTriple(*(publish2(c) for c in triple))
        vd, cf = resolve_decision(presence_matrix(profile), triple)
        resolved[(fset, disease)] = (vd, cf, triple)
    return resolved


def build_from_document(doc: EvidenceDocument, alpha=None, round2: bool = False) -> Lattice:
    """Evidence to lattice: resolve, build, propagate.

    Single-fact records become atomic decisions; multi-fact records are
    resolved the same way and merged into their nodes as direct
    evidence during propagation.  ``alpha`` overrides the document's
    declared gate when given.
    """
    atomics: Dict[int, List[DecisionEntry]] = {}
    external: Dict[FrozenSet[int], Dict[str, tuple]] = {}
    for (fset, disease), (vd, cf, triple) in _resolved_decisions(doc, round2).items():
        if len(fset) == 1:
            fid = fset[0]
            atomics.setdefault(fid, []).append(
                DecisionEntry(disease, vd, cf, tv=triple))
        else:
            external.setdefault(frozenset(fset), {})[disease] = (vd, cf, triple)
    kb = build_kb(doc.facts, atomics)
    gate = doc.alpha if alpha is None else frac(alpha)
    return propagate(kb, priorities=doc.priorities, external=external,
                     alpha=gate, round2=round2)


def fixture_document() -> EvidenceDocument:
    """The shipped low-back-pain evidence corpus."""
    text = resources.files(__package__).joinpath(
        "data/low_back_pain.evd").read_text(encoding="utf-8")
    return parse_evidence(text)


# --- KB persistence ---------------------------------------------------------

def _decimals(round2: bool) -> int:
    return 2 if round2 else 6


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) of positive integers, without the Fraction."""
    g = gcd(p, q)
    return "%d/%d" % (p // g, q // g) if g < q else "%d" % (p // g)


def _weights_texts(priorities: PriorityConfig, n: int) -> Dict[str, List[str]]:
    """disease -> each node's canonical ``w=`` text, indexed by mask: each
    fact in id order as ``fN:p/total`` under the disease's priorities,
    ``-`` for the entry node.  A disease's list is rendered whole on first
    use, and the diseases no priority names share one."""
    fact_ids = _skeleton(n).fact_ids

    def texts(disease) -> List[str]:
        row, scoped = priorities._row(disease, n)
        # total -> each fact's item text by fact id, under the row
        items = Converted(lambda total: ["f%d:%s" % (f, _ratio(p, total))
                                         for f, p in enumerate(row)])
        out = [",".join(map(items[total].__getitem__, facts))
               for total, facts in zip(_totals(row), fact_ids)]
        out[0] = "-"
        for facts, (prio, total) in scoped.items():
            out[sum(1 << (f - 1) for f in facts)] = ",".join(
                ["f%d:%s" % (f, _ratio(prio[f], total)) for f in sorted(facts)])
        return out

    rendered = Converted(texts)  # None: the map of every disease no priority names
    named = priorities.diseases()
    return Converted(lambda disease: rendered[disease if disease in named else None])


def serialize_kb(kb: Lattice) -> str:
    """Canonical, byte-stable text form of a lattice.

    Credibilities and truth components render as decimals at the mode's
    precision; the gate stays an exact rational, and so do the per-fact
    weights, read from ``_weights_texts``.  Each entry's line up to its
    ``w=`` text, and each number and truth triple in it, is rendered once
    per call, keyed by its identity: entries and triples are shared
    values, so few are distinct.
    """
    places = _decimals(kb.round2)
    numbers: Dict[int, str] = {}
    triples: Dict[int, str] = {id(None): "-"}
    prefixes: Dict[int, str] = {}
    w_texts = _weights_texts(kb.priorities, kb.n)

    def number(x) -> str:
        text = numbers.get(id(x))
        if text is None:
            text = numbers[id(x)] = render(x, places)
        return text

    def triple(tv) -> str:
        text = triples.get(id(tv))
        if text is None:
            text = triples[id(tv)] = "%s/%s/%s" % tuple(map(number, tv))
        return text

    lines = ["%s %d" % (FORMAT_NAME, FORMAT_VERSION),
             "mode %s" % ("round2" if kb.round2 else "exact"),
             "alpha %s" % kb.alpha,
             "order %d" % kb.n]
    lines += _fact_lines(kb.facts)
    lines += _priority_lines(kb.priorities)
    stored = kb.decisions
    for label, mask in _skeleton(kb.n).masks.items():
        lines.append("node %s" % label)
        decisions = stored.get(mask, {})
        for disease in sorted(decisions):
            entry = decisions[disease]
            prefix = prefixes.get(id(entry))
            if prefix is None:
                prefix = prefixes[id(entry)] = ("decision %s vd=%d cf=%s tv=%s w="
                                                % (disease, entry.vd, number(entry.cf),
                                                   triple(entry.tv)))
            lines.append(prefix + w_texts[disease][mask])
    return "\n".join(lines) + "\n"


def _corrupt(message: str, line_no: Optional[int] = None):
    raise errors.CorruptRecord(message, line_no)


# The patterns below read a text whose only line break is "\n"; every
# other whitespace character separates tokens, as str.split() does.
_LINE_RE = re.compile(r"([^\n]*)\n?")
# One line of the node section from its first token: a node label, the
# five fields of a decision, or in the last group any other line.  The
# match runs on over the line break, blank lines and the next line's
# indentation, so the matches of a section follow each other.
_NODE_SECTION_RE = re.compile(
    r"(?:node{s}+(\S+)"
    r"|decision{s}+(\S+){s}+vd=(\S*){s}+cf=(\S*){s}+tv=(\S*){s}+w=(\S*)"
    r"|(\S[^\n]*)){s}*(?:\n\s*|\Z)".format(s=r"[^\S\n]"))


def _opens(line: str, keyword: str) -> bool:
    """Whether ``line`` holds ``keyword`` after any indentation, then a
    space or a tab: the blanks at which both ``shlex`` and ``str.split``
    end a token."""
    rest = line.lstrip(" \t")
    return rest.startswith(keyword) and rest[len(keyword):len(keyword) + 1] in (" ", "\t")


def _lines(text: str):
    """Number, offset and right-stripped text of each non-blank line of a
    text whose only line breaks are newlines."""
    for no, match in enumerate(_LINE_RE.finditer(text), 1):
        line = match.group(1).rstrip()
        if line:
            yield no, match.start(), line


def load_kb(text: str) -> Lattice:
    """Parse a serialized knowledge base.

    Accepts node sections in any order but requires exactly the full
    2**n label population.

    Raises:
        VersionMismatch: recognized format at an unsupported version.
        OrderTooLarge: an order above the cap, refused before its
            skeleton is built.
        CorruptRecord: anything else wrong, with the offending line.
    """
    if any(c in text for c in _BREAKS[1:]):
        # each line break made "\n", so every line keeps its number
        text = "\n".join(text.splitlines())
    lines = _lines(text)
    end = (None, len(text), "")
    error = errors.CorruptRecord

    def take(expected: str) -> Tuple[int, List[str]]:
        no, _, line = next(lines, end)
        if no is None:
            _corrupt("unexpected end of file, wanted %r" % expected)
        parts = line.split()
        if parts[0] != expected:
            _corrupt("expected %r line, got %r" % (expected, parts[0]), no)
        return no, parts

    no, _, first = next(lines, end)
    if no is None:
        _corrupt("empty file")
    parts = first.split()
    if parts[0] != FORMAT_NAME:
        _corrupt("not a %s file" % FORMAT_NAME, no)
    if len(parts) != 2:
        _corrupt("bad version header", no)
    if _integer(parts[1], "version", error, no) != FORMAT_VERSION:
        raise errors.VersionMismatch(
            "file version %s, supported version %d" % (parts[1], FORMAT_VERSION))

    no, parts = take("mode")
    if len(parts) != 2 or parts[1] not in ("exact", "round2"):
        _corrupt("mode must be exact or round2", no)
    round2 = parts[1] == "round2"

    no, parts = take("alpha")
    if len(parts) != 2:
        _corrupt("bad alpha line", no)
    alpha = _rational(parts[1], "alpha", error, no)
    if not ZERO <= alpha <= ONE:
        _corrupt("alpha %s outside [0, 1]" % alpha, no)

    no, parts = take("order")
    n = _integer(parts[1], "order", error, no) if len(parts) == 2 else 0
    if n < 1:
        _corrupt("bad order line", no)
    _check_order(n)

    facts: Dict[int, Fact] = {}
    pairs = set()
    for fid in range(1, n + 1):
        no, _, line = next(lines, end)
        if not _opens(line, "fact"):
            _corrupt("expected %d fact lines" % n, no)
        try:
            tokens = _tokens(line, comments=False)
        except ValueError as exc:
            _corrupt(str(exc), no)
        if _fact_line(tokens, facts, pairs, error, no).id != fid:
            _corrupt("expected fact f%d declaration" % fid, no)

    def in_order(fid: int, line_no: int) -> int:
        if fid > n:
            _corrupt("priority names f%d in an order-%d file" % (fid, n), line_no)
        return fid

    global_priorities = {}
    scoped = {}
    no, start, line = next(lines, end)
    while _opens(line, "priority"):
        _priority_line(line.split(), in_order, global_priorities, scoped, error, no)
        no, start, line = next(lines, end)

    # The node section, from line ``no`` on, is read in one pass of
    # _NODE_SECTION_RE over the text: each match is a node label or the
    # five fields of a decision, and no line is split.  Each distinct token
    # is converted and checked once per load, and each ``w=`` is checked
    # against the priorities.  A line number is worked out only for a
    # refused line, which goes through every check of a node-section line
    # in order, so the message is the one a line-by-line reader would give.
    priorities = PriorityConfig(global_priorities, scoped)
    decisions = _read_nodes(text, start, no, n, priorities)
    return Lattice(facts.values(), decisions, alpha=alpha, priorities=priorities, round2=round2)


class _Credibilities(dict):
    """cf token -> its credibility, read and checked to lie in [0, 1] on a
    miss.  A token it refuses raises ValueError and is not kept."""

    def __missing__(self, token: str) -> Fraction:
        cf = parse_rational(token)
        if not 0 <= cf.numerator <= cf.denominator:
            raise ValueError(token)
        self[token] = cf
        return cf


class _Truths(dict):
    """tv token -> its truth triple, None for ``-``: on a miss the token's
    three components are read from the shared number table ``numbers``.
    A token it refuses raises and is not kept."""

    def __init__(self, numbers: Converted):
        super().__init__({"-": None})
        self.numbers = numbers

    def __missing__(self, token: str) -> TruthTriple:
        numbers = self.numbers
        tv1, tv2, tv3 = token.split("/")
        tv = self[token] = tuple.__new__(TruthTriple, (numbers[tv1], numbers[tv2], numbers[tv3]))
        return tv


def _read_nodes(text: str, start: int, first_no: Optional[int], n: int,
                priorities: PriorityConfig) -> Dict[int, Dict[str, DecisionEntry]]:
    """Read the node section, the text from offset ``start`` (line
    ``first_no``) on: each node's decision map, keyed by its label's mask.

    There is one token table per field, and each reads a token once per
    load.  The tables hold only valid values: a miss raises for any other
    token, and the first line a table or a check refuses goes to
    ``_refuse_node_line``.  A ``w=`` other than ``-`` or the canonical
    text is read as a map, which must equal the priorities' weights.
    """
    numbers = Converted(parse_rational)

    def weight_item(token: str) -> Tuple[int, Fraction]:
        ref, _, value = token.partition(":")
        w = numbers[value]
        if not _FACT_RE.match(ref) or not 0 < w.numerator <= w.denominator:
            raise ValueError(token)
        return int(ref[1:]), w

    vds = Converted(lambda token: TruthValue(parse_int(token)))
    vds.update({"%d" % vd: vd for vd in TruthValue})
    cfs = _Credibilities()
    triples = _Truths(numbers)
    item = Converted(weight_item).__getitem__
    checked = DecisionEntry._checked
    w_texts = _weights_texts(priorities, n)
    table = _skeleton(n)
    masks = table.masks
    names = set()
    maps: Dict[int, Dict[str, DecisionEntry]] = {}
    entries: Dict[Tuple[str, str, str, str], DecisionEntry] = {}
    mask = decisions = None
    try:
        for match in _NODE_SECTION_RE.finditer(text, start):
            label, disease, vd, cf, tv, w, _ = match.groups()
            if disease:
                if mask is None or disease in decisions:
                    break
                if disease not in names:
                    if not _NAME_RE.match(disease):
                        break
                    names.add(disease)
                # equal decisions of a disease are one entry, as derive makes them
                entry = entries.get((disease, vd, cf, tv))
                if entry is None:
                    entry = entries[disease, vd, cf, tv] = checked(disease, vds[vd], cfs[cf],
                                                                   triples[tv])
                if w != "-" and w != w_texts[disease][mask]:
                    weights = dict(map(item, w.split(",")))
                    condition = table.fact_ids[mask]
                    if len(weights) <= w.count(",") or not weights.keys() <= set(condition):
                        break
                    if weights != priorities.weights_for(condition, disease):
                        # every other check of the line passed
                        _corrupt("w=%s disagrees with the priorities, which give w=%s"
                                 % (w, w_texts[disease][mask]),
                                 first_no + text.count("\n", start, match.start()))
                decisions[disease] = entry
            elif label:
                mask = masks.get(label)
                if mask is None or mask in maps:
                    break
                decisions = maps[mask] = {}
            else:
                break
        else:
            match = None
    except (ValueError, ZeroDivisionError):
        pass        # a table refused one of the line's tokens
    if match is not None:
        _refuse_node_line(text, start, first_no, match, table, mask, decisions)
    if len(maps) != len(masks):
        _corrupt("file lists %d of %d nodes" % (len(maps), len(masks)))
    return maps


def _refuse_node_line(text: str, start: int, first_no: int, match, table,
                      mask: Optional[int], decisions) -> None:
    """Raise the CorruptRecord for ``match``, a line of the node section
    the section reader refused: the line's checks run in order, as at
    every line, and the first that fails is reported at its number."""
    no = first_no + text.count("\n", start, match.start())
    parts = match.group().split()
    error = errors.CorruptRecord
    if parts[0] == "node":
        if len(parts) != 2 or parts[1] not in table.masks:
            _corrupt("unknown node label", no)
        _corrupt("node %s listed twice" % parts[1], no)
    if parts[0] != "decision":
        _corrupt("unexpected %r line in node section" % parts[0], no)
    if mask is None:
        _corrupt("decision before any node", no)
    if len(parts) != 6:
        _corrupt("bad decision line", no)
    disease = _name(parts[1], "disease", error, no)
    _field(parts[2], "vd", error, no)
    _rational(_field(parts[3], "cf", error, no), "number", error, no)
    tv = _field(parts[4], "tv", error, no)
    w = _field(parts[5], "w", error, no)
    if tv != "-":
        comps = tv.split("/")
        if len(comps) != 3:
            _corrupt("truth triple needs three components", no)
        for comp in comps:
            _rational(comp, "number", error, no)
    fids = set()
    for item in w.split(",") if w != "-" else ():
        ref, _, value = item.partition(":")
        try:
            fid, _ = _fact_ref(ref, error, no), parse_rational(value)
        except (error, ValueError, ZeroDivisionError):
            _corrupt("bad weight %r" % (item,), no)
        if fid in fids:
            _corrupt("weights name f%d twice" % fid, no)
        fids.add(fid)
    if disease in decisions:
        _corrupt("node %s decides %r twice" % (table.labels[mask], disease), no)
    if not fids <= set(table.fact_ids[mask]):
        _corrupt("weights reference facts outside the condition", no)
    # every other check passed, so a value is out of range
    _corrupt("bad decision values", no)


# --- rule export ------------------------------------------------------------

def _literal_phrase(kb: Lattice, fid: int, positive: bool) -> str:
    fact = kb.fact(fid)
    phrase = "(%s, %s)" % (fact.attribute, fact.value)
    return phrase if positive else "NOT " + phrase


def _condition_phrase(kb: Lattice, expr) -> str:
    return expr.phrase(lambda fid, positive: _literal_phrase(kb, fid, positive))


def _measures(rule, places: int) -> List[str]:
    """Support, strength, certainty and coverage as text; a rule left
    unmeasured (no definite mass to divide by) shows ``-`` for each."""
    m = rule.metrics
    if m is None:
        return ["-"] * 4
    return [render(v, places)
            for v in (m.support, m.strength, m.certainty, m.coverage)]


def render_rules_text(rules, kb: Lattice) -> str:
    """Numbered human-readable rule list with metrics."""
    places = _decimals(kb.round2)
    out = []
    for idx, rule in enumerate(rules, 1):
        support, strength, certainty, coverage = _measures(rule, places)
        out.append(
            "Rule %d: %s -> (%s, %d) [%s]"
            " support=%s strength=%s certainty=%s coverage=%s"
            % (idx, _condition_phrase(kb, rule.condition), rule.disease,
               int(rule.vd), rule.kind, support, strength, certainty, coverage))
    return "".join(line + "\n" for line in out)


def render_rules_records(rules, kb: Lattice) -> str:
    """Tab-separated rule records: disease, vd, kind, condition,
    source labels, support, strength, certainty, coverage."""
    places = _decimals(kb.round2)
    out = []
    for rule in rules:
        out.append("\t".join([
            rule.disease, str(int(rule.vd)), rule.kind, str(rule.condition),
            ",".join(sorted(rule.source_labels))] + _measures(rule, places)))
    return "".join(line + "\n" for line in out)


# --- command line -----------------------------------------------------------

def _write_atomically(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile("w", dir=directory, delete=False,
                                         encoding="utf-8",
                                         prefix=".%s." % os.path.basename(path))
    try:
        with handle as stream:
            stream.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _load_file(path: str) -> Lattice:
    with open(path, "r", encoding="utf-8") as stream:
        return load_kb(stream.read())


def _all_approximations(kb: Lattice):
    return {disease: approximations(kb, disease) for disease in kb.diseases()}


class _PrintingObserver:
    """Reports incremental approximation maintenance on stdout."""

    def __init__(self, stream):
        self.stream = stream

    def decisions_added(self, disease, pairs):
        for label, vd in pairs:
            print("added %s %s vd=%d" % (disease, label, int(vd)),
                  file=self.stream)

    def decisions_removed(self, disease, pairs):
        for label, vd in pairs:
            print("removed %s %s vd=%d" % (disease, label, int(vd)),
                  file=self.stream)

    def truth_changed(self, disease, label, old_vd, new_vd):
        print("changed %s %s vd=%d->%d"
              % (disease, label, int(old_vd), int(new_vd)), file=self.stream)


def _cmd_build(args) -> int:
    with open(args.evidence, "r", encoding="utf-8") as stream:
        doc = parse_evidence(stream.read())
    alpha = None if args.alpha is None else _number_arg(args.alpha, "alpha")
    kb = build_from_document(doc, alpha=alpha, round2=args.round2)
    _write_atomically(args.output, serialize_kb(kb))
    return 0


def _cmd_approx(args) -> int:
    kb = _load_file(args.kb)
    sets = approximations(kb, args.disease)
    for name in ("lower1", "upper1", "boundary1",
                 "lower2", "upper2", "boundary2"):
        labels = sorted(getattr(sets, name))
        print(("%s: %s" % (name, " ".join(labels))).rstrip())
    return 0


def _cmd_rules(args) -> int:
    kb = _load_file(args.kb)
    kinds = tuple(k for k in args.kinds.split(",") if k)
    rules = generate_rules(kb, _all_approximations(kb), kinds)
    text = (render_rules_records(rules, kb) if args.format == "records"
            else render_rules_text(rules, kb))
    sys.stdout.write(text)
    return 0


def _number_arg(token: str, what: str) -> Fraction:
    try:
        return parse_rational(token)
    except (ValueError, ZeroDivisionError):
        raise errors.OutOfRange("bad %s %r" % (what, token))


def _int_arg(token: str, what: str) -> int:
    try:
        return parse_int(token)
    except ValueError:
        raise errors.OutOfRange("bad %s %r" % (what, token))


def _parse_cli_decision(spec: Sequence[str]) -> DecisionEntry:
    disease, vd, cf = spec
    return DecisionEntry(disease, _int_arg(vd, "truth value"),
                         _number_arg(cf, "credibility"))


def _cmd_insert_fact(args) -> int:
    kb = _load_file(args.kb)
    fact = Fact(kb.n + 1, args.attribute, args.value)
    atomic = [_parse_cli_decision(spec) for spec in args.decision or []]
    kb = insert_fact(kb, fact, atomic)
    _write_atomically(args.kb, serialize_kb(kb))
    return 0


def _fact_id_arg(token: str) -> int:
    match = _FACT_RE.match(token)
    try:
        fid = int(match.group(1)) if match else parse_int(token)
    except ValueError:
        fid = 0
    if fid < 1:
        raise errors.UnknownFact("bad fact reference %r" % (token,))
    return fid


def _cmd_delete_fact(args) -> int:
    kb = _load_file(args.kb)
    kb = delete_fact(kb, _fact_id_arg(args.fact))
    _write_atomically(args.kb, serialize_kb(kb))
    return 0


def _cmd_set_decision(args) -> int:
    kb = _load_file(args.kb)
    if args.drop:
        change = DropDecision(args.disease)
    else:
        if args.vd is None or args.cf is None:
            raise errors.OutOfRange(
                "set-decision needs --vd and --cf unless --drop is given")
        change = SetDecision(args.disease, _int_arg(args.vd, "truth value"),
                             _number_arg(args.cf, "credibility"))
    edited = modify_node(kb, args.label, change,
                         observer=_PrintingObserver(sys.stdout))
    if edited is not kb:
        _write_atomically(args.kb, serialize_kb(edited))
    return 0


def _cmd_check(args) -> int:
    kb = _load_file(args.kb)
    problems = check_structure(kb)
    from .metrics import check_properties
    report = check_properties(kb, _all_approximations(kb))
    if problems:
        print("structure: %d problem%s"
              % (len(problems), "" if len(problems) == 1 else "s"))
        for problem in problems:
            print("  " + problem)
    else:
        print("structure: ok (%d nodes)" % (1 << kb.n))
    if report.ok:
        print("properties: ok (%d checks)" % report.checked)
    else:
        print("properties: %d failure%s"
              % (len(report.failures), "" if len(report.failures) == 1 else "s"))
        for prop, disease, vd, detail in report.failures:
            print("  property %d, %s vd=%d: %s" % (prop, disease, vd, detail))
    return 1 if problems or not report.ok else 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and reused for the
    life of the process: ``parse_args`` keeps nothing of one call in the
    parser, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="roughkb",
        description="Lattice knowledge bases with rough-set rule induction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a KB file from an evidence document")
    p.add_argument("evidence")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha", default=None,
                   help="override the document's gate threshold")
    p.add_argument("--round2", action="store_true",
                   help="publish all derived quantities at two decimals")
    p.set_defaults(run=_cmd_build)

    p = sub.add_parser("approx", help="print the six approximation regions")
    p.add_argument("kb")
    p.add_argument("--disease", required=True)
    p.set_defaults(run=_cmd_approx)

    p = sub.add_parser("rules", help="minimize and rank decision rules")
    p.add_argument("kb")
    p.add_argument("--kinds", default="certain",
                   help="comma list of certain,possible,uncertain")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_cmd_rules)

    p = sub.add_parser("insert-fact", help="append a fact and re-derive")
    p.add_argument("kb")
    p.add_argument("--attribute", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--decision", nargs=3, action="append",
                   metavar=("DISEASE", "VD", "CF"),
                   help="atomic decision for the new fact (repeatable)")
    p.set_defaults(run=_cmd_insert_fact)

    p = sub.add_parser("delete-fact", help="remove a fact and shrink the KB")
    p.add_argument("kb")
    p.add_argument("--fact", required=True, help="fact id, e.g. f2 or 2")
    p.set_defaults(run=_cmd_delete_fact)

    p = sub.add_parser("set-decision", help="edit one node's decision")
    p.add_argument("kb")
    p.add_argument("--label", required=True)
    p.add_argument("--disease", required=True)
    p.add_argument("--vd")
    p.add_argument("--cf")
    p.add_argument("--drop", action="store_true",
                   help="remove the decision instead of setting it")
    p.set_defaults(run=_cmd_set_decision)

    p = sub.add_parser("check", help="structural invariants and rule identities")
    p.add_argument("kb")
    p.set_defaults(run=_cmd_check)
    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line; returns the exit status (0 ok, 1 domain
    error, 2 usage error)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except errors.KbError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
