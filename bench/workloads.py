"""The four workloads: their inputs, their operations and their checks.

A workload is a fixed list of CLI operations (one round).  The seeded
part of the list comes from ``--seed``; the probes come from fixed
inputs and fail today because of a named fault (F1-F4 in the README),
so the failed share of a round is the same for every seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
from fractions import Fraction
from typing import Callable, List, Optional

import checks
import expected_lbp
import gen

PROBE_SEED = 20181003     # fixed inputs of the probes, never --seed
RAGGED_BUDGET_S = 1.0     # per-operation budget of ragged
SAFETY_BUDGET_S = 60.0    # any other operation: far past its longest run
SCREEN_CAP = 64           # peak Petrick products a seeded input may need


@dataclasses.dataclass
class Op:
    argv: List[str]
    order: int
    kind: str
    check: Callable            # (result, before) -> list of problems
    writes: Optional[str] = None
    fault: Optional[str] = None
    budget: float = SAFETY_BUDGET_S


class Workload:
    """Ops, the files a round starts from, and the tail percentile."""

    def __init__(self, name, tail_pct):
        self.name = name
        self.tail_pct = tail_pct
        self.ops: List[Op] = []
        self.start_files = {}
        self.screened_out = 0

    def orders(self):
        return sorted({op.order for op in self.ops} |
                      {op.order + 1 for op in self.ops if op.kind == "insert"})

    def reset(self):
        for path, text in self.start_files.items():
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(text)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)
    return path


def _cli(prog, argv):
    """Run the CLI untimed to prepare an input; it must succeed."""
    with contextlib.redirect_stdout(io.StringIO()):
        if prog.kbio.cli(argv) != 0:
            raise RuntimeError("preparing input failed: %s" % " ".join(argv))


def fixture_document():
    counts = {((fid,), disease): rows for (fid, disease), rows in expected_lbp.COUNTS.items()}
    facts = [(fid, a, v) for fid, (a, v) in sorted(expected_lbp.FACTS.items())]
    return gen.Document(3, expected_lbp.Q, expected_lbp.DISEASES, counts, {},
                        expected_lbp.SCOPED_PRIORITIES, Fraction(0), facts)


def resolved_inputs(doc, round2):
    """Oracle-resolved atomics {(fid, disease): (vd, cf, triple)} and
    composite evidence {fact set: {disease: (vd, cf, triple)}}."""
    atomics, external = {}, {}
    for (facts, disease), value in checks.resolved(doc, round2).items():
        if len(facts) == 1:
            atomics[(facts[0], disease)] = value
        else:
            external.setdefault(frozenset(facts), {})[disease] = value
    return atomics, external


def rebuild(prog, doc, round2, atomics, facts, external):
    """From-scratch build_kb + propagate of the given atomics, with the
    document's priorities, gate and composite evidence, rendered the same
    way the CLI renders a file."""
    per_fact = {}
    for (fid, disease), (vd, cf, tv) in sorted(atomics.items()):
        per_fact.setdefault(fid, []).append(prog.propagation.DecisionEntry(disease, vd, cf, tv=tv))
    kb = prog.lattice.build_kb([prog.lattice.Fact(*f) for f in facts], per_fact)
    prio = prog.propagation.PriorityConfig(doc.glob, doc.scoped)
    kb = prog.propagation.propagate(kb, priorities=prio, external=external,
                                    alpha=doc.alpha, round2=round2)
    return prog.kbio.serialize_kb(kb)


def program_checks(prog, text):
    """The program's own audits, plus a byte-stable reload."""
    kb = prog.kbio.load_kb(text)
    problems = ["structure: %s" % p for p in prog.lattice.check_structure(kb)]
    approx = {d: prog.roughset.approximations(kb, d) for d in kb.diseases()}
    report = prog.metrics.check_properties(kb, approx)
    problems += ["property %s" % (f,) for f in report.failures]
    if prog.kbio.serialize_kb(kb) != text:
        problems.append("reload does not re-serialize byte for byte")
    return problems


def _succeeded(result):
    return [] if result.rc == 0 else ["exit %s" % (result.rc,)]


# --- build ------------------------------------------------------------------

# (order, documents, diseases); each document is built in both modes.  The
# counts put the median operation inside the order-8 group and the 90th
# percentile inside the order-10 group, not on a boundary between orders.  The
# second document of an order carries composite evidence.  Up to order 8
# the documents cycle through the gates; above, a gate would make the cost
# of a document depend on its values, so they are ungated.  Orders 10 and 11
# have one disease to keep a round short; order 11 holds the largest node
# store, which sets the workload's peak memory.
BUILD_PLAN = ((6, 2, 2), (7, 2, 2), (8, 4, 2), (9, 2, 2), (10, 2, 1), (11, 1, 1))


def build(prog, rng, work, root):
    w = Workload("build", 90)

    def add(doc, path, n, fixture=False):
        for round2 in (False, True):
            out = os.path.join(work, "%s.%s.kb" % (os.path.basename(path), "r2" if round2 else "ex"))

            def check(result, before, doc=doc, round2=round2):
                problems = _succeeded(result)
                if not problems:
                    problems = checks.check_build(doc, round2, result.text)
                    if fixture:
                        problems += checks.check_fixture(expected_lbp, round2, result.text)
                    if doc.composite_sets():
                        # nodes above composite evidence: the oracle has no
                        # merge step, so rebuild from oracle-resolved inputs
                        atomics, external = resolved_inputs(doc, round2)
                        problems += checks.check_same(
                            rebuild(prog, doc, round2, atomics, doc.facts, external),
                            result.text, "file against a rebuild")
                    problems += program_checks(prog, result.text)
                return problems
            w.ops.append(Op(["build", path, "-o", out] + (["--round2"] if round2 else []),
                            n, "build-" + ("round2" if round2 else "exact"), check, writes=out))

    add(fixture_document(), os.path.join(root, "src", "roughkb", "data", "low_back_pain.evd"),
        3, fixture=True)
    for n, count, diseases in BUILD_PLAN:
        for i in range(count):
            doc = gen.document(rng, n, diseases=diseases, composite=(i == 1),
                               alpha=gen.ALPHAS[(n + i) % len(gen.ALPHAS)] if n <= 8 else 0)
            add(doc, _write(os.path.join(work, "b%d_%d.evd" % (n, i)), doc.text()), n)
    return w


# --- rules ------------------------------------------------------------------

# (order, KB files): the median operation falls inside the order-8 group and
# the 90th percentile inside the order-9 group, which has ten files so that
# the percentile does not rest on the one or two costliest files of a seed.
RULES_PLAN = ((7, 6), (8, 10), (9, 10))
KINDS = ["--kinds", "certain,uncertain,possible", "--format", "records"]


def _screened_kb(rng, work, name, make, w, lo=0, hi=SCREEN_CAP):
    """Draw inputs until one's hardest region needs an exact cover whose
    Petrick product set peaks between ``lo`` and ``hi``.

    The screen is a property of the input alone (the benchmark's own
    product count), never a timing, so the same seed selects the same
    inputs on every version of the program.
    """
    while True:
        text = make(rng)
        n, regions = checks.region_sets(text)
        if lo <= max(checks.cover_work(r, n, hi) for r in regions) <= hi:
            return _write(os.path.join(work, name), text)
        w.screened_out += 1


def rules(prog, rng, work, root):
    w = Workload("rules", 90)
    scratch = os.path.join(work, "scratch")

    def built(make_doc, round2):
        def make(rng):
            _cli(prog, ["build", _write(scratch + ".evd", make_doc(rng).text()), "-o", scratch]
                 + (["--round2"] if round2 else []))
            with open(scratch, encoding="utf-8") as stream:
                return stream.read()
        return make

    def rules_op(path, n, fault=None):
        with open(path, encoding="utf-8") as stream:
            kb_text = stream.read()

        def check(result, before):
            return _succeeded(result) or checks.check_rules(kb_text, result.out)
        w.ops.append(Op(["rules", path] + KINDS, n, "rules", check, fault=fault))

    for n, count in RULES_PLAN:
        for i in range(count):
            round2 = bool(i % 2)
            make = built(lambda r, n=n, i=i: gen.document(r, n, diseases=2, composite=i >= 2, alpha=0),
                         round2)
            rules_op(_screened_kb(rng, work, "r%d_%d.kb" % (n, i), make, w), n)
    fixture = os.path.join(root, "src", "roughkb", "data", "low_back_pain.evd")
    for round2 in (False, True):
        path = os.path.join(work, "fixture.%s.kb" % ("r2" if round2 else "ex"))
        _cli(prog, ["build", fixture, "-o", path] + (["--round2"] if round2 else []))
        rules_op(path, 3, fault="F4")
    return w


# --- ragged -----------------------------------------------------------------

# (order, decision density, product peak band, count): every seed gets the
# same mix of small and large cyclic cores, all far under the budget.  The
# 90th percentile falls among the large order-6 and order-7 cores, which are
# many so that it does not rest on a few inputs of a seed.
RAGGED_PLAN = ((5, 1.0, 0, 250, 8), (6, 0.7, 0, 60, 16), (6, 0.7, 61, 250, 24),
               (7, 0.4, 0, 60, 12), (7, 0.4, 61, 250, 48))


def ragged(prog, rng, work, root):
    w = Workload("ragged", 90)

    def op(path, n, fault=None):
        with open(path, encoding="utf-8") as stream:
            kb_text = stream.read()

        def check(result, before):
            return _succeeded(result) or checks.check_rules(kb_text, result.out, best=n <= 5)
        w.ops.append(Op(["rules", path] + KINDS, n, "rules", check, fault=fault,
                        budget=RAGGED_BUDGET_S))

    for n, density, lo, hi, count in RAGGED_PLAN:
        for i in range(count):
            make = (lambda r, n=n, d=density: gen.ragged_kb(r, n, density=d))
            op(_screened_kb(rng, work, "g%d_%d_%d.kb" % (n, lo, i), make, w, lo, hi), n)
    # F1: a fully decided order-7 file whose exact cover never finishes
    probe = gen.ragged_kb(random.Random(PROBE_SEED), 7)
    op(_write(os.path.join(work, "probe7.kb"), probe), 7, fault="F1")
    return w


# --- edit -------------------------------------------------------------------

class Session:
    """One KB file and the edits made to it in order.

    Tracks the atomic decisions the file should hold after each edit, so
    that checks can rebuild the whole file from scratch.
    """

    def __init__(self, w, prog, work, name, doc, round2, fault=None):
        self.w, self.prog, self.doc, self.round2, self.fault = w, prog, doc, round2, fault
        self.n = doc.n
        self.path = os.path.join(work, name)
        evd = _write(self.path + ".evd", doc.text())
        _cli(prog, ["build", evd, "-o", self.path] + (["--round2"] if round2 else []))
        with open(self.path, encoding="utf-8") as stream:
            w.start_files[self.path] = stream.read()
        self.atomics, self.external = resolved_inputs(doc, round2)
        self.facts = list(doc.facts)

    def rebuild(self, atomics, facts):
        return rebuild(self.prog, self.doc, self.round2, atomics, facts, self.external)

    def add(self, argv, kind, check, order=None):
        self.w.ops.append(Op([argv[0], self.path] + argv[1:], order or self.n, kind, check,
                             writes=self.path, fault=self.fault))

    def set_level1(self, fid, disease, vd, cf):
        self.atomics[(fid, disease)] = (vd, Fraction(cf), None)
        atomics, facts = dict(self.atomics), list(self.facts)

        def check(result, before):
            return _succeeded(result) or checks.check_same(
                self.rebuild(atomics, facts), result.text, "file against a rebuild")
        self.add(["set-decision", "--label", checks.label_of({fid}, self.n), "--disease",
                  disease, "--vd", str(vd), "--cf", cf], "set-level1", check)

    def reassert(self, fid, disease):
        vd, cf, _ = self.atomics[(fid, disease)]
        atomics, facts = dict(self.atomics), list(self.facts)

        def check(result, before):
            return _succeeded(result) or (
                checks.check_same(before, result.text) +
                checks.check_same(self.rebuild(atomics, facts), result.text,
                                  "file against a rebuild"))
        self.add(["set-decision", "--label", checks.label_of({fid}, self.n), "--disease",
                  disease, "--vd", str(vd), "--cf", checks.render(cf, 2)], "no-op", check)

    def drop_level1(self, fid, disease):
        del self.atomics[(fid, disease)]
        atomics, facts = dict(self.atomics), list(self.facts)

        def check(result, before):
            return _succeeded(result) or checks.check_same(
                self.rebuild(atomics, facts), result.text, "file against a rebuild")
        self.add(["set-decision", "--label", checks.label_of({fid}, self.n), "--disease",
                  disease, "--drop"], "drop-level1", check)

    def insert_delete(self, decisions, rebuild):
        new = self.n + 1
        atomics = dict(self.atomics)
        for disease, vd, cf in decisions:
            atomics[(new, disease)] = (vd, Fraction(cf), None)
        facts = self.facts + [(new, "attr%d" % new, "value%d" % new)]
        state = {}

        def check_insert(result, before):
            state["before"] = before
            if result.rc != 0:
                return _succeeded(result)
            if rebuild:
                return checks.check_same(self.rebuild(atomics, facts), result.text,
                                         "file against a rebuild")
            return checks.check_grown(before, result.text)

        def check_delete(result, before):
            return _succeeded(result) or checks.check_same(
                state.get("before"), result.text, "file against the one before insert-fact")
        argv = ["insert-fact", "--attribute", "attr%d" % new, "--value", "value%d" % new]
        for disease, vd, cf in decisions:
            argv += ["--decision", disease, str(vd), cf]
        self.add(argv, "insert", check_insert)
        self.add(["delete-fact", "--fact", "f%d" % new], "delete", check_delete, order=new)

    def set_upper(self, label, disease, vd, cf):
        def check(result, before):
            return _succeeded(result) or checks.check_outside_cone(
                before, result.text, label, disease, vd,
                checks.render(Fraction(cf), 2 if self.round2 else 6))
        self.add(["set-decision", "--label", label, "--disease", disease,
                  "--vd", str(vd), "--cf", cf], "set-upper", check)


def _cf(rng):
    return "%d.%02d" % divmod(rng.randint(1, 100), 100)


def _upper_label(rng, n):
    return checks.label_of(set(rng.sample(range(1, n + 1), rng.randint(n - 3, n - 1))), n)


def _round2_session(s, rng):
    """Every edit kind on a round2 file; level-1 edits avoid facts that
    carry composite evidence, whose cones re-derive without it (F3)."""
    free = [f for f in range(4, s.n + 1)]
    fid = rng.choice(free)
    disease = rng.choice(s.doc.diseases)
    s.set_level1(fid, disease, rng.randrange(3), _cf(rng))
    s.reassert(fid, disease)
    dropped = [(f, d) for (f, d) in sorted(s.atomics) if f in free and f != fid]
    s.drop_level1(*rng.choice(dropped or [(fid, disease)]))
    s.insert_delete([(d, rng.randrange(3), _cf(rng)) for d in s.doc.diseases], rebuild=True)
    s.set_upper(_upper_label(rng, s.n), disease, rng.randrange(3), _cf(rng))


def _exact_session(s, rng):
    """Exact files: the edits whose result does not hinge on F2."""
    disease = rng.choice(s.doc.diseases)
    s.set_upper(_upper_label(rng, s.n), disease, rng.randrange(3), _cf(rng))
    s.insert_delete([(disease, rng.randrange(3), _cf(rng))], rebuild=False)


# (file, order, round2, composite evidence)
EDIT_PLAN = (("e8a", 8, True, False), ("e8b", 8, True, True), ("x9", 9, False, False))


def edit(prog, rng, work, root):
    w = Workload("edit", 90)
    for name, n, round2, composite in EDIT_PLAN:
        doc = gen.document(rng, n, diseases=2, composite=composite, alpha=0)
        s = Session(w, prog, work, name + ".kb", doc, round2)
        (_round2_session if round2 else _exact_session)(s, rng)

    probe = random.Random(PROBE_SEED)
    # F2: exact mode renders cf and tv at 6 decimals, so a level-1 edit
    # re-derives its cone from rounded values and differs from a rebuild;
    # the no-op re-assertion after it keeps that difference.
    doc = gen.document(probe, 8, diseases=2, composite=False, alpha=0)
    s = Session(w, prog, work, "p2.kb", doc, False, fault="F2")
    s.set_level1(5, doc.diseases[0], 1, "0.5")
    s.reassert(5, doc.diseases[0])
    s = Session(w, prog, work, "p2fix.kb", fixture_document(), False, fault="F2")
    s.set_level1(1, "PIVD", 0, "0.9")
    # F3: composite evidence is not stored, so a level-1 edit whose cone
    # holds a composite-evidence node re-derives that node without it.
    fixture = fixture_document()
    fixture.counts[((1, 2), "PIVD")] = {1: {1: 50}}
    s = Session(w, prog, work, "p3fix.kb", fixture, True, fault="F3")
    s.set_level1(1, "PIVD", 0, "1.00")
    doc = gen.document(probe, 8, diseases=2, composite=True, alpha=0)
    s = Session(w, prog, work, "p3.kb", doc, True, fault="F3")
    facts, disease = min(key for key in doc.counts if len(key[0]) > 1)
    s.set_level1(facts[0], disease, 1, "0.5")
    return w


WORKLOADS = {"build": build, "rules": rules, "edit": edit, "ragged": ragged}
