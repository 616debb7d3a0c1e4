"""Shared fixtures and random-instance builders for the test suite.

The session-scoped fixtures build the bundled low-back-pain knowledge
base once per run (in both rounding modes).  The ``random_*`` helpers
produce seeded throwaway knowledge bases for oracle-equivalence and
invariant tests; they are plain functions, not fixtures, so tests can
control the seed and size per case.
"""

import random
from fractions import Fraction

import pytest

from roughkb import kbio, roughset
from roughkb.evidence import TruthTriple
from roughkb.lattice import Fact, build_kb
from roughkb.propagation import DecisionEntry, PriorityConfig, propagate

DISEASE_POOL = ("ANK", "BUR", "COX", "DDD", "EPL")


@pytest.fixture(scope="session")
def fixture_doc():
    return kbio.fixture_document()


@pytest.fixture(scope="session")
def kb_round2(fixture_doc):
    return kbio.build_from_document(fixture_doc, round2=True)


@pytest.fixture(scope="session")
def kb_exact(fixture_doc):
    return kbio.build_from_document(fixture_doc, round2=False)


@pytest.fixture(scope="session")
def approx_round2(kb_round2):
    return {d: roughset.approximations(kb_round2, d)
            for d in kb_round2.diseases()}


def random_atomics(rng, n, diseases, density=0.8):
    """Random per-fact decisions: {fid: {disease: (vd, cf)}}.

    Credibility factors are drawn on the 2-decimal grid so both
    rounding modes consume identical inputs.
    """
    atomics = {}
    for fid in range(1, n + 1):
        per = {}
        for disease in diseases:
            if rng.random() < density:
                per[disease] = (rng.choice((0, 1, 2)),
                                Fraction(rng.randint(1, 100), 100))
        if per:
            atomics[fid] = per
    if not atomics:  # do not hand back a vacuous knowledge base
        atomics[1] = {diseases[0]: (1, Fraction(1, 2))}
    return atomics


def entries_with_triples(rng, atomics):
    """Atomic entries {fid: [DecisionEntry]} for oracle-shaped atomics.

    Four in five carry a truth triple on the 2-decimal grid, so carriers
    mix entries with and without one.
    """
    def triple():
        a = rng.randint(0, 100)
        b = rng.randint(0, 100 - a)
        return TruthTriple(Fraction(a, 100), Fraction(b, 100), Fraction(100 - a - b, 100))

    return {fid: [DecisionEntry(d, vd, cf, tv=triple() if rng.random() < 0.8 else None)
                  for d, (vd, cf) in sorted(per.items())]
            for fid, per in atomics.items()}


def random_priorities(rng, n, diseases):
    """A PriorityConfig mixing global and scoped entries (maybe empty)."""
    glob = {}
    for disease in diseases:
        for fid in range(1, n + 1):
            if rng.random() < 0.3:
                glob[(disease, fid)] = rng.randint(1, 4)
    scoped = {}
    if n >= 2:
        for _ in range(rng.randrange(3)):
            size = rng.randint(2, n)
            facts = frozenset(rng.sample(range(1, n + 1), size))
            disease = rng.choice(diseases)
            scoped[(facts, disease)] = {f: rng.randint(1, 4) for f in facts}
    return PriorityConfig(glob, scoped)


def kb_from_atomics(atomics, n, priorities=None, alpha=0, round2=False):
    """Assemble and propagate a lattice from oracle-shaped atomics."""
    facts = [Fact(i, "a%d" % i, "yes") for i in range(1, n + 1)]
    per_fact = {
        fid: [DecisionEntry(d, vd, cf) for d, (vd, cf) in sorted(per.items())]
        for fid, per in atomics.items()
    }
    kb = build_kb(facts, per_fact)
    return propagate(kb, priorities=priorities, alpha=alpha, round2=round2)


def random_kb(rng, n, diseases=DISEASE_POOL[:3], alpha=0, round2=False,
              with_priorities=True, density=0.8):
    """(kb, atomics, priorities) for a seeded random knowledge base."""
    atomics = random_atomics(rng, n, diseases, density=density)
    priorities = (random_priorities(rng, n, diseases)
                  if with_priorities else PriorityConfig())
    kb = kb_from_atomics(atomics, n, priorities=priorities,
                         alpha=alpha, round2=round2)
    return kb, atomics, priorities


def seeded(seed):
    return random.Random(seed)


def run_edit_scripts(script_count, steps, seed0, order=4):
    """Drive random add/remove/change scripts, checking every step.

    Each script starts from a propagated random knowledge base, follows
    one disease, and mutates its label->vd map while maintaining the
    approximation sets incrementally.  After every step the incremental
    sets must equal an independent from-scratch rebuild.  Returns the
    set of (old, new) truth-value transitions exercised, so callers can
    assert full coverage of all six.
    """
    import oracles
    from roughkb.roughset import (ApproximationSets, approximations,
                                  on_decisions_added, on_decisions_removed,
                                  on_truth_changed)

    keys = ("lower1", "upper1", "boundary1", "lower2", "upper2", "boundary2")
    transitions = set()
    for script in range(script_count):
        rng = seeded(seed0 + script)
        kb, _, _ = random_kb(rng, order, diseases=DISEASE_POOL[:2],
                             round2=True)
        disease = rng.choice(kb.diseases())
        vd_map = {label: int(node.decisions[disease].vd)
                  for label, node in kb.nodes.items()
                  if disease in node.decisions}
        sets = approximations(kb, disease)
        labels = [label for label in kb.nodes if label != "0" * kb.n]
        for _ in range(steps):
            present = sorted(vd_map)
            absent = sorted(set(labels) - set(vd_map))
            roll = rng.random()
            if (roll < 0.3 and absent) or not present:
                label = rng.choice(absent)
                vd = rng.randrange(3)
                sets = on_decisions_added(sets, [(label, vd)])
                vd_map[label] = vd
            elif roll < 0.55:
                label = rng.choice(present)
                sets = on_decisions_removed(sets, [label])
                del vd_map[label]
            else:
                label = rng.choice(present)
                old = vd_map[label]
                new = rng.choice([v for v in (0, 1, 2) if v != old])
                sets = on_truth_changed(sets, label, old, new)
                vd_map[label] = new
                transitions.add((old, new))
            want = oracles.reference_approx(vd_map)
            got = {k: getattr(sets, k) for k in keys}
            assert got == want, "drift after %d scripts" % script
        assert sets == ApproximationSets.from_vd_map(vd_map)
    return transitions
