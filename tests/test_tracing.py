"""The benchmark's layer tracer (``bench/tracing.py``) against the package.

The tracer wraps each layer's entry point under the name its caller
looks up.  A refactor that renames or bypasses one of those names
would silently read 0 for that layer; these tests catch it.
"""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import roughkb
from roughkb.lattice import Fact, Lattice, SetDecision, build_kb
from roughkb.propagation import DecisionEntry, propagate

F = Fraction


def _tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    missing = ["%s.%s" % (module.__name__, name)
               for module, name, _, _ in _tracing().entry_points(roughkb)
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_a_traced_edit_counts_its_cone():
    facts = [Fact(i, "a%d" % i, "yes") for i in (1, 2, 3)]
    kb = propagate(build_kb(facts, {1: [DecisionEntry("ANK", 1, F(1, 2))]}))
    tracer = _tracing().Tracer(roughkb)
    tracer.install()
    try:
        tracer.run(3, lambda: roughkb.kbio.modify_node(
            kb, "001", SetDecision("ANK", 0, F(1, 2))))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    # the cone of 001 is 011, 101 and 111
    assert tracer.counts["lattice.cone_nodes"] == 3
    assert tracer.counts["propagation.nodes_derived"] == 3
    assert [span[0] for span in tracer.spans] == ["cli", "lattice.edit",
                                                  "propagation.derive"]


def test_the_wrapped_names_are_the_derivation_engine():
    """``kbio.propagate`` and ``lattice._repropagate`` are the names the
    tracer wraps; ``derive`` answers with one map per mask asked for,
    empty maps included, so ``propagation.nodes_derived`` counts what
    ``lattice.cone_nodes`` counts."""
    assert roughkb.kbio.propagate is roughkb.propagation.propagate
    assert roughkb.lattice._repropagate is roughkb.propagation.derive
    facts = [Fact(i, "a%d" % i, "yes") for i in (1, 2, 3)]
    kb = Lattice(facts, {0b001: {"ANK": DecisionEntry("ANK", 1, F(1, 10))}}, alpha=F(1, 2))
    masks = [0b011, 0b101, 0b110, 0b111]
    out = roughkb.propagation.derive(kb, masks)
    assert list(out) == masks
    assert out[0b110] == {} and out[0b111] == {}


def test_a_traced_rules_run_counts_its_primes_and_every_rule(tmp_path, capsys, kb_round2):
    """Regions reach the cover search through ``_prime_implicants`` and
    every rule through ``metrics.measure``, the names the tracer wraps;
    the regions come from ``kbio.approximations`` and the rules from
    ``kbio.generate_rules``, so both layers show time."""
    path = tmp_path / "round2.kb"
    path.write_text(roughkb.kbio.serialize_kb(kb_round2), encoding="utf-8")
    tracer = _tracing().Tracer(roughkb)
    tracer.install()
    try:
        status = tracer.run(kb_round2.n, lambda: roughkb.kbio.cli(
            ["rules", str(path), "--kinds", "certain,uncertain,possible"]))
    finally:
        tracer.uninstall()
    printed = capsys.readouterr().out.splitlines()
    assert status == 0 and tracer.missing == []
    assert printed and all(line.startswith("Rule ") for line in printed)
    assert tracer.counts["minimizer.primes"] > 0
    assert tracer.counts["metrics.rules_measured"] == len(printed)
    own = Counter()
    for span, seconds in zip(tracer.spans, tracer.self_times()):
        own[span[0]] += seconds
    assert own["roughset.approx"] > 0 and own["minimizer.minimize"] > 0
