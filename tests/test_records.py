"""The immutable value classes, and what importing the package loads."""

import copy
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import roughkb
from roughkb.evidence import EvidenceProfile, PresenceMatrix, TruthValue
from roughkb.kbio import EvidenceDocument, EvidenceRecord
from roughkb.lattice import ConditionEdit, DropDecision, Fact, SetDecision
from roughkb.metrics import PropertyReport, RuleMetrics
from roughkb.minimizer import MinimizedRule, SopExpression
from roughkb.propagation import PriorityConfig
from roughkb.roughset import ApproximationSets, ConceptPair

F = Fraction


class Case:
    """One value class: its fields in order, a sample's positional
    arguments, another value for the first field, the sample's text in the
    form a frozen ``dataclasses`` class prints, its defaults, and whether
    the sample hashes."""

    def __init__(self, cls, fields, args, other, text, defaults=None, hashes=True):
        self.cls, self.fields, self.args, self.other = cls, fields, args, other
        self.text, self.defaults, self.hashes = text, defaults or {}, hashes

    def make(self):
        return self.cls(*self.args)


CASES = [
    Case(EvidenceRecord, ("facts", "disease", "m", "level", "count"),
         ((1, 2), "ANK", 1, 3, 8), (3,),
         "EvidenceRecord(facts=(1, 2), disease='ANK', m=1, level=3, count=8)"),
    Case(EvidenceDocument, ("module", "q", "facts", "priorities", "records", "alpha"),
         ("lbp", 5, (Fact(1, "pain", "yes"),), PriorityConfig(),
          (EvidenceRecord((1,), "ANK", 1, 3, 8),)), "other",
         "EvidenceDocument(module='lbp', q=5, facts=(Fact(id=1, attribute='pain',"
         " value='yes'),), priorities=PriorityConfig(0 global, 0 scoped),"
         " records=(EvidenceRecord(facts=(1,), disease='ANK', m=1, level=3, count=8),),"
         " alpha=Fraction(0, 1))",
         defaults={"alpha": F(0)}, hashes=False),
    Case(EvidenceProfile, ("counts",), (((1, 0), (0, 2), (0, 0)),), ((0, 1), (0, 0), (3, 0)),
         "EvidenceProfile(counts=((1, 0), (0, 2), (0, 0)))"),
    Case(PresenceMatrix, ("rows",), (((True, False), (False, True), (False, False)),),
         ((False,), (True,), (True,)),
         "PresenceMatrix(rows=((True, False), (False, True), (False, False)))"),
    Case(Fact, ("id", "attribute", "value"), (1, "pain", "yes"), 2,
         "Fact(id=1, attribute='pain', value='yes')"),
    Case(ConditionEdit, ("attribute", "value"), (), "pain",
         "ConditionEdit(attribute=None, value=None)",
         defaults={"attribute": None, "value": None}),
    Case(SetDecision, ("disease", "vd", "cf", "tv"), ("ANK", 1, F(1, 2)), "BUR",
         "SetDecision(disease='ANK', vd=1, cf=Fraction(1, 2), tv=None)",
         defaults={"tv": None}),
    Case(DropDecision, ("disease",), ("ANK",), "BUR", "DropDecision(disease='ANK')"),
    Case(RuleMetrics, ("support", "strength", "certainty", "coverage"),
         (F(1), F(1, 2), F(1, 3), F(1, 4)), F(2),
         "RuleMetrics(support=Fraction(1, 1), strength=Fraction(1, 2),"
         " certainty=Fraction(1, 3), coverage=Fraction(1, 4))"),
    Case(PropertyReport, ("checked", "failures"), (3, ((1, "ANK", 1, "0.5 != 1.0"),)), 4,
         "PropertyReport(checked=3, failures=((1, 'ANK', 1, '0.5 != 1.0'),))"),
    Case(MinimizedRule,
         ("condition", "disease", "vd", "kind", "source_labels", "metrics"),
         (SopExpression(2, [{(1, True)}]), "ANK", TruthValue.PRESENT, "certain",
          frozenset({"01"})), SopExpression(2, [{(2, True)}]),
         "MinimizedRule(condition=SopExpression(n=2, f1), disease='ANK',"
         " vd=<TruthValue.PRESENT: 1>, kind='certain', source_labels=frozenset({'01'}),"
         " metrics=None)",
         defaults={"metrics": None}),
    Case(ConceptPair, ("disease", "concept1", "concept2"),
         ("ANK", frozenset({"01"}), frozenset()), "BUR",
         "ConceptPair(disease='ANK', concept1=frozenset({'01'}), concept2=frozenset())"),
    Case(ApproximationSets, ("lower1", "lower2", "boundary1"),
         (frozenset({"01"}), frozenset(), frozenset({"11"})), frozenset(),
         "ApproximationSets(lower1=frozenset({'01'}), lower2=frozenset(),"
         " boundary1=frozenset({'11'}))"),
]

by_class = pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)


@by_class
def test_records_compare_and_hash_by_their_fields(case):
    one, two = case.make(), case.make()
    assert one == two and not one != two
    assert one != one.replace(**{case.fields[0]: case.other})
    assert one != tuple(getattr(one, name) for name in case.fields)
    assert all(one != other.make() for other in CASES if other is not case)
    if case.hashes:
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
    else:
        with pytest.raises(TypeError):
            hash(one)


@by_class
def test_records_print_as_their_dataclass_form_did(case):
    assert repr(case.make()) == case.text


@by_class
def test_records_refuse_assignment_and_deletion(case):
    record = case.make()
    for name in case.fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == case.make()


@by_class
def test_record_replace_changes_only_the_named_fields(case):
    record = case.make()
    assert record.replace() == record
    changed = record.replace(**{case.fields[0]: case.other})
    assert getattr(changed, case.fields[0]) == case.other
    for name in case.fields[1:]:
        assert getattr(changed, name) is getattr(record, name)
    assert record == case.make()
    with pytest.raises(TypeError):
        record.replace(unknown=1)


@by_class
def test_records_build_by_position_keyword_and_default(case):
    record = case.make()
    values = dict(zip(case.fields, case.args))
    assert case.cls(**values) == record
    assert {name: getattr(record, name) for name in case.fields} == {**values, **case.defaults}
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    required = len(case.fields) - len(case.defaults)
    if required:
        with pytest.raises(TypeError):
            case.cls(*case.args[:required - 1])
    with pytest.raises(TypeError):
        case.cls(*case.args, unknown=1)
    with pytest.raises(TypeError):
        case.cls(*case.args, *[None] * (len(case.fields) - len(case.args) + 1))


def test_an_unhashable_field_makes_a_record_unhashable():
    with pytest.raises(TypeError):
        hash(SetDecision("ANK", 1, F(1, 2), tv=[F(1, 2), F(1, 4), F(1, 4)]))


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site hooks, so only the package's own imports count; -B:
    # no bytecode files written.  ``heapq`` is left to the greedy cover.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import roughkb;"
            " print(sorted({'dataclasses', 'heapq', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughkb.__file__)))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
