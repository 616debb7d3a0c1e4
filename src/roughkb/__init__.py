"""Lattice knowledge bases with rough-set decision-rule induction.

The pipeline: per-source evidence counts resolve into ternary decisions
with credibility factors (``evidence``), a powerset lattice materializes
every fact combination (``lattice``) and derives composite decisions
bottom-up (``propagation``), rough approximation splits each disease
into certain/possible/boundary regions (``roughset``), which minimize
into ranked decision rules (``minimizer``, ``metrics``).  ``kbio``
handles file formats and the command line.
"""

from . import errors
from .evidence import (EvidenceProfile, PresenceMatrix, TruthTriple,
                       TruthValue, presence_matrix, resolve_decision,
                       truth_triple)
from .kbio import (EvidenceDocument, EvidenceRecord, build_from_document,
                   fixture_document, load_kb, parse_evidence, render_evidence,
                   serialize_kb)
from .lattice import (ConditionEdit, DropDecision, Fact, Lattice, LatticeNode,
                      SetDecision, build_kb, delete_fact, insert_fact,
                      modify_node)
from .metrics import PropertyReport, RuleMetrics, check_properties
from .minimizer import MinimizedRule, SopExpression, generate_rules, minimize
from .propagation import DecisionEntry, PriorityConfig, propagate
from .roughset import (ApproximationSets, ConceptPair, approximations,
                       concepts, on_decisions_added, on_decisions_removed,
                       on_truth_changed)

__version__ = "1.0.0"

__all__ = [
    "ApproximationSets", "ConceptPair", "ConditionEdit", "DecisionEntry",
    "DropDecision", "EvidenceDocument", "EvidenceProfile", "EvidenceRecord",
    "Fact", "Lattice", "LatticeNode", "MinimizedRule", "PresenceMatrix",
    "PriorityConfig", "PropertyReport", "RuleMetrics", "SetDecision",
    "SopExpression", "TruthTriple", "TruthValue",
    "approximations", "build_from_document", "build_kb", "check_properties",
    "concepts", "delete_fact", "errors", "fixture_document", "generate_rules", "insert_fact",
    "load_kb", "minimize", "modify_node", "on_decisions_added",
    "on_decisions_removed", "on_truth_changed", "parse_evidence",
    "presence_matrix", "propagate", "render_evidence",
    "resolve_decision", "serialize_kb", "truth_triple",
    "__version__",
]
