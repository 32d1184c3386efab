"""Worst-case execution-time bounds for abstract binary programs on an
instruction-cache + pipeline timing model.

Three analyses over the same program automata:
  * explicit  - exhaustive product exploration from a known initial cache,
  * abstract  - exploration against a classifier-automaton cache model,
  * refine    - automatic model refinement for an unknown initial cache.
"""

from .cache import (
    CacheConfig,
    CacheState,
    Classification,
    ClassifiedAccess,
    ClassifiedTrace,
    ReplacementPolicy,
    access,
    simulate,
    validate_state,
)
from .classifier import (
    AccessSymbol,
    ClassifierAutomaton,
    complement,
    from_pattern,
    full_alphabet,
    hit_or_miss,
    infix_language,
    intersect,
    minimize,
    parse_model,
    subtract,
)
from .errors import (
    AbstractModelEmpty,
    AlphabetMismatch,
    AnalysisError,
    BoundExceeded,
    IterationBudgetExceeded,
    ParseError,
    PatternParseError,
    UnknownInstruction,
    ValidationError,
)
from .explorer import ExplorationResult, explore_abstract, explore_explicit
from .program import (
    Edge,
    Program,
    branching_loop_program,
    ensure_bounded,
    parse_program,
    serialize_program,
)
from .refinement import (
    FeasibilityVerdict,
    RefinementResult,
    RefinementStep,
    infeasible_core,
    is_feasible_from_some_state,
    realizable_from,
    run_refinement,
)
from .timing import StepCost, step_cost, trace_time

__version__ = "0.1.0"

__all__ = [
    "AbstractModelEmpty",
    "AccessSymbol",
    "AlphabetMismatch",
    "AnalysisError",
    "BoundExceeded",
    "CacheConfig",
    "CacheState",
    "Classification",
    "ClassifiedAccess",
    "ClassifiedTrace",
    "ClassifierAutomaton",
    "Edge",
    "ExplorationResult",
    "FeasibilityVerdict",
    "IterationBudgetExceeded",
    "ParseError",
    "PatternParseError",
    "Program",
    "RefinementResult",
    "RefinementStep",
    "ReplacementPolicy",
    "StepCost",
    "UnknownInstruction",
    "ValidationError",
    "access",
    "branching_loop_program",
    "complement",
    "ensure_bounded",
    "explore_abstract",
    "explore_explicit",
    "from_pattern",
    "full_alphabet",
    "hit_or_miss",
    "infeasible_core",
    "infix_language",
    "intersect",
    "is_feasible_from_some_state",
    "minimize",
    "parse_model",
    "parse_program",
    "realizable_from",
    "run_refinement",
    "serialize_program",
    "simulate",
    "step_cost",
    "subtract",
    "trace_time",
    "validate_state",
]
