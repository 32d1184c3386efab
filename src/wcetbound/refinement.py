"""Feasibility checking and abstract-model refinement.

The initial cache state is unknown, so a classified trace is *feasible*
when some initial state reproduces its classifications exactly.  Because
the cache is deterministic, checking ranges over a finite family of
candidate initial states: ordered arrangements (length <= capacity) of the
trace's own lines plus capacity many unused filler lines.  Fillers never
hit on the trace's accesses and are interchangeable, and any line a state
could contain beyond the trace's lines behaves like a filler, so the
family decides feasibility over the unrestricted line universe.

Refinement starts from the universal model and repeatedly removes the
contains-infix closure of a minimal all-state-infeasible core of the
current worst witness.  Any trace containing such a core is infeasible
regardless of its starting state (the cache is in *some* state when the
core begins), so removal is sound; the worst witness is removed each
round, so the finite trace language shrinks and the loop terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .cache import (
    CacheConfig,
    CacheState,
    ClassifiedTrace,
    access,
)
from .classifier import hit_or_miss, infix_language, subtract
from .errors import IterationBudgetExceeded, ValidationError
from .explorer import explore_abstract
from .program import Program
from .timing import trace_time


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    initial_state: CacheState | None


@dataclass(frozen=True)
class RefinementStep:
    index: int
    wcet: int
    witness: ClassifiedTrace
    feasible: bool
    core: ClassifiedTrace | None
    model_states: int


@dataclass(frozen=True)
class RefinementResult:
    wcet: int
    witness: ClassifiedTrace
    log: tuple[RefinementStep, ...]
    # The state the final feasibility verdict found to realize the witness.
    initial_state: CacheState


def realizable_from(
    initial: CacheState, trace: ClassifiedTrace, config: CacheConfig
) -> bool:
    """Does simulating from ``initial`` reproduce the trace's outcomes?"""
    state = initial
    for a in trace:
        state, cls = access(state, a.line, config)
        if cls is not a.cls:
            return False
    return True


def candidate_initial_states(
    lines: tuple[int, ...], capacity: int
) -> Iterator[CacheState]:
    """The deciding family: arrangements of trace lines + fillers.

    Filler ids are concrete unused line ids just above the trace's own, so
    every candidate is an ordinary state over the unrestricted universe.
    Enumeration is deterministic, shortest states first, and starts with
    the empty state.
    """
    distinct: list[int] = []
    for line in lines:
        if line not in distinct:
            distinct.append(line)
    fresh_base = max(distinct, default=-1) + 1
    universe = distinct + [fresh_base + i for i in range(capacity)]
    for k in range(capacity + 1):
        yield from itertools.permutations(universe, k)


def is_feasible_from_some_state(
    trace: ClassifiedTrace, config: CacheConfig
) -> FeasibilityVerdict:
    """Search the candidate family for a state that realizes the trace."""
    lines = tuple(a.line for a in trace)
    for state in candidate_initial_states(lines, config.capacity):
        if realizable_from(state, trace, config):
            return FeasibilityVerdict(True, state)
    return FeasibilityVerdict(False, None)


def infeasible_core(
    trace: ClassifiedTrace, config: CacheConfig
) -> ClassifiedTrace:
    """Minimal contiguous infix that is infeasible from every state.

    Scans shortest infixes first, leftmost on ties, so every proper infix
    of the result is feasible from some state.  The whole trace qualifies
    whenever the precondition holds (the trace is realized by no state),
    so the scan always returns.
    """
    n = len(trace)
    for length in range(1, n + 1):
        for start in range(0, n - length + 1):
            infix = trace[start : start + length]
            if not is_feasible_from_some_state(infix, config).feasible:
                return infix
    raise ValidationError(
        "infeasible_core needs a trace no initial state realizes"
    )


def run_refinement(
    program: Program,
    config: CacheConfig,
    max_iters: int = 10_000,
) -> RefinementResult:
    """Iterate explore / check / exclude until the worst witness is real.

    Starts from the universal model.  Each round explores the current
    model's worst witness; a feasible witness is exact (everything removed
    so far is infeasible from every state, so no feasible trace was ever
    excluded).  An infeasible witness contributes its minimal core's
    contains-infix closure to the excluded language.  WCETs across rounds
    never increase because the allowed language only shrinks.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    model = hit_or_miss(program.lines(config))
    alphabet = model.alphabet
    log: list[RefinementStep] = []
    for index in range(1, max_iters + 1):
        result = explore_abstract(program, model, config)
        verdict = is_feasible_from_some_state(result.witness, config)
        if verdict.feasible:
            log.append(
                RefinementStep(
                    index, result.wcet, result.witness, True, None,
                    model.n_states,
                )
            )
            assert result.wcet == trace_time(result.witness, program.durations, config)
            return RefinementResult(
                result.wcet, result.witness, tuple(log), verdict.initial_state
            )
        core = infeasible_core(result.witness, config)
        log.append(
            RefinementStep(
                index, result.wcet, result.witness, False, core,
                model.n_states,
            )
        )
        # The core is matched by its (line, classification) symbols: cache
        # behaviour depends on lines only, not on which pc touched them.
        model = subtract(model, infix_language(core, alphabet))
    raise IterationBudgetExceeded(
        f"no feasible witness within {max_iters} iterations", log
    )
