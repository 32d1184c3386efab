"""Feasibility checking and abstract-model refinement.

The initial cache state is unknown, so a classified trace is *feasible*
when some initial state reproduces its classifications exactly.  One
forward sweep from the unknown start, a walk of a ``cache.Sweep``, decides
that.  Infeasibility is monotone under extension: a state realizing a
window also realizes each of its infixes, from the cache it holds when
that infix begins.  So ``infeasible_core`` finds the shortest, then
leftmost, core by sweeping from each start until its set of states
empties.  All of its windows walk one ``Sweep``, and refinement keeps one
for its whole run, so no step is computed twice.

A realizing state is picked from a finite family of candidate initial
states: ordered arrangements (length <= capacity) of the trace's own
lines and unused filler lines, one per filler renaming.  Fillers never
hit and are interchangeable, and any other line behaves like a filler, so
the family decides feasibility too.  ``wcetbound feasibility`` walks it
for its verdict; refinement walks it only to report the final state.

Refinement starts from the universal model.  Each round asks one
question of the current worst witness: which core, if any, rules it out.
It removes that core's contains-infix closure with ``subtract``, which
builds the new model and no other automaton.  Any trace containing such
a core is infeasible regardless of its starting state (the cache is in
*some* state when the core begins), so removal is sound; the worst
witness is removed each round, so the finite trace language shrinks and
the loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cache import (
    CacheConfig,
    CacheState,
    ClassifiedTrace,
    Sweep,
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
    # The first candidate state that realizes the witness.
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
    """The deciding family: arrangements of trace lines and fillers, one
    per filler renaming.

    Fillers are the concrete unused ids ``fresh_base``, ``fresh_base + 1``,
    ... just above the trace's own lines, and a state holds them in that
    order, so every candidate is an ordinary state over the unrestricted
    universe.  Enumeration is lazy and deterministic: shortest states
    first, starting with the empty state, and each length in lexicographic
    order with trace lines in first-appearance order before any filler.
    That is the order of the plain walk over all permutations of the lines
    and *capacity* fillers, minus the states whose fillers are renamed, so
    the first state that realizes a trace is the same in both.
    """
    distinct = tuple(dict.fromkeys(lines))
    fresh_base = max(distinct, default=-1) + 1
    yield ()
    for k in range(1, capacity + 1):
        yield from _arrangements(distinct, fresh_base, k)


def _arrangements(
    distinct: tuple[int, ...], fresh_base: int, k: int
) -> Iterator[CacheState]:
    """The length-``k`` states of the family, in order, by a depth-first
    walk that keeps only the current prefix, so memory is O(k).  The walk
    is a loop, not a recursion, so no capacity meets the recursion limit.

    A pick is an index into ``distinct``, or ``len(distinct)`` for the
    next filler; the choices for the last slot are yielded in one batch.
    """
    d = len(distinct)
    singles = [(line,) for line in distinct]
    state: list[int] = []
    picks: list[int] = []
    used = [False] * d
    fillers = 0
    pick = 0  # the least pick to try for the next slot
    while True:
        if len(picks) < k - 1:
            while pick < d and used[pick]:
                pick += 1
            if pick <= d:
                picks.append(pick)
                if pick < d:
                    used[pick] = True
                    state.append(distinct[pick])
                else:
                    state.append(fresh_base + fillers)
                    fillers += 1
                pick = 0
                continue
        else:
            last = [singles[j] for j in range(d) if not used[j]]
            last.append((fresh_base + fillers,))
            yield from map(tuple(state).__add__, last)
        if not picks:
            return
        pick = picks.pop()
        state.pop()
        if pick < d:
            used[pick] = False
        else:
            fillers -= 1
        pick += 1


def is_feasible_from_some_state(
    trace: ClassifiedTrace, config: CacheConfig
) -> FeasibilityVerdict:
    """Search the candidate family, in order, for a state that realizes
    the trace."""
    lines = tuple(a.line for a in trace)
    for state in candidate_initial_states(lines, config.capacity):
        if realizable_from(state, trace, config):
            return FeasibilityVerdict(True, state)
    return FeasibilityVerdict(False, None)


def infeasible_core(
    trace: ClassifiedTrace, config: CacheConfig, sweep: Sweep | None = None
) -> ClassifiedTrace:
    """The minimal contiguous infix that is infeasible from every state,
    or ``()`` when some state realizes the whole trace.

    Returns the shortest such infix, leftmost on ties, so every proper
    infix of the result is feasible from some state.  The sweep from start
    0 decides the whole trace; each later start sweeps only the windows
    shorter than the best length so far.  Every window walks ``sweep``, a
    ``Sweep`` over ``config`` that a caller may keep across traces, or a
    fresh one.
    """
    if sweep is None:
        sweep = Sweep(config)
    best_len, best_start = sweep.infeasible_prefix(trace), 0
    if best_len is None:
        return ()
    for start in range(1, len(trace)):
        length = sweep.infeasible_prefix(trace[start : start + best_len - 1])
        if length is not None:
            best_len, best_start = length, start
    return trace[best_start : best_start + best_len]


def run_refinement(
    program: Program,
    config: CacheConfig,
    max_iters: int = 10_000,
) -> RefinementResult:
    """Iterate explore / check / exclude until the worst witness is real.

    Starts from the universal model.  Each round asks ``infeasible_core``
    once about the current model's worst witness, through the one
    ``Sweep`` the run keeps.  A witness with no core
    is feasible and exact (everything removed so far is infeasible from
    every state, so no feasible trace was ever excluded), and only then
    does the candidate family pick the state to report.  Otherwise the
    core's contains-infix closure joins the excluded language.  WCETs
    across rounds never increase because the allowed language only shrinks.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    model = hit_or_miss(program.lines(config))
    alphabet = model.alphabet
    log: list[RefinementStep] = []
    sweep = Sweep(config)
    for index in range(1, max_iters + 1):
        result = explore_abstract(program, model, config)
        witness = result.witness
        core = infeasible_core(witness, config, sweep) or None
        log.append(
            RefinementStep(
                index, result.wcet, witness, core is None, core, model.n_states
            )
        )
        if core is None:
            verdict = is_feasible_from_some_state(witness, config)
            assert verdict.feasible
            assert result.wcet == trace_time(witness, program.durations, config)
            return RefinementResult(
                result.wcet, witness, tuple(log), verdict.initial_state
            )
        # The core is matched by its (line, classification) symbols: cache
        # behaviour depends on lines only, not on which pc touched them.
        model = subtract(model, infix_language(core, alphabet))
    raise IterationBudgetExceeded(
        f"no feasible witness within {max_iters} iterations", log
    )
