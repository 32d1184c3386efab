"""Worst-case exploration of the program x cache-model product.

Both modes walk the acyclic product of program locations with a cache
component: a concrete cache state, or a model state that steps only along
the choices of the model's prefix lens (``ClassifierAutomaton.lens``).
They compute, per product state, the maximal residual time to the end
location plus the witness trace attaining it.  Since the residual depends
only on the product state, states differing in accumulated clock merge,
which is what keeps counts far below the run count.

The walk is one memoized post-order over a plain stack of product states.
A state is expanded when it first reaches the top: its successor list waits
in ``pending`` and its successors that are not yet memoized go on the
stack.  Once they are all memoized it is back on top and is combined from
their entries.  A state pushed twice is skipped once memoized.

Memo format: a product state maps to ``(time, first step, next state)`` of
its best run, to ``(0, None, None)`` at the end location, or to None when
no complete run leaves it.  The witness is read off this chain once.

Determinism: an entry depends only on its successors' final entries, so
the order of the walk changes no answer.  Successors are combined in
ascending (pc, destination) order, and ties between equal-time witnesses
go to the lexicographically least trace (per step: smaller pc first, Hit
before Miss).  Equal first steps (one pc, two destinations) are settled by
walking both chains in lockstep to the first differing step, an end (the
shorter trace is less) or a merge (equal traces: the first combined
stays).

Each analysis builds the step of one (pc, classification) once, with its
cost, when the walk first meets it, and shares it among all product states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cache import (
    CacheConfig,
    CacheState,
    Classification,
    ClassifiedAccess,
    ClassifiedTrace,
    access,
    validate_state,
)
from .classifier import ClassifierAutomaton
from .errors import AbstractModelEmpty
from .program import Program, ensure_bounded
from .timing import step_cost


@dataclass(frozen=True)
class ExplorationResult:
    wcet: int
    witness: ClassifiedTrace
    states_explored: int


def _precedes(memo: dict, a: tuple, b: tuple) -> bool:
    """Is the run of memo entry ``a`` less than the equal-time run of ``b``?"""
    while True:
        sa, sb = a[1], b[1]
        if sa is None or sb is None:
            return sa is None and sb is not None
        if (sa.pc, sa.cls) != (sb.pc, sb.cls):
            return (sa.pc, sa.cls) < (sb.pc, sb.cls)
        if a[2] == b[2]:
            return False
        a, b = memo[a[2]], memo[b[2]]


def _best_runs(
    program: Program,
    config: CacheConfig,
    start,
    outcomes: Callable[[object, int], Iterable[tuple[Classification, object]]],
) -> tuple[tuple[int, ClassifiedTrace] | None, int]:
    """Memoized post-order from ``(program.entry, start)``.
    ``outcomes(component, line)`` lists the (classification, next component)
    choices of one access, Hit first.

    Returns ((max residual time, lexicographically least witness), states
    expanded); the first component is None when no complete run exists.
    """
    edges = ensure_bounded(program)
    durations = program.durations
    lines: dict[int, int] = {}  # pc -> line
    steps: dict = {}  # (pc, cls) -> (ClassifiedAccess, cost)
    memo: dict = {}
    pending: dict = {}
    root = (program.entry, start)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        succ = pending.pop(key, None)
        if succ is None:
            loc, comp = key
            succ = []
            depth = len(stack)
            for pc, dst in edges.get(loc, ()):
                line = lines.get(pc)
                if line is None:
                    line = lines[pc] = config.line_of(pc)
                for cls, after in outcomes(comp, line):
                    step = steps.get((pc, cls))
                    if step is None:
                        step = steps[pc, cls] = (
                            ClassifiedAccess(pc, line, cls),
                            step_cost(pc, cls, durations, config).total,
                        )
                    nxt = (dst, after)
                    succ.append((*step, nxt))
                    if nxt not in memo:
                        stack.append(nxt)
            if len(stack) > depth:
                pending[key] = succ
                continue
        stack.pop()
        best = (0, None, None) if key[0] == program.end else None
        for step, cost, nxt in succ:
            sub = memo[nxt]
            if sub is None:
                continue
            cand = (cost + sub[0], step, nxt)
            if (
                best is None
                or cand[0] > best[0]
                or (cand[0] == best[0] and _precedes(memo, cand, best))
            ):
                best = cand
        memo[key] = best
    best = entry = memo[root]
    if best is None:
        return None, len(memo)
    witness = []
    while entry[1] is not None:
        witness.append(entry[1])
        entry = memo[entry[2]]
    return (best[0], tuple(witness)), len(memo)


def explore_explicit(
    program: Program,
    config: CacheConfig,
    init: CacheState = (),
) -> ExplorationResult:
    """Exact WCET over all runs from a known initial cache state."""
    validate_state(init, config)

    def outcomes(cache, line):
        nxt, cls = access(cache, line, config)
        return ((cls, nxt),)

    best, states = _best_runs(program, config, tuple(init), outcomes)
    assert best is not None, "program validation guarantees a run"
    return ExplorationResult(best[0], best[1], states)


def explore_abstract(
    program: Program,
    model: ClassifierAutomaton,
    config: CacheConfig,
) -> ExplorationResult:
    """Exact WCET over all runs and all classifications the model allows:
    the complete runs along the choices of the model's prefix lens."""
    choices = model.lens(program.lines(config))
    best, states = _best_runs(program, config, model.initial, choices)
    if best is None:
        raise AbstractModelEmpty(
            "the model allows no complete run of the program"
        )
    return ExplorationResult(best[0], best[1], states)
