"""Worst-case exploration of the program x cache-model product.

Both modes walk the acyclic product of program locations with a cache
component: a concrete cache state, or a model state that steps only along
the choices of the model's prefix lens (``ClassifierAutomaton.lens``).
They compute, per product state, the maximal residual time to the end
location plus the witness trace attaining it.  Since the residual depends
only on the product state, states differing in accumulated clock merge,
which is what keeps counts far below the run count.

The walk is one memoized post-order over a plain stack of product states,
each an int: ``component id * n + location``, where the locations are the
n numbers of ``ensure_bounded``'s graph and component ids count the
components in the order the walk meets them.  A state is expanded when it
is first popped: it pushes its own complement (``~state``), then its
successors that are not yet memoized.  Popping the complement, once they
are all memoized, combines the state from their entries; a state with
none to push is combined at once.  A state pushed twice is skipped once
memoized.

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

Each analysis keeps one cache of moves per (component, pc), in both modes:
the (step, cost, next component) of each outcome of that access, shared
by every product state and edge with that pair.  A move is built once
from the outcomes of its (component, line), which are asked for once, so
``explore_explicit`` steps each distinct (cache state, line) through
``access`` once per analysis, and ``explore_abstract`` asks its lens once
per (model state, line).  The step of one (pc, classification) and its
cost are built once and shared by all moves.
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
    graph = ensure_bounded(program)
    n = len(graph)  # the end is location 0 and the entry location n - 1
    durations = program.durations
    comps = [start]  # component id -> component
    ids = {start: 0}
    # Per component id, pc -> ((step, cost, next component id), ...).
    moves: list[dict[int, tuple]] = [{}]
    choices: dict = {}  # (component id, line) -> ((cls, next component id), ...)
    steps: dict = {}  # (pc, cls) -> (ClassifiedAccess, cost)

    def moves_of(cid: int, pc: int) -> tuple:
        line = config.line_of(pc)
        outs = choices.get((cid, line))
        if outs is None:
            outs = choices[cid, line] = []
            for cls, after in outcomes(comps[cid], line):
                nid = ids.get(after)
                if nid is None:
                    nid = ids[after] = len(comps)
                    comps.append(after)
                    moves.append({})
                outs.append((cls, nid))
        made = []
        for cls, nid in outs:
            step = steps.get((pc, cls))
            if step is None:
                step = steps[pc, cls] = (
                    ClassifiedAccess(pc, line, cls),
                    step_cost(pc, cls, durations, config).total,
                )
            made.append((*step, nid))
        made = moves[cid][pc] = tuple(made)
        return made

    memo: dict[int, tuple | None] = {}
    root = n - 1  # component 0 at the entry
    stack = [root]
    while stack:
        key = stack.pop()
        if key >= 0:
            if key in memo:
                continue
            cid, loc = divmod(key, n)
            mine = moves[cid]
            stack.append(~key)
            depth = len(stack)
            for pc, dst in graph[loc]:
                made = mine.get(pc)
                if made is None:
                    made = moves_of(cid, pc)
                for _, _, nid in made:
                    nxt = nid * n + dst
                    if nxt not in memo:
                        stack.append(nxt)
            if len(stack) > depth:
                continue
            stack.pop()
        else:
            key = ~key
            cid, loc = divmod(key, n)
            mine = moves[cid]
        best = (0, None, None) if loc == 0 else None
        for pc, dst in graph[loc]:
            for step, cost, nid in mine[pc]:
                nxt = nid * n + dst
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
