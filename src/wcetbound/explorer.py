"""Worst-case exploration of the program x cache-model product.

Both modes walk the acyclic product of program locations with a cache
component (a concrete cache state, or an abstract classifier state) and
compute, per product state, the maximal residual time to the end location
plus the witness trace attaining it.  Since the residual depends only on
the product state, states differing in accumulated clock merge, which is
what keeps counts far below the run count.

Determinism: edges are expanded in ascending (pc, destination) order and
ties between equal-time witnesses go to the lexicographically least trace
(per step: smaller pc first, Hit before Miss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .cache import (
    CacheConfig,
    CacheState,
    Classification,
    ClassifiedAccess,
    ClassifiedTrace,
    access,
    validate_state,
)
from .classifier import AccessSymbol, ClassifierAutomaton
from .errors import AbstractModelEmpty, AlphabetMismatch
from .program import Program, ensure_bounded
from .timing import step_cost


@dataclass(frozen=True)
class ExplorationResult:
    wcet: int
    witness: ClassifiedTrace
    states_explored: int
    mode: str


def _trace_key(trace: ClassifiedTrace) -> tuple[tuple[int, Classification], ...]:
    return tuple((a.pc, a.cls) for a in trace)


class _Frame:
    __slots__ = ("key", "succ", "idx", "best")

    def __init__(self, key):
        self.key = key
        self.succ = None
        self.idx = 0
        self.best = None


def _best_runs(
    start,
    end_loc: str,
    expand: Callable[[object], list[tuple[ClassifiedAccess, int, object]]],
) -> tuple[tuple[int, ClassifiedTrace] | None, int]:
    """Iterative memoized DFS over an acyclic product graph.

    Returns ((max residual time, lexicographically least witness), states
    expanded); the first component is None when no complete run exists
    from ``start``.
    """
    memo: dict = {}
    missing = object()
    stack = [_Frame(start)]
    while stack:
        frame = stack[-1]
        if frame.succ is None:
            if frame.key in memo:
                stack.pop()
                continue
            if frame.key[0] == end_loc:
                memo[frame.key] = (0, ())
                stack.pop()
                continue
            frame.succ = expand(frame.key)
        advanced = False
        while frame.idx < len(frame.succ):
            step, cost, nxt = frame.succ[frame.idx]
            sub = memo.get(nxt, missing)
            if sub is missing:
                stack.append(_Frame(nxt))
                advanced = True
                break
            frame.idx += 1
            if sub is None:
                continue
            cand = (cost + sub[0], (step,) + sub[1])
            best = frame.best
            if (
                best is None
                or cand[0] > best[0]
                or (cand[0] == best[0] and _trace_key(cand[1]) < _trace_key(best[1]))
            ):
                frame.best = cand
        if advanced:
            continue
        memo[frame.key] = frame.best
        stack.pop()
    return memo[start], len(memo)


def explore_explicit(
    program: Program,
    config: CacheConfig,
    init: CacheState = (),
    durations: Mapping[int, int] | None = None,
) -> ExplorationResult:
    """Exact WCET over all runs from a known initial cache state."""
    validate_state(init, config)
    edges = ensure_bounded(program)
    durs = program.durations if durations is None else durations

    def expand(key):
        loc, cache = key
        out = []
        for pc, dst in edges.get(loc, ()):
            line = config.line_of(pc)
            nxt_cache, cls = access(cache, line, config)
            cost = step_cost(pc, cls, durs, config).total
            out.append(
                (ClassifiedAccess(pc, line, cls), cost, (dst, nxt_cache))
            )
        return out

    best, states = _best_runs((program.entry, tuple(init)), program.end, expand)
    if best is None:
        # Unreachable: Program validation guarantees a nonempty language.
        raise AssertionError("validated program has no run")
    return ExplorationResult(best[0], best[1], states, "explicit")


def explore_abstract(
    program: Program,
    model: ClassifierAutomaton,
    config: CacheConfig,
    durations: Mapping[int, int] | None = None,
) -> ExplorationResult:
    """Exact WCET over all runs and all classifications the model allows.

    A classification choice is allowed when the automaton stays out of its
    dead region, so exploration steps only into live states; a run counts
    once it reaches the end location (still live by construction).
    """
    edges = ensure_bounded(program)
    durs = program.durations if durations is None else durations
    model_lines = {sym.line for sym in model.alphabet}
    missing = {config.line_of(pc) for pc in durs} - model_lines
    if missing:
        raise AlphabetMismatch(
            f"model alphabet lacks program lines {sorted(missing)}"
        )
    live = model.live_states()
    if model.initial not in live:
        raise AbstractModelEmpty("the model allows no trace at all")

    def expand(key):
        loc, q = key
        out = []
        for pc, dst in edges.get(loc, ()):
            line = config.line_of(pc)
            for cls in (Classification.HIT, Classification.MISS):
                nxt_q = model.transitions[q][AccessSymbol(line, cls)]
                if nxt_q not in live:
                    continue
                cost = step_cost(pc, cls, durs, config).total
                out.append(
                    (ClassifiedAccess(pc, line, cls), cost, (dst, nxt_q))
                )
        return out

    best, states = _best_runs(
        (program.entry, model.initial), program.end, expand
    )
    if best is None:
        raise AbstractModelEmpty(
            "the model allows no complete run of the program"
        )
    return ExplorationResult(best[0], best[1], states, "abstract")
