"""Instruction-cache semantics, for concrete and symbolic states.

A cache state is an ordered tuple of distinct line identifiers, most
recently inserted (or promoted) first.  An access to a resident line is a
Hit; a non-resident line is a Miss and is inserted at the front, evicting
the last entry once the cache is full.  Two replacement flavours are
supported: PROMOTE_ON_HIT additionally moves a hit line to the front,
PURE_FIFO leaves the order untouched on hits.  ``access`` is the one
definition of these rules.

A *symbolic* state ``(known, floating)`` stands for the caches that an
unknown start state can lead to.  ``known`` is an ordinary state; the
``capacity - len(known)`` slots behind it are ``?``s, residents of the
start state that no access has moved.  They are never stored, so a fully
unknown cache is ``((), frozenset())``.  ``floating`` holds the lines a
fifo Hit found in some ``?`` without naming which (Grund and Reineke's
fifo phases); the other ``?``s hold lines not yet accessed.  ``symbolic_step``
steps a set of such states by one observed classification.  A known line
steps by ``access``, a floating one hits without moving, and any other
line seen before is not resident.  A Hit on an unseen line is in a ``?``:
under fifo it floats, while the floating set still fits the ``?``s, and
under promote it moves to the front.  A Miss that pushes out the last
``?`` branches: the slot held no floating line, when the rest still fit,
or it held floating line ``f``, for each ``f``.

A ``Sweep`` sweeps classified traces from the unknown start state, all
``?``s.  Every initial state is an assignment of distinct lines (or
never-accessed fillers) to the ``?``s, so a trace is feasible exactly when
its sweep keeps some state.  The sweep is an automaton over (line, cls)
symbols, built as traces ask for it, so traces that a caller sweeps with
one ``Sweep`` share every step they have in common; ``infeasible_prefix``
walks a fresh one.  Only this module builds or reads a symbolic state.

Instructions are identified by their pc; the cache works on lines, with
line = pc // line_size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import ValidationError


class Classification(enum.IntEnum):
    """Hit/miss outcome of a single access.  Orders HIT before MISS."""

    HIT = 0
    MISS = 1

    @property
    def letter(self) -> str:
        return "H" if self is Classification.HIT else "M"

    @classmethod
    def from_letter(cls, letter: str) -> "Classification":
        if letter == "H":
            return cls.HIT
        if letter == "M":
            return cls.MISS
        raise ValueError(f"classification letter must be H or M, got {letter!r}")


class ReplacementPolicy(enum.Enum):
    PROMOTE_ON_HIT = "promote"
    PURE_FIFO = "fifo"


# Most recently inserted/promoted line first; last entry is the eviction
# candidate.
CacheState = tuple[int, ...]

# The known lines, most recent first, and the lines floating in the ``?``s.
SymbolicState = tuple[CacheState, frozenset[int]]


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry, per-access fetch costs, and replacement policy."""

    capacity: int = 2
    line_size: int = 1
    hit_time: int = 2
    miss_time: int = 20
    policy: ReplacementPolicy = ReplacementPolicy.PROMOTE_ON_HIT

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {self.capacity}")
        if self.line_size < 1:
            raise ValidationError(f"line_size must be >= 1, got {self.line_size}")
        if self.hit_time < 0 or self.miss_time < 0:
            raise ValidationError("hit_time and miss_time must be >= 0")
        if self.miss_time < self.hit_time:
            raise ValidationError(
                f"miss_time ({self.miss_time}) must be >= hit_time ({self.hit_time})"
            )
        if not isinstance(self.policy, ReplacementPolicy):
            raise ValidationError(f"unknown replacement policy {self.policy!r}")

    def line_of(self, pc: int) -> int:
        if pc < 1:
            raise ValidationError(f"pc must be >= 1, got {pc}")
        return pc // self.line_size


@dataclass(frozen=True)
class ClassifiedAccess:
    """One executed instruction together with its cache outcome."""

    pc: int
    line: int
    cls: Classification

    def __str__(self) -> str:
        return f"{self.pc}:{self.cls.letter}"


ClassifiedTrace = tuple[ClassifiedAccess, ...]


def access(
    state: CacheState, line: int, config: CacheConfig
) -> tuple[CacheState, Classification]:
    """Perform one access and return the successor state and outcome."""
    if line not in state:
        # Insert at front; the slice drops the eviction candidate when full.
        return (line,) + state[: config.capacity - 1], Classification.MISS
    if config.policy is ReplacementPolicy.PROMOTE_ON_HIT and state[0] != line:
        idx = state.index(line)
        return (line,) + state[:idx] + state[idx + 1 :], Classification.HIT
    return state, Classification.HIT


def symbolic_step(
    states: Iterable[SymbolicState],
    line: int,
    cls: Classification,
    seen: AbstractSet[int],
    config: CacheConfig,
) -> set[SymbolicState]:
    """The successors of ``states`` on which an access to ``line`` gives
    ``cls``; ``seen`` holds the lines accessed before this one."""
    fresh = line not in seen
    fifo = config.policy is ReplacementPolicy.PURE_FIFO
    successors: set[SymbolicState] = set()
    for known, floating in states:
        if line in floating:
            if cls is Classification.HIT:  # a fifo hit moves nothing
                successors.add((known, floating))
            continue
        nxt, got = access(known, line, config)
        gaps = config.capacity - len(known)  # the ``?``s
        if got is not cls:
            # Only a Hit that ``access`` missed can be right: on an unseen
            # line in a ``?``, while the floating set still fits them.
            if fresh and cls is Classification.HIT and len(floating) < gaps:
                successors.add(
                    (known, floating | {line}) if fifo else ((line,) + known, floating)
                )
        elif got is Classification.HIT or not gaps:
            successors.add((nxt, floating))
        else:  # the miss pushes out the last ``?``
            if len(floating) < gaps:
                successors.add((nxt, floating))
            successors.update((nxt, floating - {f}) for f in floating)
    return successors


class Sweep:
    """The sweep from the unknown start state as an automaton over (line,
    cls) symbols, built as traces ask for it and kept for as many traces
    as its owner sweeps.

    A node is a set of symbolic states with the lines seen so far; node 0
    is the unknown start, all ``?``s.  Each (node, symbol) step runs
    ``symbolic_step`` once, and a step that keeps no state leads to -1:
    every trace through it is infeasible.  Past ``BUDGET`` stored lines
    (counted as states times seen lines, which bounds them), the next walk
    starts a new automaton, so memory stays bounded where walks share no
    node, as at a capacity far above the trace length.
    """

    BUDGET = 1 << 20

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._forget()

    def _forget(self) -> None:
        start = (frozenset({((), frozenset())}), frozenset())
        self.nodes: list[tuple[frozenset[SymbolicState], frozenset[int]]] = [start]
        self._ids = {start: 0}
        # Per node, the symbol ``2 * line + cls`` -> the successor node.
        self._edges: list[dict[int, int]] = [{}]
        self._size = 0

    def infeasible_prefix(self, trace: ClassifiedTrace) -> int | None:
        """The length of the shortest prefix of ``trace`` that no initial
        state realizes, or None when the whole trace is feasible."""
        if self._size > self.BUDGET:
            self._forget()
        edges, node = self._edges, 0
        for length, a in enumerate(trace, 1):
            nxt = edges[node].get(2 * a.line + a.cls)
            if nxt is None:
                nxt = self._step(node, a.line, a.cls)
            if nxt < 0:
                return length
            node = nxt
        return None

    def _step(self, node: int, line: int, cls: Classification) -> int:
        states, seen = self.nodes[node]
        successors = symbolic_step(states, line, cls, seen, self.config)
        nxt = -1
        if successors:
            key = (frozenset(successors), seen if line in seen else seen | {line})
            nxt = self._ids.setdefault(key, len(self.nodes))
            if nxt == len(self.nodes):
                self.nodes.append(key)
                self._edges.append({})
                self._size += len(successors) * len(key[1])
        self._edges[node][2 * line + cls] = nxt
        return nxt


def infeasible_prefix(trace: ClassifiedTrace, config: CacheConfig) -> int | None:
    """The length of the shortest prefix of ``trace`` that no initial
    state realizes, or None when the whole trace is feasible: one walk of
    a fresh ``Sweep``."""
    return Sweep(config).infeasible_prefix(trace)


def validate_state(state: CacheState, config: CacheConfig) -> None:
    """Reject states that no reachable cache can be in."""
    if len(state) > config.capacity:
        raise ValidationError(
            f"cache state {state} exceeds capacity {config.capacity}"
        )
    if len(set(state)) != len(state):
        raise ValidationError(f"cache state {state} repeats a line")
    for line in state:
        if line < 0:
            raise ValidationError(f"line ids must be >= 0, got {line}")


def simulate(
    config: CacheConfig, init: CacheState, pcs: Iterable[int]
) -> ClassifiedTrace:
    """Classify a pc sequence starting from ``init``.

    Deterministic: the initial state and the pc sequence fix the trace.
    """
    validate_state(init, config)
    state = init
    out: list[ClassifiedAccess] = []
    for pc in pcs:
        line = config.line_of(pc)
        state, cls = access(state, line, config)
        out.append(ClassifiedAccess(pc, line, cls))
    return tuple(out)
