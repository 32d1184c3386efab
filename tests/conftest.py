"""Shared builders and brute-force oracles.

The oracles deliberately avoid the code paths they are used to check:
runs come from walking the raw edges of a program (``oracle_runs``), never
from the package's bounded adjacency; WCETs come from simulating each run,
never from the explorer's memoized search; unknown-initial-state results
come from enumerating candidate initial caches directly, never from the
refinement loop.  They share only the elementary cache step, which has its
own reference-walk oracle in test_cache.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from wcetbound import (
    CacheConfig,
    Classification,
    ClassifiedAccess,
    ClassifiedTrace,
    Program,
    ReplacementPolicy,
    access,
    simulate,
    trace_time,
)


def fork_program() -> tuple[Program, CacheConfig]:
    """Two runs, 1.2.3.6 and 1.4.5.6, on a cache too large to evict."""
    program = Program.build(
        "fork",
        "A",
        "E",
        [
            ("A", 1, "B"),
            ("B", 2, "C1"),
            ("C1", 3, "D"),
            ("B", 4, "C2"),
            ("C2", 5, "D"),
            ("D", 6, "E"),
        ],
        durations={1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1},
    )
    config = CacheConfig(capacity=8, line_size=1, hit_time=1, miss_time=10)
    return program, config


def chain_program(pcs, name="chain", durations=None) -> Program:
    edges = []
    for i, pc in enumerate(pcs):
        edges.append((f"L{i}", pc, f"L{i + 1}"))
    return Program.build(name, "L0", f"L{len(pcs)}", edges, durations)


def random_program(rng: random.Random, name: str = "rand") -> Program:
    """Small acyclic program: a chain with up to 3 branch points, pcs
    drawn with reuse from a small pool so caches actually interact."""
    pool = list(range(1, rng.randint(3, 6) + 1))
    counter = itertools.count()

    def new_loc() -> str:
        return f"L{next(counter)}"

    edges: list[tuple[str, int, str]] = []
    cur = new_loc()
    entry = cur
    branch_points = 0
    for _ in range(rng.randint(1, 3)):
        if branch_points < 3 and rng.random() < 0.6:
            branch_points += 1
            join = new_loc()
            for _ in range(rng.randint(2, 3)):
                prev = cur
                alt = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
                for i, pc in enumerate(alt):
                    nxt = join if i == len(alt) - 1 else new_loc()
                    edges.append((prev, pc, nxt))
                    prev = nxt
            cur = join
        else:
            for pc in (rng.choice(pool) for _ in range(rng.randint(1, 2))):
                nxt = new_loc()
                edges.append((cur, pc, nxt))
                cur = nxt
    used = sorted({pc for _, pc, _ in edges})
    durations = {pc: rng.randint(0, 3) for pc in used}
    return Program.build(name, entry, cur, edges, durations)


@st.composite
def same_pc_forks(draw) -> Program:
    """A chain of forks whose branches all open with the same pc."""
    fresh = itertools.count(1)
    edges, cur = [], "L0"
    for _ in range(draw(st.integers(1, 3))):
        join, first = f"L{next(fresh)}", draw(st.integers(1, 3))
        for _ in range(draw(st.integers(2, 3))):
            pcs = [first, *draw(st.lists(st.integers(1, 3), max_size=1))]
            prev = cur
            for i, pc in enumerate(pcs):
                nxt = join if i == len(pcs) - 1 else f"L{next(fresh)}"
                edges.append((prev, pc, nxt))
                prev = nxt
        cur = join
    durations = {pc: draw(st.integers(0, 2)) for pc in {pc for _, pc, _ in edges}}
    return Program.build("forks", "L0", cur, edges, durations)


def random_config(rng: random.Random) -> CacheConfig:
    hit = rng.randint(0, 3)
    return CacheConfig(
        capacity=rng.choice([1, 1, 2, 2, 3]),
        line_size=1,
        hit_time=hit,
        miss_time=hit + rng.randint(1, 10),
        policy=rng.choice(
            [ReplacementPolicy.PROMOTE_ON_HIT, ReplacementPolicy.PURE_FIFO]
        ),
    )


def oracle_runs(program: Program, max_len: int) -> list[tuple[int, ...]]:
    """The distinct pc sequences of the entry-to-end paths of at most
    ``max_len`` steps, sorted: a depth-first walk of every raw path."""
    out: dict[str, list] = {}
    for e in program.edges:
        out.setdefault(e.src, []).append(e)
    runs: set[tuple[int, ...]] = set()
    paths = [(program.entry, ())]
    while paths:
        loc, pcs = paths.pop()
        if loc == program.end:
            runs.add(pcs)
        if len(pcs) < max_len:
            paths.extend((e.dst, pcs + (e.pc,)) for e in out.get(loc, ()))
    return sorted(runs)


def oracle_candidate_states(lines, capacity):
    """Independent re-derivation of the deciding initial-state family."""
    distinct = []
    for line in lines:
        if line not in distinct:
            distinct.append(line)
    base = max(distinct, default=-1) + 1
    universe = distinct + [base + i for i in range(capacity)]
    for k in range(capacity + 1):
        yield from itertools.permutations(universe, k)


def oracle_realizes(initial, trace: ClassifiedTrace, config: CacheConfig) -> bool:
    state = tuple(initial)
    for a in trace:
        state, cls = access(state, a.line, config)
        if cls is not a.cls:
            return False
    return True


def oracle_feasible(trace: ClassifiedTrace, config: CacheConfig):
    """(feasible, witnessing state or None) by plain enumeration."""
    lines = [a.line for a in trace]
    for state in oracle_candidate_states(lines, config.capacity):
        if oracle_realizes(state, trace, config):
            return True, state
    return False, None


def oracle_explicit(program: Program, config: CacheConfig, init=(), max_len=64):
    """(wcet, witness): enumerate runs, simulate, take the max; ties go to
    the lexicographically least (pc, cls) sequence."""
    best = None
    for seq in oracle_runs(program, max_len):
        trace = simulate(config, init, seq)
        t = trace_time(trace, program.durations, config)
        cand_key = tuple((a.pc, a.cls) for a in trace)
        if (
            best is None
            or t > best[0]
            or (t == best[0] and cand_key < tuple((a.pc, a.cls) for a in best[1]))
        ):
            best = (t, trace)
    assert best is not None
    return best


def oracle_universal_model(program: Program, config: CacheConfig, max_len=64):
    """(wcet, witness) over every run and every hit/miss word, which is what
    the universal classifier allows; ties as in ``oracle_explicit``."""
    best = None
    for seq in oracle_runs(program, max_len):
        for word in itertools.product(Classification, repeat=len(seq)):
            trace = tuple(
                ClassifiedAccess(pc, config.line_of(pc), cls)
                for pc, cls in zip(seq, word)
            )
            t = trace_time(trace, program.durations, config)
            key = tuple(zip(seq, word))
            if best is None or t > best[0] or (t == best[0] and key < best[1]):
                best = (t, key, trace)
    assert best is not None
    return best[0], best[2]


def oracle_unknown_init(program: Program, config: CacheConfig, max_len=64):
    """Max time over runs and over the candidate initial-state family."""
    best = -1
    for seq in oracle_runs(program, max_len):
        lines = [config.line_of(pc) for pc in seq]
        for state in oracle_candidate_states(lines, config.capacity):
            trace = simulate(config, state, seq)
            t = trace_time(trace, program.durations, config)
            if t > best:
                best = t
    return best
