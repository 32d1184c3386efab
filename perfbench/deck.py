"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of item shapes, run as one *pass*.  The seed
draws everything else (durations, access orders, initial caches), so equal
seeds give byte-identical files and every pass of a workload does the same
kind and amount of work.  Shapes are fixed rather than drawn because the
cost of one item depends steeply on them (refinement rounds grow with loop
length, the feasibility enumeration with lines and capacity); drawing them
would make a run's figures depend more on the seed than on the code.

Files are written in the package's documented formats by this module alone,
without calling the package, so the inputs and the answer checks in
``oracle.py`` stay independent of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("refine", "explicit_deep", "feasibility")

# Times below are for Python 3.11 on a 2-CPU Linux container on a shared host.
# (policy, iterations, branches) at capacity 4.  With one branch, cost grows
# fast with iterations (2.6 s at 6, 3.4 s at 7, 8-10 s at 10); two branches
# stay under a second up to 10 iterations.  Fifo stops at 4 iterations with
# 2 branches: fifo with 1 branch takes 13 s at 4 iterations and 159 s at 6.
# The pass is kept near 13 s so that a run holds two or more passes, and
# its odd number of shapes puts the median item inside one shape's times.
REFINE_SHAPES = (
    ("promote", 6, 1), ("promote", 7, 1), ("promote", 6, 2),
    ("promote", 8, 2), ("promote", 10, 2), ("fifo", 3, 1), ("fifo", 4, 2),
)
REFINE_CAPACITY = 4
# (iterations, branches, capacity).  Two branches at capacity 3 is the
# costly corner (7.9 s at 800 iterations), so it appears once, at 600.  An
# odd number of shapes keeps the median item inside one shape's times.
EXPLICIT_SHAPES = (
    (600, 1, 2), (600, 2, 3), (700, 1, 3), (700, 2, 2), (800, 1, 2),
)
# (capacity, lines).  Feasible traces stop the search at the first
# realizing state and cost 6-12 ms.  Infeasible ones enumerate the whole
# family: 0.1-0.55 s at capacity 4 from 8 to 12 lines.  At capacity 5 they
# take 0.5-2.6 s with a wide spread from trace to trace, which made a run's
# figures depend on the seed, so capacity 5 appears in feasible traces
# only.  A pass has 6 feasible and 5 infeasible traces: the median item is
# then the costliest feasible shape, (5, 12), inside its own times, and the
# 12-line infeasible shape appears twice, so the tail item lies inside its
# times.
FEASIBLE_SHAPES = tuple((c, n) for c in (4, 5) for n in (8, 10, 12))
INFEASIBLE_SHAPES = ((4, 8), (4, 10), (4, 10), (4, 12), (4, 12))
TRACE_LENGTH = (30, 40)
# A feasible trace opens with this many hits (at most its capacity), so a
# realizing state holds its first FEASIBLE_WARM lines.  The package tries
# shorter states first and finds that state after a fixed number of
# candidates: 1.5 to 4.4 thousand for these shapes.  The early exit is then
# a real search, not lost under the CLI's argument parsing, and costs the
# same for every seed.
FEASIBLE_WARM = 4

# Tiny shapes for the self-tests: same code paths, well under a second each.
SMOKE = {
    "refine": (("promote", 3, 1), ("fifo", 2, 1)),
    "explicit_deep": ((20, 1, 2), (20, 2, 3)),
    "feasible": ((2, 4), (3, 5)),
    "infeasible": ((2, 4), (3, 5)),
}


@dataclass(frozen=True)
class LoopProgram:
    """The branching loop: each iteration runs pc 1 twice, one of the
    branch pcs 3..3+branches, then pc 2.  All branch pcs share one
    duration, so the seed moves the answers but not how many refinement
    rounds or explorer ties an item has."""

    iterations: int
    branches: int
    durations: tuple[tuple[int, int], ...]  # (pc, cycles), sorted by pc

    @property
    def entry(self) -> str:
        return "it0_a"

    @property
    def end(self) -> str:
        return "end"

    def edges(self) -> list[tuple[str, int, str]]:
        out = []
        for k in range(self.iterations):
            a, b, c, d = (f"it{k}_{s}" for s in "abcd")
            nxt = f"it{k + 1}_a" if k + 1 < self.iterations else "end"
            out.append((a, 1, b))
            out.append((b, 1, c))
            out.extend((c, 3 + j, d) for j in range(self.branches + 1))
            out.append((d, 2, nxt))
        return out

    def text(self, name: str) -> str:
        lines = [f"program {name}", f"entry {self.entry}", f"end {self.end}"]
        lines += [f"instr pc={pc} dur={dur}" for pc, dur in self.durations]
        lines += [f"edge {src} {dst} pc={pc}" for src, pc, dst in self.edges()]
        return "\n".join(lines) + "\n"


def _loop(rng: random.Random, iterations: int, branches: int) -> LoopProgram:
    head, tail, branch = (rng.randint(0, 4) for _ in range(3))
    durs = [(1, head), (2, tail)] + [(3 + j, branch) for j in range(branches + 1)]
    return LoopProgram(iterations, branches, tuple(durs))


@dataclass(frozen=True)
class Item:
    """One CLI invocation: its arguments, input and report paths, and what
    the answer check needs to know about the input."""

    ident: str
    argv: tuple[str, ...]
    input_path: Path
    report_path: Path
    text: str
    capacity: int
    policy: str
    program: LoopProgram | None = None
    trace: tuple[tuple[int, str], ...] | None = None  # (line, "H"|"M")

    def write(self) -> None:
        self.input_path.write_text(self.text, encoding="utf-8")


def _loop_item(ident, workdir, analysis, program, capacity, policy) -> Item:
    prog = workdir / f"{ident}.prog"
    out = workdir / f"{ident}.out"
    argv = ("wcet", analysis, str(prog), "--capacity", str(capacity),
            "--policy", policy, "--out", str(out))
    return Item(ident, argv, prog, out, program.text(ident), capacity,
                policy, program=program)


def _lru_trace(rng, capacity, n_lines, warm, flip):
    """Access every line once in random order, then random accesses up to
    a length in TRACE_LENGTH, classified by a promote (LRU) cache started
    with the first ``warm`` lines of that order, filled up with lines that
    the trace never touches.  With ``flip``, the first access after the
    opening permutation gets the wrong classification.  That access re-touches a
    line the trace has already touched, so under LRU its outcome follows
    from the trace alone and the flipped trace is infeasible from every
    initial cache."""
    lines = list(range(1, n_lines + 1))
    length = rng.randint(*TRACE_LENGTH)
    pcs = rng.sample(lines, n_lines) + [rng.choice(lines) for _ in range(length - n_lines)]
    state = pcs[:warm] + [100 + i for i in range(warm, capacity)]
    trace = []
    for line in pcs:
        hit = line in state
        if hit:
            state.remove(line)
        state = ([line] + state)[:capacity]
        trace.append((line, "H" if hit else "M"))
    if flip:
        line, cls = trace[n_lines]
        trace[n_lines] = (line, "M" if cls == "H" else "H")
    return tuple(trace)


def _trace_item(ident, workdir, rng, capacity, n_lines, feasible) -> Item:
    # A cold start makes the infeasible enumeration cost repeatable.
    warm = min(FEASIBLE_WARM, capacity) if feasible else 0
    trace = _lru_trace(rng, capacity, n_lines, warm, flip=not feasible)
    path = workdir / f"{ident}.trace"
    out = workdir / f"{ident}.out"
    text = "".join(f"pc={line} cls={cls}\n" for line, cls in trace)
    argv = ("feasibility", str(path), "--capacity", str(capacity), "--out", str(out))
    return Item(ident, argv, path, out, text, capacity, "promote", trace=trace)


def build_pass(workload: str, seed: int, index: int, workdir: Path,
               smoke: bool = False) -> list[Item]:
    """The items of pass ``index`` for ``seed``; nothing is written."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    prefix = f"p{index}_"
    items: list[Item] = []
    if workload == "refine":
        for i, (policy, iterations, branches) in enumerate(
            SMOKE["refine"] if smoke else REFINE_SHAPES
        ):
            program = _loop(rng, iterations, branches)
            items.append(_loop_item(f"{prefix}r{i}", workdir, "refine", program,
                                    REFINE_CAPACITY, policy))
    elif workload == "explicit_deep":
        for i, (iterations, branches, capacity) in enumerate(
            SMOKE["explicit_deep"] if smoke else EXPLICIT_SHAPES
        ):
            program = _loop(rng, iterations, branches)
            items.append(_loop_item(f"{prefix}e{i}", workdir, "explicit", program,
                                    capacity, "promote"))
    elif workload == "feasibility":
        feasible = SMOKE["feasible"] if smoke else FEASIBLE_SHAPES
        infeasible = SMOKE["infeasible"] if smoke else INFEASIBLE_SHAPES
        shapes = [("f", shape) for shape in feasible]
        # Alternate the two kinds, so that each samples the whole pass.
        for i, shape in enumerate(infeasible):
            shapes.insert(2 * i + 1, ("i", shape))
        for i, (kind, (capacity, n_lines)) in enumerate(shapes):
            items.append(_trace_item(f"{prefix}{kind}{i}", workdir, rng, capacity,
                                     n_lines, feasible=kind == "f"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
