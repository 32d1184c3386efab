"""Answer checks for the benchmark, independent of the package's search.

Worst-case times come from a forward max-clock sweep over (location,
cache) pairs in topological order, not from the explorer's memoized search
or the refinement loop.  Feasibility verdicts are checked by simulation
and by enumerating a wider family of initial caches than the package
uses.  The cache step is written out here again so that no check runs
through package code, except where a check is defined by package
functions: refine witnesses must also reproduce their time through
``wcetbound.simulate`` and ``wcetbound.trace_time``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from deck import Item, LoopProgram

HIT_TIME, MISS_TIME = 2, 20  # the CLI's --hit / --miss defaults


def step(state: tuple, line: int, capacity: int, policy: str):
    """One access: (next state, hit?).  Most recent line first."""
    if line in state:
        if policy == "promote":
            idx = state.index(line)
            return (line,) + state[:idx] + state[idx + 1:], True
        return state, True
    return ((line,) + state)[:capacity], False


def realizes(init, accesses, capacity: int, policy: str) -> bool:
    """Does a cache started in ``init`` classify (line, "H"|"M") pairs as given?"""
    state = tuple(init)
    for line, cls in accesses:
        state, hit = step(state, line, capacity, policy)
        if hit != (cls == "H"):
            return False
    return True


def _topological(program: LoopProgram):
    out = defaultdict(list)
    indegree = defaultdict(int)
    for src, pc, dst in program.edges():
        out[src].append((pc, dst))
        indegree[dst] += 1
    order, todo = [], [program.entry]
    while todo:
        loc = todo.pop()
        order.append(loc)
        for _, dst in out[loc]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                todo.append(dst)
    return order, out


def _canonical(state: tuple) -> tuple:
    """Rename filler lines (negative ids, never accessed) by order of
    appearance; states equal up to filler names behave identically."""
    names = iter(range(-1, -len(state) - 1, -1))
    return tuple(line if line > 0 else next(names) for line in state)


def sweep_wcet(program: LoopProgram, capacity: int, policy: str, inits) -> int:
    """Max end clock over every run and every initial cache in ``inits``."""
    durations = dict(program.durations)
    order, out = _topological(program)
    frontier = defaultdict(dict)
    for init in inits:
        frontier[program.entry][init] = 0
    for loc in order:
        here = frontier.pop(loc, {})
        if loc == program.end:
            return max(here.values())
        for cache, clock in here.items():
            for pc, dst in out[loc]:
                nxt, hit = step(cache, pc, capacity, policy)
                nxt = _canonical(nxt)
                cost = (HIT_TIME if hit else MISS_TIME) + durations[pc]
                best = frontier[dst]
                if best.get(nxt, -1) < clock + cost:
                    best[nxt] = clock + cost
    raise AssertionError("end location not reached")


def unknown_start_family(program: LoopProgram, capacity: int):
    """Every arrangement (length <= capacity) of the program's lines and
    ``capacity`` fillers, canonicalized: covers every initial cache."""
    lines = sorted({pc for _, pc, _ in program.edges()})
    universe = lines + [-(i + 1) for i in range(capacity)]
    return {
        _canonical(state)
        for k in range(capacity + 1)
        for state in itertools.permutations(universe, k)
    }


def parse_report(path) -> dict[str, list[dict[str, str]]]:
    """``--out`` records grouped by type: {type: [{key: value}, ...]}."""
    records: dict[str, list[dict[str, str]]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rtype, *fields = line.split()
            records[rtype].append(dict(f.split("=", 1) for f in fields))
    return records


def _state(token: str) -> tuple[int, ...]:
    return () if token == "empty" else tuple(int(t) for t in token.split(","))


def _check_witness(item: Item, result, steps, init, problems) -> list:
    """The witness is a run of the program, classifies as reported from
    ``init``, and its clock reaches the reported wcet.  Returns its pcs."""
    program = item.program
    durations = dict(program.durations)
    _, out = _topological(program)
    loc, state, clock = program.entry, tuple(init), 0
    pcs = []
    for rec in steps:
        pc = int(rec["pc"])
        nxt = [dst for p, dst in out[loc] if p == pc]
        if not nxt:
            problems.append(f"witness step {rec['idx']} pc={pc} is no edge of {loc}")
            return pcs
        loc = nxt[0]
        state, hit = step(state, pc, item.capacity, item.policy)
        if ("H" if hit else "M") != rec["cls"]:
            problems.append(f"witness step {rec['idx']} is not {rec['cls']} from {init}")
        clock += (HIT_TIME if hit else MISS_TIME) + durations[pc]
        pcs.append(pc)
    if loc != program.end:
        problems.append("witness does not reach the end location")
    if clock != int(result["wcet"]):
        problems.append(f"witness takes {clock} cycles, report says {result['wcet']}")
    return pcs


def check_loop(item: Item, report, expected_wcet: int, wb) -> list[str]:
    """Problems with an explicit or refine report; [] when it is right.
    ``wb`` is the imported ``wcetbound`` package."""
    problems: list[str] = []
    result = report["result"][0]
    if int(result["wcet"]) != expected_wcet:
        problems.append(f"wcet {result['wcet']} != oracle {expected_wcet}")
    steps = report.get("step", [])
    if int(result["witness_len"]) != len(steps):
        problems.append("witness_len disagrees with the step records")
    init = _state(result.get("witness_initial", "empty"))
    pcs = _check_witness(item, result, steps, init, problems)
    if "witness_initial" in result and not problems:
        config = wb.CacheConfig(capacity=item.capacity,
                                policy=wb.ReplacementPolicy(item.policy))
        trace = wb.simulate(config, init, pcs)
        if [a.cls.letter for a in trace] != [r["cls"] for r in steps]:
            problems.append("wcetbound.simulate does not reproduce the witness")
        if wb.trace_time(trace, dict(item.program.durations), config) != expected_wcet:
            problems.append("wcetbound.trace_time does not reproduce the wcet")
    return problems


def expected_wcet(item: Item) -> int:
    """The oracle answer for an explicit (empty start) or refine (unknown
    start) item, chosen by the item's arguments."""
    if item.argv[1] == "refine":
        inits = unknown_start_family(item.program, item.capacity)
    else:
        inits = [()]
    return sweep_wcet(item.program, item.capacity, item.policy, inits)


def _feasible(accesses, capacity: int, fillers: int):
    """A realizing initial cache from arrangements of the accesses' lines
    and ``fillers`` unused lines, or None."""
    lines = list(dict.fromkeys(line for line, _ in accesses))
    universe = lines + [-(i + 1) for i in range(fillers)]
    for k in range(capacity + 1):
        for state in itertools.permutations(universe, k):
            if realizes(state, accesses, capacity, "promote"):
                return state
    return None


def check_feasibility(item: Item, report) -> list[str]:
    """Problems with a feasibility report; [] when it is right."""
    verdict = report["verdict"][0]
    trace, cap = item.trace, item.capacity
    if verdict["feasible"] == "yes":
        if not realizes(_state(verdict["initial"]), trace, cap, "promote"):
            return [f"initial state {verdict['initial']} does not realize the trace"]
        return []
    core_rec = report["core"][0]
    start, length = int(core_rec["start"]), int(core_rec["length"])
    core = trace[start:start + length]
    symbols = ".".join(f"{line}:{cls}" for line, cls in core)
    if length < 1 or symbols != core_rec["symbols"]:
        return [f"core {core_rec['symbols']} is not the trace at {start}..{start + length - 1}"]
    problems = []
    # Two more fillers than the package's family: a wider enumeration.
    if _feasible(core, cap, cap + 2) is not None:
        problems.append(f"core {symbols} is feasible")
    for i in range(length):
        for j in range(i + 1, length + 1):
            if j - i < length and _feasible(core[i:j], cap, cap) is None:
                problems.append(f"proper infix {i}..{j - 1} of the core is infeasible")
    return problems
