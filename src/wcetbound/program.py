"""Programs as finite automata over program-counter values.

A program is a set of locations with labelled edges; each edge executes one
instruction (identified by its pc).  A run is the pc sequence along a path
from the entry location to the end location.  Loop counters are part of the
location identity, so bounded loops appear unrolled and the automaton of a
bounded program is acyclic.

One cached walk per ``Program`` instance, a post-order from the entry over
the locations that can reach the end, finds any cycle there and the longest
run; ``ensure_bounded``, ``longest_run`` and ``single_run`` read its result.

Also provides the parametric branching-loop generator used throughout the
test corpus, and the text file format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .cache import CacheConfig
from .errors import BoundExceeded, ParseError, ValidationError, token_lines

Adjacency = dict[str, tuple[tuple[int, str], ...]]


class Edge(NamedTuple):
    src: str
    pc: int
    dst: str

    def __str__(self) -> str:
        return f"edge {self.src} {self.dst} pc={self.pc}"


@dataclass(frozen=True, eq=True)
class Program:
    name: str
    entry: str
    end: str
    edges: tuple[Edge, ...]
    # Left out of the hash because a dict is unhashable; equal programs
    # still hash equally.
    durations: dict[int, int] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        self._validate()

    @classmethod
    def build(
        cls,
        name: str,
        entry: str,
        end: str,
        edges: Iterable[tuple[str, int, str] | Edge],
        durations: Mapping[int, int] | None = None,
    ) -> "Program":
        """Canonical constructor: sorts and dedupes edges, and defaults
        every unlisted pc duration to 1."""
        canon = tuple(sorted({Edge(*e) for e in edges}))
        durs = {e.pc: 1 for e in canon}
        if durations:
            for pc, dur in durations.items():
                if pc not in durs:
                    raise ValidationError(
                        f"duration given for pc={pc}, which no edge executes"
                    )
                durs[pc] = dur
        return cls(name, entry, end, canon, dict(sorted(durs.items())))

    @property
    def locations(self) -> frozenset[str]:
        """The entry, the end and every edge's endpoints."""
        ends = ((e.src, e.dst) for e in self.edges)
        return frozenset({self.entry, self.end}.union(*ends))

    def _validate(self) -> None:
        if not self.name:
            raise ValidationError("program name must be nonempty")
        succ: dict[str, list[str]] = {}
        for e in self.edges:
            if e.pc < 1:
                raise ValidationError(f"{e}: pc must be >= 1, got {e.pc}")
            if e.src == self.end:
                raise ValidationError(
                    f"end location {self.end!r} must have no outgoing edges"
                )
            if e.pc not in self.durations:
                raise ValidationError(f"{e}: pc={e.pc} has no duration")
            succ.setdefault(e.src, []).append(e.dst)
        for pc, dur in self.durations.items():
            if dur < 0:
                raise ValidationError(f"duration for pc={pc} must be >= 0")
        missing = self.locations - _reach(self.entry, succ)
        if missing:
            raise ValidationError(
                f"locations unreachable from entry: {sorted(missing)}"
            )

    def lines(self, config: CacheConfig) -> tuple[int, ...]:
        return tuple(sorted({config.line_of(pc) for pc in self.durations}))

    @cached_property
    def _walk(self) -> tuple[Adjacency, int]:
        """The work of ``ensure_bounded``: the adjacency and the longest
        run, kept with the instance so its lifetime is the program's.

        One post-order over a plain stack from the entry: a location is
        opened when it first reaches the top, which pushes its successors,
        and closed when it is back on top, which records its longest run
        from theirs.  The open locations are the current path from the
        entry, so an edge into one closes a cycle.  A location pushed twice
        is skipped once it is closed.  Validation makes every location
        reachable from the entry, so the walk meets every location that can
        reach the end, and anything on a cycle with such a location can
        reach the end too.
        """
        co = co_reachable(self)
        out: dict[str, list[tuple[int, str]]] = {}
        for e in self.edges:
            if e.src in co and e.dst in co:
                out.setdefault(e.src, []).append((e.pc, e.dst))
        adjacency = {loc: tuple(sorted(pairs)) for loc, pairs in out.items()}

        longest: dict[str, int] = {}
        opened: set[str] = set()
        stack = [self.entry]
        while stack:
            loc = stack[-1]
            if loc in longest:
                stack.pop()
            elif loc in opened:
                stack.pop()
                opened.remove(loc)
                longest[loc] = max(
                    (1 + longest[dst] for _, dst in adjacency.get(loc, ())),
                    default=0,
                )
            else:
                opened.add(loc)
                for _, dst in adjacency.get(loc, ()):
                    if dst in opened:
                        raise BoundExceeded(
                            f"cycle through location {dst!r} reaches the end: "
                            "run lengths are unbounded"
                        )
                    if dst not in longest:
                        stack.append(dst)
        return adjacency, longest[self.entry]


def _reach(start: str, step: Mapping[str, list[str]]) -> set[str]:
    """Every location reachable from ``start`` along ``step`` (start included)."""
    seen = {start}
    todo = [start]
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def co_reachable(program: Program) -> frozenset[str]:
    """Locations from which the end location is reachable (end included)."""
    pred: dict[str, list[str]] = {}
    for e in program.edges:
        pred.setdefault(e.dst, []).append(e.src)
    return frozenset(_reach(program.end, pred))


def ensure_bounded(program: Program) -> Adjacency:
    """Check that the run set is finite; returns the co-reachable adjacency.

    The adjacency maps each location that can reach the end, other than the
    end itself, to its sorted (pc, destination) edges into such locations.
    A cycle among those locations raises BoundExceeded naming the first
    location that the walk from the entry re-enters.  The walk (see
    ``Program._walk``) runs once per program instance and also records the
    longest run; later calls return the same adjacency, which callers must
    not mutate.
    """
    return program._walk[0]


def longest_run(program: Program) -> int:
    """Length of the longest entry-to-end run, from ``ensure_bounded``'s walk."""
    return program._walk[1]


def single_run(program: Program) -> tuple[int, ...] | None:
    """The program's only run, or None if it has several.  Walks the set of
    locations the run so far reaches along ``ensure_bounded``'s adjacency;
    a second pc out of that set, or a step on past the end, is a second run."""
    adjacency = ensure_bounded(program)
    run: list[int] = []
    here = {program.entry}
    while True:
        steps = {step for loc in here for step in adjacency.get(loc, ())}
        if not steps:
            return tuple(run)
        if program.end in here or len({pc for pc, _ in steps}) > 1:
            return None
        run.append(next(iter(steps))[0])
        here = {dst for _, dst in steps}


def branching_loop_program(
    iterations: int,
    branches: int,
    durations: Mapping[int, int] | None = None,
    name: str = "branching-loop",
) -> Program:
    """Bounded loop whose body picks one of ``branches``+1 instructions.

    Each of the ``iterations`` unrolled iterations executes the head pc 1
    twice, then one nondeterministically chosen branch pc from
    3..3+branches, then the shared tail pc 2.  Executing the head twice
    makes every iteration classify as Miss,Hit,Miss,Miss on a capacity-2
    cache with one line per pc, from the empty state onwards: the second
    head access always hits, and the tail of the previous iteration plus
    its branch are exactly what the two-slot cache holds when the next
    iteration begins.

    Runs: (branches+1)**iterations, all of length 4*iterations.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    if branches < 0:
        raise ValidationError(f"branches must be >= 0, got {branches}")
    edges: list[tuple[str, int, str]] = []
    for k in range(iterations):
        a, b, c, d = (f"it{k}_{s}" for s in "abcd")
        nxt = f"it{k + 1}_a" if k + 1 < iterations else "end"
        edges.append((a, 1, b))
        edges.append((b, 1, c))
        for j in range(branches + 1):
            edges.append((c, 3 + j, d))
        edges.append((d, 2, nxt))
    return Program.build(name, "it0_a", "end", edges, durations)


def parse_program(text: str) -> Program:
    """Parse the program file format.

    Directives, one per line (``#`` starts a comment):
      program <name>
      entry <location>
      end <location>
      instr pc=<int> [dur=<int>]
      edge <from-location> <to-location> pc=<int>

    Durations default to 1 for any pc without an instr line.
    """
    # The once-only directives, in ``Program.build``'s argument order.
    once = {"program": "name", "entry": "location", "end": "location"}
    header: dict[str, str] = {}
    durations: dict[int, int] = {}
    instr_line: dict[int, int] = {}
    edges: list[tuple[str, int, str]] = []

    def kv(token: str, key: str, line_no: int) -> int:
        prefix = key + "="
        if not token.startswith(prefix):
            raise ParseError(f"expected {key}=<int>, got {token!r}", line_no)
        try:
            return int(token[len(prefix):])
        except ValueError:
            raise ParseError(f"expected integer after {prefix}", line_no) from None

    for line_no, (directive, *args) in token_lines(text):
        if directive in once:
            if directive in header:
                raise ParseError(f"duplicate {directive} directive", line_no)
            if len(args) != 1:
                raise ParseError(
                    f"{directive} takes exactly one {once[directive]}", line_no
                )
            header[directive] = args[0]
        elif directive == "instr":
            if not args or len(args) > 2:
                raise ParseError("instr takes pc=<int> [dur=<int>]", line_no)
            pc = kv(args[0], "pc", line_no)
            dur = kv(args[1], "dur", line_no) if len(args) == 2 else 1
            if pc in durations:
                raise ParseError(f"duplicate instr for pc={pc}", line_no)
            if dur < 0:
                raise ParseError(f"duration for pc={pc} must be >= 0", line_no)
            durations[pc] = dur
            instr_line[pc] = line_no
        elif directive == "edge":
            if len(args) != 3:
                raise ParseError(
                    "edge takes <from> <to> pc=<int>", line_no
                )
            pc = kv(args[2], "pc", line_no)
            edges.append((args[0], pc, args[1]))
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no)

    for directive in once:
        if directive not in header:
            raise ValidationError(f"missing {directive} directive")
    executed = {pc for _, pc, _ in edges}
    for pc, line_no in instr_line.items():
        if pc not in executed:
            raise ParseError(
                f"duration given for pc={pc}, which no edge executes", line_no
            )
    return Program.build(*(header[d] for d in once), edges, durations)


def serialize_program(program: Program) -> str:
    """Render a program in the file format; parse(serialize(p)) == p."""
    out = [
        f"program {program.name}",
        f"entry {program.entry}",
        f"end {program.end}",
    ]
    for pc, dur in sorted(program.durations.items()):
        out.append(f"instr pc={pc} dur={dur}")
    for e in program.edges:
        out.append(str(e))
    return "\n".join(out) + "\n"
