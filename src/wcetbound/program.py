"""Programs as finite automata over program-counter values.

A program is a set of locations with labelled edges; each edge executes one
instruction (identified by its pc).  A run is the pc sequence along a path
from the entry location to the end location.  Loop counters are part of the
location identity, so bounded loops appear unrolled and the automaton of a
bounded program is acyclic.

A ``Program`` keeps one successor map: each location's (pc, destination)
edges, without repeats, made from the edge lines ``parse_program`` reads
or the edges given to ``Program`` or ``Program.build``, with one string
per name.  Building it makes one walk over that map, a post-order
from the entry (``_walk``).  The walk checks that every location is
reachable, numbers the locations that can reach the end with ints, gives
their (pc, destination number) edges and longest runs, and detects a cycle
among them.  ``ensure_bounded``, ``longest_run`` and ``single_run`` read
its result; only a cycle's error message takes another pass, to name the
location.  ``Program.edges``, the sorted tuple of ``Edge``, is made from
the map on first use (a hash, ``serialize_program``, an error that
names an edge) and then kept; no analysis reads it.

Also provides the parametric branching-loop generator used throughout the
test corpus, and the text file format.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from typing import AbstractSet, Iterable, Mapping, NamedTuple

from .cache import CacheConfig
from .errors import BoundExceeded, ParseError, ValidationError, token_lines

# Per location number, its (pc, destination number) edges: see ensure_bounded.
Graph = tuple[tuple[tuple[int, int], ...], ...]
# Per location with edges, its (pc, destination) edges: see _successors.
Successors = dict[str, list[tuple[int, str]]]
# A character a name may not hold; ``\s`` matches what ``str.isspace`` does.
_NOT_IN_NAME = re.compile(r"[\s#]")


class Edge(NamedTuple):
    src: str
    pc: int
    dst: str

    def __str__(self) -> str:
        return f"edge {self.src} {self.dst} pc={self.pc}"


def _successors(edges: Iterable[tuple[str, int, str] | Edge]) -> Successors:
    """The successor map of ``edges``: each source location's (pc,
    destination) edges, without repeats and in (pc, destination) order.
    Only a location with more than one edge is sorted.  Each name is kept
    as one string, however often it occurs."""
    succ: Successors = {}
    shared = {}.setdefault
    for src, pc, dst in edges:
        out = succ.get(src)
        if out is None:
            succ[shared(src, src)] = [(pc, shared(dst, dst))]
        else:
            out.append((pc, shared(dst, dst)))
    return _deduped(succ)


def _deduped(succ: Successors) -> Successors:
    """Sorts and dedupes, in place, each list of ``succ`` that has more
    than one edge."""
    for src, out in succ.items():
        if len(out) > 1:
            succ[src] = sorted(set(out))
    return succ


def _pcs(succ: Successors) -> set[int]:
    return {pc for out in succ.values() for pc, _ in out}


class Program:
    """A program: its name, entry, end, successor map and pc durations.

    ``Program(name, entry, end, edges, durations)`` takes the durations as
    given; ``build`` defaults every pc to 1.  Both, and ``parse_program``,
    turn the edges into one successor map (see ``_successors``) and check
    and walk it once (``_setup``).  ``edges``, the canonical tuple, is
    made from the map on first use.  Immutable; programs with the same
    fields and the same set of edges are equal and hash equally, in
    whatever order and with whatever repeats the edges were given.
    """

    __slots__ = ("name", "entry", "end", "durations", "_succ", "_edges", "_walked")

    name: str
    entry: str
    end: str
    durations: dict[int, int]

    def __init__(
        self,
        name: str,
        entry: str,
        end: str,
        edges: Iterable[tuple[str, int, str] | Edge],
        durations: dict[int, int] | None = None,
    ) -> None:
        succ = _successors(edges)
        durations = {} if durations is None else durations
        self._setup(name, entry, end, succ, durations, _pcs(succ))

    @classmethod
    def build(
        cls,
        name: str,
        entry: str,
        end: str,
        edges: Iterable[tuple[str, int, str] | Edge],
        durations: Mapping[int, int] | None = None,
    ) -> "Program":
        """Canonical constructor: dedupes edges, and defaults every unlisted
        pc duration to 1."""
        succ = _successors(edges)
        return cls._defaulted(name, entry, end, succ, durations, _pcs(succ))

    @classmethod
    def _defaulted(
        cls,
        name: str,
        entry: str,
        end: str,
        succ: Successors,
        durations: Mapping[int, int] | None,
        pcs: set[int],
    ) -> "Program":
        """``build`` from a successor map and the set of its pcs."""
        durs = dict.fromkeys(sorted(pcs), 1)
        if durations:
            for pc, dur in durations.items():
                if pc not in durs:
                    raise ValidationError(
                        f"duration given for pc={pc}, which no edge executes"
                    )
                durs[pc] = dur
        program = cls.__new__(cls)
        program._setup(name, entry, end, succ, durs, pcs)
        return program

    def _setup(
        self,
        name: str,
        entry: str,
        end: str,
        succ: Successors,
        durations: dict[int, int],
        pcs: set[int],
    ) -> None:
        """Keep the fields, then check the program and walk its graph once
        (see ``_walk``); the instance keeps what ``ensure_bounded`` and
        ``longest_run`` read.  Every location must be reachable from the
        entry: the walk covers them all, so a location it does not reach
        is an error."""
        for attr, value in (
            ("name", name),
            ("entry", entry),
            ("end", end),
            ("durations", durations),
            ("_succ", succ),
            ("_edges", None),
        ):
            object.__setattr__(self, attr, value)
        # One test over every edge; only a failure scans the canonical
        # edges to name the first bad one.
        if end in succ or min(pcs, default=1) < 1 or not pcs <= durations.keys():
            for e in self.edges:
                if e.pc < 1:
                    raise ValidationError(f"{e}: pc must be >= 1, got {e.pc}")
                if e.src == end:
                    raise ValidationError(
                        f"end location {end!r} must have no outgoing edges"
                    )
                if e.pc not in durations:
                    raise ValidationError(f"{e}: pc={e.pc} has no duration")
        for pc, dur in durations.items():
            if dur < 0:
                raise ValidationError(f"duration for pc={pc} must be >= 0")
        seen, graph, runs, targets = _walk(entry, end, succ)
        # Every edge out of a reached location reaches its destination.
        if end not in seen or not succ.keys() <= seen.keys():
            locations = self.locations
            _check_names(name, locations)
            raise ValidationError(
                f"locations unreachable from entry: {sorted(locations - seen.keys())}"
            )
        _check_names(name, seen.keys())
        # A cycle reaches the end exactly when a back-edge target does (see
        # ``_walk``); the error names one only when it is raised.
        cycle = targets if any(seen[t] >= 0 for t in targets) else None
        object.__setattr__(self, "_walked", (tuple(graph), runs[-1], cycle))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge once, sorted by (src, pc, dst); made on first use."""
        edges = self._edges
        if edges is None:
            succ = self._succ
            edges = tuple(
                Edge(src, pc, dst) for src in sorted(succ) for pc, dst in succ[src]
            )
            object.__setattr__(self, "_edges", edges)
        return edges

    @property
    def locations(self) -> frozenset[str]:
        """The entry, the end and every edge's endpoints."""
        succ = self._succ
        dsts = (dst for out in succ.values() for _, dst in out)
        return frozenset({self.entry, self.end, *succ, *dsts})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal successor maps are equal canonical edge tuples.
        return (self.name, self.entry, self.end, self._succ, self.durations) == (
            other.name, other.entry, other.end, other._succ, other.durations
        )

    def __hash__(self) -> int:
        # The durations dict is unhashable and left out; equal programs
        # still hash equally.
        return hash((self.name, self.entry, self.end, self.edges))

    def __repr__(self) -> str:
        return (
            f"Program(name={self.name!r}, entry={self.entry!r}, end={self.end!r}, "
            f"edges={self.edges!r}, durations={self.durations!r})"
        )

    def __setattr__(self, attr: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def lines(self, config: CacheConfig) -> tuple[int, ...]:
        return tuple(sorted({config.line_of(pc) for pc in self.durations}))


def _check_names(name: str, locations: AbstractSet[str]) -> None:
    """The program name and the locations are tokens of the file format:
    nonempty, with no whitespace and no ``#``.  One join and one search
    check them all; only a failure scans them, to name the first bad one,
    the program name before the locations in sorted order."""
    if not name or "" in locations or _NOT_IN_NAME.search(name + "".join(locations)):
        kinds = [("program name", name)]
        kinds += [("location", loc) for loc in sorted(locations)]
        for kind, bad in kinds:
            if not bad or _NOT_IN_NAME.search(bad):
                raise ValidationError(
                    f"{kind} {bad!r} must be nonempty, with no whitespace or '#'"
                )


_OPEN = -2  # ``_walk``'s mark of a location whose successors are not done


def _walk(
    entry: str, end: str, succ: Successors
) -> tuple[dict[str, int], list[tuple[tuple[int, int], ...]], list[int], list[str]]:
    """The one walk of a program: a post-order over a plain stack from the
    entry.  A location is opened when it first reaches the top, which pushes
    its successors, and closed when it is back on top.  The open locations
    are the current path from the entry, so an edge into one is a back edge;
    its target is recorded, in the order the walk meets it, and not pushed.
    A location pushed twice is skipped once it is closed.

    Closing a location reads its successors' marks.  Those that can reach
    the end give its longest run, and its edges into them, as (pc,
    successor number) pairs; an open successor counts as unable to reach
    it.  Returns ``seen``, the mark of every reached location: its number
    in closing order among the locations that can reach the end (the end
    is 0, the entry last), or -1 when it cannot reach it; and, by number,
    the edges and the longest runs.  Also returns the back-edge targets.

    A cycle reaches the end exactly when some back-edge target is marked
    as reaching it:

    - A mark that reads "reaches" is right: it comes from a path to the
      end.  So a target that reads "reaches" is on a cycle (the one its
      back edge closes) that reaches the end.
    - If every target reads "cannot", every mark is exact.  A wrong
      "cannot" nearest the end has a successor that reads "reaches" and
      was open when the location closed: a target that reads "reaches".
    - The first location of a cycle to be opened is a back-edge target:
      the walk reaches the rest of the cycle while it is open.  If the
      cycle reaches the end and every target read "cannot", that target's
      mark would be exact, so it would read "reaches".

    Without such a cycle, a successor that reaches the end is never open
    when a location closes (it would be on such a cycle), so the longest
    runs are exact too.
    """
    seen: dict[str, int] = {}
    graph: list[tuple[tuple[int, int], ...]] = []
    runs: list[int] = []
    targets: list[str] = []
    stack = [entry]
    while stack:
        loc = stack[-1]
        mark = seen.get(loc)
        if mark is None:
            seen[loc] = _OPEN
            for _, dst in succ.get(loc, ()):
                got = seen.get(dst)
                if got is None:
                    stack.append(dst)
                elif got == _OPEN:
                    targets.append(dst)
            continue
        stack.pop()
        if mark != _OPEN:
            continue
        run = 0 if loc == end else -1
        out = []
        for pc, dst in succ.get(loc, ()):
            got = seen[dst]
            if got >= 0:
                out.append((pc, got))
                if runs[got] >= run:
                    run = runs[got] + 1
        if run < 0:
            seen[loc] = -1
        else:
            seen[loc] = len(graph)
            graph.append(tuple(out))
            runs.append(run)
    return seen, graph, runs, targets


def co_reachable(program: Program) -> frozenset[str]:
    """Locations from which the end location is reachable (end included)."""
    pred: dict[str, list[str]] = {}
    for src, out in program._succ.items():
        for _, dst in out:
            pred.setdefault(dst, []).append(src)
    seen = {program.end}
    todo = [program.end]
    while todo:
        for nxt in pred.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def ensure_bounded(program: Program) -> Graph:
    """Check that the run set is finite; returns the program's graph.

    The graph numbers the locations that can reach the end in the order
    the walk closes them, the end 0 and the entry last; entry i holds
    location i's (pc, destination number) edges into such locations, in
    (pc, destination) order.  A cycle among them raises BoundExceeded naming the first
    back-edge target of the walk (see ``_walk``) that can reach the end:
    the first location the walk from the entry re-enters on such a cycle.
    The walk runs once, when the program is built, and also records the
    longest run; every call returns the same graph, which callers must not
    mutate.
    """
    graph, _, cycle = program._walked
    if cycle is not None:
        live = co_reachable(program)
        loc = next(t for t in cycle if t in live)
        raise BoundExceeded(
            f"cycle through location {loc!r} reaches the end: "
            "run lengths are unbounded"
        )
    return graph


def longest_run(program: Program) -> int:
    """Length of the longest entry-to-end run, from the program's walk."""
    ensure_bounded(program)
    return program._walked[1]


def single_run(program: Program) -> tuple[int, ...] | None:
    """The program's only run, or None if it has several.  Walks the set of
    locations the run so far reaches along ``ensure_bounded``'s graph; a
    second pc out of that set, or a step on past the end, is a second run."""
    graph = ensure_bounded(program)
    run: list[int] = []
    here = {len(graph) - 1}
    while True:
        steps = {step for loc in here for step in graph[loc]}
        if not steps:
            return tuple(run)
        if 0 in here or len({pc for pc, _ in steps}) > 1:
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
    # Filled as the edge lines are read, as in ``_successors``: no list of
    # edges is kept beside it.
    succ: Successors = {}
    shared = {}.setdefault

    def kv(token: str, key: str, line_no: int) -> int:
        prefix = key + "="
        if not token.startswith(prefix):
            raise ParseError(f"expected {key}=<int>, got {token!r}", line_no)
        try:
            return int(token[len(prefix):])
        except ValueError:
            raise ParseError(f"expected integer after {prefix}", line_no) from None

    for line_no, tokens in token_lines(text):
        # The short path of a well-formed edge line, which cannot fail and
        # is the only one that adds an edge; any other line, a malformed
        # edge included, takes the checks below.
        if len(tokens) == 4 and tokens[0] == "edge" and tokens[3][:3] == "pc=":
            try:
                pc = int(tokens[3][3:])
            except ValueError:
                pass
            else:
                _, src, dst, _ = tokens
                out = succ.get(src)
                if out is None:
                    succ[shared(src, src)] = [(pc, shared(dst, dst))]
                else:
                    out.append((pc, shared(dst, dst)))
                continue
        directive, *args = tokens
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
            # A well-formed edge line took the short path, so this raises:
            # on the pc token, or for the count of tokens.
            if len(args) == 3:
                kv(args[2], "pc", line_no)
            raise ParseError("edge takes <from> <to> pc=<int>", line_no)
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no)

    for directive in once:
        if directive not in header:
            raise ValidationError(f"missing {directive} directive")
    executed = _pcs(_deduped(succ))
    for pc, line_no in instr_line.items():
        if pc not in executed:
            raise ParseError(
                f"duration given for pc={pc}, which no edge executes", line_no
            )
    return Program._defaulted(*(header[d] for d in once), succ, durations, executed)


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
