"""Program model: construction, parsing, run bounds and the single-run walk.

Runs are checked against ``conftest.oracle_runs``, a walk of the raw edges.
"""

import ast
import importlib
import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_program, oracle_runs, random_program, same_pc_forks
from wcetbound import (
    AbstractModelEmpty,
    BoundExceeded,
    CacheConfig,
    Edge,
    ParseError,
    Program,
    ValidationError,
    branching_loop_program,
    ensure_bounded,
    explore_abstract,
    explore_explicit,
    from_pattern,
    hit_or_miss,
    parse_program,
    serialize_program,
)
from wcetbound import program as program_module
from wcetbound.cli import main
from wcetbound.program import longest_run, single_run


def test_build_canonicalizes_edges_and_infers_locations():
    p = Program.build(
        "p",
        "A",
        "C",
        [("B", 2, "C"), ("A", 1, "B"), ("B", 2, "C")],
    )
    assert p.edges[0].src == "A"
    assert len(p.edges) == 2  # duplicate edge collapsed
    assert p.locations == frozenset({"A", "B", "C"})
    assert p.durations == {1: 1, 2: 1}  # defaults to one cycle


def test_build_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        Program.build("p", "A", "B", [("A", 0, "B")])  # pc must be positive
    with pytest.raises(ValidationError):
        Program.build("p", "A", "B", [("A", 1, "B"), ("B", 2, "A")])  # end exits
    with pytest.raises(ValidationError):
        Program.build("p", "A", "X", [("A", 1, "B")])  # end not a location
    with pytest.raises(ValidationError):
        Program.build("p", "A", "B", [("A", 1, "B"), ("C", 2, "B")])  # C unreachable
    with pytest.raises(ValidationError):
        Program.build("p", "A", "B", [("A", 1, "B")], durations={2: 1})


def test_entry_equal_end_has_exactly_the_empty_run():
    p = Program.build("p", "A", "A", [])
    assert oracle_runs(p, 10) == [()]
    assert single_run(p) == ()


def test_entry_equal_end_explores_to_the_empty_witness():
    # a one-location graph: the explorer's walk starts and ends at the end
    p = Program.build("p", "A", "A", [])
    assert ensure_bounded(p) == ((),)
    config = CacheConfig(capacity=2)
    for result in (
        explore_explicit(p, config),
        explore_explicit(p, config, (7, 3)),
        explore_abstract(p, hit_or_miss(p.lines(config)), config),
        explore_abstract(p, from_pattern("(M.H)*", p.lines(config)), config),
    ):
        assert (result.wcet, result.witness, result.states_explored) == (0, (), 1)
    # with no line, a pattern that needs a letter accepts no word at all
    with pytest.raises(AbstractModelEmpty):
        explore_abstract(p, from_pattern("M.M", p.lines(config)), config)


def test_dead_end_location_is_allowed_but_pruned_from_language():
    p = Program.build(
        "p", "A", "End", [("A", 1, "B"), ("B", 2, "End"), ("B", 3, "Dead")]
    )
    assert oracle_runs(p, 10) == [(1, 2)]
    assert single_run(p) == (1, 2)


def test_single_run_language():
    p = chain_program([1, 2, 1])
    assert oracle_runs(p, 10) == [(1, 2, 1)]
    assert single_run(p) == (1, 2, 1)


def test_longest_run_is_the_longest_oracle_run():
    rng = random.Random(11)
    for i in range(40):
        p = random_program(rng, name=f"r{i}")
        runs = oracle_runs(p, 64)
        assert longest_run(p) == max(map(len, runs))


def test_nondeterministic_label_duplicates_collapse():
    # two distinct paths spelling the same pc sequence yield one word
    p = Program.build(
        "p",
        "A",
        "D",
        [("A", 1, "B1"), ("A", 1, "B2"), ("B1", 2, "D"), ("B2", 2, "D")],
    )
    assert oracle_runs(p, 10) == [(1, 2)]
    assert single_run(p) == (1, 2)


def test_branching_loop_shape():
    p = branching_loop_program(iterations=2, branches=3)
    seqs = oracle_runs(p, 100)
    assert len(seqs) == (3 + 1) ** 2
    assert all(len(s) == 4 * 2 for s in seqs)
    # every iteration reads the loop head twice, then a branch, then the tail
    for s in seqs:
        for k in range(2):
            a, b, c, d = s[4 * k : 4 * k + 4]
            assert (a, b, d) == (1, 1, 2)
            assert c in {3, 4, 5, 6}
    assert p.entry == "it0_a"
    assert p.end == "end"


def test_branching_loop_run_count_large():
    p = branching_loop_program(iterations=5, branches=10)
    assert len(oracle_runs(p, 64)) == 11 ** 5 == 161051
    assert single_run(p) is None


drawn_programs = st.one_of(
    st.randoms(use_true_random=False).map(random_program),
    st.lists(st.integers(1, 4), max_size=6).map(chain_program),
    same_pc_forks(),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drawn_programs)
def test_single_run_matches_the_oracle(program):
    runs = oracle_runs(program, 64)
    assert single_run(program) == (runs[0] if len(runs) == 1 else None)


def test_conftest_imports_only_types_errors_and_the_cache_step():
    # the oracles share only the elementary cache step with the package
    allowed = {"access", "simulate", "trace_time"}
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("wcetbound") for a in node.names)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("wcetbound"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                assert alias.name in allowed or not inspect.isfunction(obj), alias.name


def test_equal_programs_hash_equally():
    a, b = branching_loop_program(2, 1), branching_loop_program(2, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, branching_loop_program(2, 2)}) == 2
    # immutable, so the walk made at construction stays true
    for attr in ("name", "end", "edges", "durations"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)


def test_branching_loop_duration_overrides():
    p = branching_loop_program(iterations=1, branches=1, durations={1: 4})
    assert p.durations[1] == 4
    assert p.durations[2] == 1


def test_language_bound_is_a_hard_error():
    cyclic = Program.build("c", "A", "B", [("A", 1, "A"), ("A", 2, "B")])
    with pytest.raises(BoundExceeded, match="cycle through location 'A'"):
        ensure_bounded(cyclic)
    # the CLI compares --max-len with the longest run
    p = chain_program([1, 2, 3])
    assert longest_run(p) == 3


def random_digraph(rng: random.Random) -> Program:
    """A valid program over up to seven locations: a tree from the entry
    that reaches the end, plus random edges that may add self-loops, back
    edges and cycles that cannot reach the end."""
    locs = [f"L{i}" for i in range(rng.randint(2, 7))]
    inner = locs[:-1]  # the end has no outgoing edges
    edges = [
        (rng.choice(locs[:i]), rng.randint(1, 3), locs[i]) for i in range(1, len(locs))
    ]
    for _ in range(rng.randint(0, len(locs))):
        edges.append((rng.choice(inner), rng.randint(1, 3), rng.choice(locs)))
    return Program.build("g", locs[0], locs[-1], edges)


def oracle_closure(program, loc):
    """Locations one or more raw edges away from ``loc``."""
    seen, todo = set(), [loc]
    while todo:
        here = todo.pop()
        for e in program.edges:
            if e.src == here and e.dst not in seen:
                seen.add(e.dst)
                todo.append(e.dst)
    return seen


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False).map(random_digraph))
def test_program_walk_matches_a_brute_force_oracle(program):
    # unbounded exactly when a location that can reach the end is on a cycle
    on_live_cycle = {
        loc for loc in program.locations
        if loc in oracle_closure(program, loc)
        and program.end in oracle_closure(program, loc)
    }
    if on_live_cycle:
        with pytest.raises(BoundExceeded) as err:
            ensure_bounded(program)
        named = str(err.value).split("'")[1]
        assert str(err.value) == (
            f"cycle through location {named!r} reaches the end: "
            "run lengths are unbounded"
        )
        assert named in on_live_cycle
    else:
        # a simple path has fewer steps than there are locations
        runs = oracle_runs(program, len(program.locations))
        assert longest_run(program) == max(map(len, runs))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(
    st.randoms(use_true_random=False).map(random_digraph),
    st.randoms(use_true_random=False).map(random_program),
))
def test_every_graph_edge_goes_to_a_smaller_number(program):
    # the explorer walks the graph by number, from the entry down, and
    # relies on this order: a location's predecessors all come before it
    try:
        graph = ensure_bounded(program)
    except BoundExceeded:
        return
    assert graph[0] == ()  # the end
    for i, edges in enumerate(graph):
        assert all(dst < i for _, dst in edges)
    # every location of the graph but the entry has a predecessor
    assert {dst for edges in graph for _, dst in edges} == set(range(len(graph) - 1))


def reference_program(name, entry, end, edges, durations):
    """The constructor's checks and the bounded-run queries, written as
    three passes over three maps: successors from the entry, predecessors
    from the end, then a walk that stops at the first re-entered location.

    Raises the constructor's ValidationError.  Otherwise returns (graph,
    longest run, single run) as ``ensure_bounded``, ``longest_run`` and
    ``single_run`` give them, or (the BoundExceeded text, None, None).  The
    graph numbers the locations that can reach the end in the order this
    walk closes them."""
    succ: dict[str, list[str]] = {}
    for e in edges:
        if e.pc < 1:
            raise ValidationError(f"{e}: pc must be >= 1, got {e.pc}")
        if e.src == end:
            raise ValidationError(f"end location {end!r} must have no outgoing edges")
        if e.pc not in durations:
            raise ValidationError(f"{e}: pc={e.pc} has no duration")
        succ.setdefault(e.src, []).append(e.dst)
    for pc, dur in durations.items():
        if dur < 0:
            raise ValidationError(f"duration for pc={pc} must be >= 0")
    locations = {entry, end}.union(succ, *succ.values())
    named = [("program name", name)] + [("location", loc) for loc in sorted(locations)]
    for kind, bad in named:
        if not bad or any(c.isspace() or c == "#" for c in bad):
            raise ValidationError(
                f"{kind} {bad!r} must be nonempty, with no whitespace or '#'"
            )

    def reach(start, step):
        seen, todo = {start}, [start]
        while todo:
            for nxt in step.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    missing = locations - reach(entry, succ)
    if missing:
        raise ValidationError(f"locations unreachable from entry: {sorted(missing)}")
    pred: dict[str, list[str]] = {}
    for src, _, dst in edges:
        pred.setdefault(dst, []).append(src)
    live = reach(end, pred)
    adjacency: dict[str, list[tuple[int, str]]] = {}
    for src, pc, dst in sorted(edges):
        if src in live and dst in live:
            adjacency.setdefault(src, []).append((pc, dst))

    longest: dict[str, int] = {}
    opened: set[str] = set()
    stack = [entry]
    while stack:
        loc = stack[-1]
        if loc in longest:
            stack.pop()
        elif loc in opened:
            stack.pop()
            opened.remove(loc)
            longest[loc] = max(
                (longest[dst] + 1 for _, dst in adjacency.get(loc, ())), default=0
            )
        else:
            opened.add(loc)
            for _, dst in adjacency.get(loc, ()):
                if dst in opened:
                    return (
                        f"cycle through location {dst!r} reaches the end: "
                        "run lengths are unbounded"
                    ), None, None
                if dst not in longest:
                    stack.append(dst)
    number = {loc: i for i, loc in enumerate(longest)}
    graph = tuple(
        tuple((pc, number[dst]) for pc, dst in adjacency.get(loc, ()))
        for loc in longest
    )
    run, here = [], {entry}
    while True:
        steps = {step for loc in here for step in adjacency.get(loc, ())}
        if not steps:
            break
        if end in here or len({pc for pc, _ in steps}) > 1:
            run = None
            break
        run.append(next(iter(steps))[0])
        here = {dst for _, dst in steps}
    return graph, longest[entry], None if run is None else tuple(run)


@st.composite
def walk_inputs(draw):
    """Program fields over up to ten locations: mostly a tree from the entry
    plus up to twice as many random edges, so cycles, nested and
    overlapping, are common; sometimes a bad pc, name or duration, an edge
    out of the end or a location the entry cannot reach."""

    def one_in(k: int) -> bool:
        return draw(st.integers(1, k)) == 1

    bad_names = st.sampled_from(["", "a b", "x#y"])
    n = draw(st.integers(1, 10))
    locs = [f"L{i}" for i in range(n)]
    if one_in(20):
        locs[draw(st.integers(0, n - 1))] = draw(bad_names)
    edges = []
    if not one_in(10):
        for i in range(1, n):
            src = draw(st.sampled_from(locs[:i]))
            edges.append((src, draw(st.integers(1, 4)), locs[i]))
    for _ in range(draw(st.integers(0, 2 * n - 2))):
        src = draw(st.sampled_from(locs if one_in(30) else locs[:-1]))
        pc = 0 if one_in(50) else draw(st.integers(1, 4))
        edges.append((src, pc, draw(st.sampled_from(locs))))
    edges = tuple(map(Edge._make, sorted(set(edges))))
    durations = {pc: 1 for _, pc, _ in edges}
    if durations and one_in(20):
        pc = draw(st.sampled_from(sorted(durations)))
        if draw(st.booleans()):
            del durations[pc]
        else:
            durations[pc] = -1
    name = draw(bad_names) if one_in(30) else "g"
    return name, locs[0], locs[-1], edges, durations


@settings(derandomize=True, max_examples=600, deadline=None)
@given(walk_inputs())
def test_program_walk_matches_the_three_pass_reference(fields):
    try:
        want = reference_program(*fields)
    except ValidationError as err:
        with pytest.raises(ValidationError) as got:
            Program(*fields)
        assert str(got.value) == str(err)
        return
    program = Program(*fields)
    graph, longest, single = want
    if longest is None:
        for query in (ensure_bounded, longest_run, single_run):
            with pytest.raises(BoundExceeded) as got:
                query(program)
            assert str(got.value) == graph
    else:
        assert ensure_bounded(program) == graph
        assert longest_run(program) == longest
        assert single_run(program) == single


def test_program_errors_show_the_edge_in_file_syntax():
    with pytest.raises(ValidationError) as err:
        parse_program("program p\nentry A\nend B\nedge A B pc=0\n")
    assert str(err.value) == "edge A B pc=0: pc must be >= 1, got 0"
    with pytest.raises(ValidationError) as err:
        Program("p", "A", "B", (Edge("A", 1, "B"),), {})
    assert str(err.value) == "edge A B pc=1: pc=1 has no duration"


def test_cycle_outside_coreachable_region_is_harmless():
    p = Program.build(
        "p",
        "A",
        "End",
        [("A", 1, "End"), ("A", 2, "Spin"), ("Spin", 3, "Spin")],
    )
    assert oracle_runs(p, 10) == [(1,)]
    assert single_run(p) == (1,)


def round_trip_programs():
    rng = random.Random(5)
    return [
        branching_loop_program(3, 2),
        chain_program([1, 2, 1], durations={1: 0, 2: 5}),
    ] + [random_program(rng, name=f"rt{i}") for i in range(20)]


def test_parse_round_trip():
    for p in round_trip_programs():
        assert parse_program(serialize_program(p)) == p


def test_parse_takes_directives_in_any_order():
    for p in round_trip_programs():
        lines = serialize_program(p).splitlines()
        assert parse_program("\n".join(reversed(lines))) == p


def test_parse_accepts_comments_and_blank_lines():
    text = """
# a two-instruction straight line
program demo
entry A
end C

instr pc=1 dur=3
instr pc=2          # default duration elsewhere
edge A B pc=1
edge B C pc=2
"""
    p = parse_program(text)
    assert p.name == "demo"
    assert p.durations == {1: 3, 2: 1}
    assert oracle_runs(p, 10) == [(1, 2)]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("program p\nentry A\nend B\nedge A B pc=zero\n", "pc"),
        ("program p\nentry A\nend B\nedge A B pc=\n", "line 4: expected integer after pc="),
        ("program p\nentry A\nend B\nedge A B pc=1.5\n", "line 4: expected integer after pc="),
        ("program p\nentry A\nend B\nedge A B dur=1\n", "line 4: expected pc=<int>, got 'dur=1'"),
        ("program p\nentry A\nend B\nedge A B pc=1 C\n", "line 4: edge takes"),
        ("program p\nentry A\nend B\nbogus A B\n", "bogus"),
        ("program p\nentry A\nend B\nedge A B\n", "edge"),
        ("program p\nprogram q\nentry A\nend B\nedge A B pc=1\n", "program"),
        ("program p\nentry A\nend B\ninstr pc=1 dur=1 x=2\nedge A B pc=1\n", "instr"),
        ("program p\nentry A\nend B\ninstr pc=1 dur=-2\nedge A B pc=1\n",
         "line 4: duration for pc=1 must be >= 0"),
        ("program p\nentry A\nend B\ninstr pc=7 dur=2\nedge A B pc=1\n",
         "line 4: duration given for pc=7, which no edge executes"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert "line" in str(err.value)
        assert fragment in str(err.value)
        # The same error, with its line number moved, among well-formed
        # edge lines: before every line, or two at the top.
        line_no = err.value.line_no
        moved = [
            ("".join(f"edge A B pc=1\n{line}\n" for line in text.splitlines()), 2 * line_no),
            ("edge A B pc=1\nedge A B pc=1 # again\n" + text, line_no + 2),
        ]
        for padded, want in moved:
            with pytest.raises(ParseError) as again:
                parse_program(padded)
            assert again.value.line_no == want
            assert str(again.value) == str(err.value).replace(
                f"line {line_no}:", f"line {want}:"
            )


def test_duplicate_instr_rejected():
    text = "program p\nentry A\nend B\ninstr pc=1 dur=1\ninstr pc=1 dur=2\nedge A B pc=1\n"
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert "line 5: duplicate instr for pc=1" in str(err.value)

def test_parse_requires_all_directives():
    with pytest.raises(ValidationError):
        parse_program("entry A\nend B\nedge A B pc=1\n")
    with pytest.raises(ValidationError):
        parse_program("program p\nend B\nedge A B pc=1\n")
    with pytest.raises(ValidationError):
        parse_program("program p\nentry A\nedge A B pc=1\n")
    with pytest.raises(ValidationError):
        parse_program("program p\nentry A\nend B\n")  # no edges at all


def test_parse_rejects_instruction_without_edge():
    text = "program p\nentry A\nend B\ninstr pc=7 dur=2\nedge A B pc=1\n"
    with pytest.raises(ParseError, match="^line 4: duration given for pc=7"):
        parse_program(text)


def test_build_keeps_the_duration_checks_for_library_callers():
    with pytest.raises(ValidationError, match="^duration given for pc=7, which"):
        Program.build("p", "A", "B", [("A", 1, "B")], {7: 2})
    with pytest.raises(ValidationError, match="^duration for pc=1 must be >= 0$"):
        Program.build("p", "A", "B", [("A", 1, "B")], {1: -2})


def test_locations_allow_dotted_names():
    text = "program p\nentry blk.0\nend blk.1\nedge blk.0 blk.1 pc=1\n"
    p = parse_program(text)
    assert p.entry == "blk.0"


def test_names_the_file_format_cannot_carry_are_rejected():
    edge = [("A", 1, "B")]
    cases = [
        (("", "A", "B", edge), "program name ''"),
        (("a b", "A", "B", edge), "program name 'a b'"),
        (("x#y", "A", "B", edge), "program name 'x#y'"),
        (("p", "A x", "B", [("A x", 1, "B")]), "location 'A x'"),
        (("p", "A", "B\t", [("A", 1, "B\t")]), "location 'B\\t'"),
        (("p", "A", "B", [("A", 1, ""), ("", 2, "B")]), "location ''"),
        (("p", "A", "B", [("A", 1, "C\u2003"), ("C\u2003", 2, "B")]), "location 'C\\u2003'"),
        # the program name first, then the first bad location in sorted order
        (("p", "A", "B", [("A", 1, "Z#"), ("A", 2, "Y y"), ("Y y", 3, "B")]), "location 'Y y'"),
        (("q r", "A", "B", [("A", 1, "Y y"), ("Y y", 2, "B")]), "program name 'q r'"),
    ]
    for args, named in cases:
        with pytest.raises(ValidationError) as err:
            Program.build(*args)
        assert str(err.value) == f"{named} must be nonempty, with no whitespace or '#'"


names = st.text(max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(names, names, names)
def test_a_name_is_accepted_exactly_when_its_file_reads_back(name, entry, end):
    edges = [] if entry == end else [(entry, 1, end)]
    carried = all(n.split() == [n] and "#" not in n for n in (name, entry, end))
    try:
        program = Program.build(name, entry, end, edges)
    except ValidationError as err:
        assert not carried
        assert "must be nonempty, with no whitespace or '#'" in str(err)
        return
    assert carried
    assert parse_program(serialize_program(program)) == program


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(
    st.randoms(use_true_random=False).map(random_digraph),
    st.randoms(use_true_random=False).map(random_program),
))
def test_parse_round_trip_keeps_the_walk(program):
    again = parse_program(serialize_program(program))
    assert again == program
    try:
        graph, longest = ensure_bounded(program), longest_run(program)
    except BoundExceeded as err:
        with pytest.raises(BoundExceeded) as again_err:
            ensure_bounded(again)
        assert str(again_err.value) == str(err)
    else:
        assert ensure_bounded(again) == graph
        assert longest_run(again) == longest


@st.composite
def listed_programs(draw):
    """A program file's text and the fields it lists: a tree from the entry
    over up to eight locations plus random edges (self-loops, cycles, forks
    on one pc), each edge listed one to three times, some instr lines, all
    in shuffled order, with comments and blank lines among them."""
    n = draw(st.integers(1, 8))
    locs = [f"L{i}" for i in range(n)]
    edges = [
        (draw(st.sampled_from(locs[:i])), draw(st.integers(1, 4)), locs[i])
        for i in range(1, n)
    ]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            src = draw(st.sampled_from(locs[:-1]))
            edges.append((src, draw(st.integers(1, 4)), draw(st.sampled_from(locs))))
    listed = draw(st.permutations([e for e in edges for _ in range(draw(st.integers(1, 3)))]))
    pcs = sorted({pc for _, pc, _ in edges})
    durations = draw(st.dictionaries(st.sampled_from(pcs), st.integers(0, 5))) if pcs else {}
    lines = ["program g", f"entry {locs[0]}", f"end {locs[-1]}"]
    lines += [f"instr pc={pc} dur={dur}" for pc, dur in durations.items()]
    lines += [f"edge {src} {dst} pc={pc}" for src, pc, dst in listed]
    text = []
    for line in draw(st.permutations(lines)):
        if draw(st.integers(0, 3)) == 0:
            text.append(draw(st.sampled_from(["", "   ", "# a note", "\t# edge A B pc=1"])))
        text.append(line + draw(st.sampled_from(["", " ", "  # why"])))
    return "\n".join(text) + "\n", ("g", locs[0], locs[-1], listed, durations)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(listed_programs())
def test_parse_build_and_the_constructor_make_one_program(drawn):
    # however the edges are listed, the three ways in give one program,
    # whose edges are the sorted distinct ones, and one walk
    text, (name, entry, end, listed, durations) = drawn
    canonical = tuple(map(Edge._make, sorted(set(listed))))
    full = dict.fromkeys(sorted({pc for _, pc, _ in canonical}), 1)
    full.update(durations)
    programs = [
        parse_program(text),
        Program.build(name, entry, end, listed, durations),
        Program(name, entry, end, canonical, full),
        Program(name, entry, end, listed, dict(full)),
    ]
    for program in programs:
        assert program == programs[0]
        assert hash(program) == hash((name, entry, end, canonical))
        assert program.edges == canonical
        assert all(type(e) is Edge for e in program.edges)
        assert program.durations == full
    graph, longest, single = reference_program(name, entry, end, canonical, full)
    for program in programs:
        if longest is None:
            for query in (ensure_bounded, longest_run, single_run):
                with pytest.raises(BoundExceeded) as got:
                    query(program)
                assert str(got.value) == graph
        else:
            assert ensure_bounded(program) == graph
            assert longest_run(program) == longest
            assert single_run(program) == single
    once = serialize_program(programs[0])
    assert serialize_program(parse_program(once)) == once


def test_no_edge_is_made_on_the_analysis_path(tmp_path, monkeypatch, capsys):
    # the canonical edge tuple is made only when asked for; parsing,
    # building, exploring and the CLI's report never ask
    made = []

    class CountedEdge(Edge):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

        @classmethod
        def _make(cls, iterable):
            made.append(iterable)
            return super()._make(iterable)

    text = serialize_program(branching_loop_program(600, 2))
    path, out = tmp_path / "deep.prog", tmp_path / "deep.out"
    path.write_text(text)
    monkeypatch.setattr(program_module, "Edge", CountedEdge)
    program = parse_program(text)
    assert explore_explicit(program, CacheConfig(capacity=3)).wcet > 0
    assert ensure_bounded(branching_loop_program(100, 1))
    argv = ["wcet", "explicit", str(path), "--capacity", "3", "--out", str(out)]
    assert main(argv) == 0
    assert out.stat().st_size > 0
    assert made == []
    # asked for, the tuple is made once and kept
    assert serialize_program(program) == text
    assert len(made) == len(program.edges) == 600 * 6
    assert program.edges is program.edges and len(made) == 600 * 6


_HEADER = "program p\nentry A\nend C\n"


@pytest.mark.parametrize(
    "text, error, message, code",
    [
        pytest.param(
            _HEADER + "edge B C pc=1\nedge A B pc=1\nedge B C pc=0\n",
            ValidationError, "edge B C pc=0: pc must be >= 1, got 0", 1,
            id="pc0-not-first-in-file-order",
        ),
        pytest.param(
            _HEADER + "edge B C pc=0\nedge A B pc=0\n",
            ValidationError, "edge A B pc=0: pc must be >= 1, got 0", 1,
            id="pc0-twice-names-the-first-in-sorted-order",
        ),
        pytest.param(
            _HEADER + "edge A B pc=1\nedge B C pc=2\nedge C B pc=3\n",
            ValidationError, "end location 'C' must have no outgoing edges", 1,
            id="end-exits",
        ),
        pytest.param(
            _HEADER + "edge C B pc=3\nedge A B pc=1\nedge B C pc=0\n",
            ValidationError, "edge B C pc=0: pc must be >= 1, got 0", 1,
            id="end-exits-after-a-pc0-edge-in-sorted-order",
        ),
        pytest.param(
            _HEADER + "edge A B pc=1\nedge B C pc=2\nedge X C pc=3\nedge Y X pc=3\n",
            ValidationError, "locations unreachable from entry: ['X', 'Y']", 1,
            id="unreachable",
        ),
        pytest.param(
            _HEADER + "edge A B pc=1\n",
            ValidationError, "locations unreachable from entry: ['C']", 1,
            id="end-unreachable",
        ),
        pytest.param(
            _HEADER + "edge A B pc=1\nedge B A pc=2\nedge B C pc=3\n"
            "edge C2 C2 pc=1\nedge A C2 pc=4\n",
            BoundExceeded,
            "cycle through location 'A' reaches the end: run lengths are unbounded", 2,
            id="cycle-reaches-the-end",
        ),
        pytest.param(
            # in file order the walk would open D first and name it
            _HEADER + "edge A B pc=5\nedge A D pc=1\nedge D D pc=2\n"
            "edge D C pc=1\nedge B A pc=1\n",
            BoundExceeded,
            "cycle through location 'A' reaches the end: run lengths are unbounded", 2,
            id="two-cycles-named-in-sorted-order",
        ),
    ],
)
def test_file_errors_keep_their_messages_and_exit_codes(
    tmp_path, capsys, text, error, message, code
):
    with pytest.raises(error) as err:
        ensure_bounded(parse_program(text))
    assert str(err.value) == message
    path = tmp_path / "p.prog"
    path.write_text(text)
    assert main(["wcet", "explicit", str(path), "--capacity", "2"]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(
            lambda: Program("p", "A", "C", (Edge("A", 1, "B"), Edge("B", 2, "C")), {1: 1}),
            "edge B C pc=2: pc=2 has no duration",
            id="pc-without-duration",
        ),
        pytest.param(
            lambda: Program("p", "A", "C", (Edge("A", 3, "B"), Edge("B", 2, "C")), {}),
            "edge A B pc=3: pc=3 has no duration",
            id="no-durations",
        ),
        pytest.param(
            lambda: Program.build("p", "A", "C", [("A", 1, "B x"), ("B x", 2, "C")]),
            "location 'B x' must be nonempty, with no whitespace or '#'",
            id="bad-location-name",
        ),
        pytest.param(
            lambda: Program.build("p", "A", "C", [("A", 1, "C"), ("B x", 2, "C")]),
            "location 'B x' must be nonempty, with no whitespace or '#'",
            id="bad-name-of-an-unreachable-location",
        ),
    ],
)
def test_constructor_errors_keep_their_messages(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


def test_duplicate_edge_lines_read_as_one(tmp_path, capsys):
    once = _HEADER + "edge A B pc=1\nedge A B pc=3\nedge B C pc=2\n"
    twice = (
        _HEADER + "edge B C pc=2\nedge A B pc=1\nedge B C pc=2\n"
        "edge A B pc=1 # again\nedge A B pc=3\n"
    )
    assert parse_program(twice) == parse_program(once)
    path, out = tmp_path / "p.prog", tmp_path / "p.out"
    seen = []
    for text in (once, twice):
        path.write_text(text)
        assert main(["wcet", "explicit", str(path), "--capacity", "2", "--out", str(out)]) == 0
        shown = capsys.readouterr().out.splitlines()
        seen.append((out.read_bytes(), [line for line in shown if not line.startswith("elapsed:")]))
    assert seen[0] == seen[1]
    assert "wcet: 42 cycles" in seen[0][1]
