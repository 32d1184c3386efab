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
    BoundExceeded,
    Edge,
    ParseError,
    Program,
    ValidationError,
    branching_loop_program,
    ensure_bounded,
    parse_program,
    serialize_program,
)
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
        adjacency, longest = ensure_bounded(program), longest_run(program)
    except BoundExceeded as err:
        with pytest.raises(BoundExceeded) as again_err:
            ensure_bounded(again)
        assert str(again_err.value) == str(err)
    else:
        assert ensure_bounded(again) == adjacency
        assert longest_run(again) == longest
