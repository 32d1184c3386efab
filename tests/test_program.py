"""Program model: construction, parsing, and run-language enumeration."""

import random

import pytest

from conftest import chain_program, random_program
from wcetbound import (
    BoundExceeded,
    ParseError,
    Program,
    ValidationError,
    branching_loop_program,
    ensure_bounded,
    language_sequences,
    parse_program,
    serialize_program,
)
from wcetbound.program import longest_run


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
    assert list(language_sequences(p, 10)) == [()]


def test_dead_end_location_is_allowed_but_pruned_from_language():
    p = Program.build(
        "p", "A", "End", [("A", 1, "B"), ("B", 2, "End"), ("B", 3, "Dead")]
    )
    assert list(language_sequences(p, 10)) == [(1, 2)]


def test_single_run_language():
    p = chain_program([1, 2, 1])
    assert list(language_sequences(p, 10)) == [(1, 2, 1)]


def test_language_is_sorted_and_duplicate_free():
    rng = random.Random(11)
    for i in range(40):
        p = random_program(rng, name=f"r{i}")
        seqs = list(language_sequences(p, 64))
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert longest_run(p, ensure_bounded(p)) == max(map(len, seqs))


def test_nondeterministic_label_duplicates_collapse():
    # two distinct paths spelling the same pc sequence yield one word
    p = Program.build(
        "p",
        "A",
        "D",
        [("A", 1, "B1"), ("A", 1, "B2"), ("B1", 2, "D"), ("B2", 2, "D")],
    )
    assert list(language_sequences(p, 10)) == [(1, 2)]


def test_branching_loop_shape():
    p = branching_loop_program(iterations=2, branches=3)
    seqs = list(language_sequences(p, 100))
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
    count = sum(1 for _ in language_sequences(p, 64))
    assert count == 11 ** 5 == 161051


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
    with pytest.raises(BoundExceeded):
        list(language_sequences(cyclic, 50))
    with pytest.raises(BoundExceeded):
        ensure_bounded(cyclic)
    # acyclic but longer than the bound is the same error
    p = chain_program([1, 2, 3])
    with pytest.raises(BoundExceeded):
        list(language_sequences(p, 2))
    # a bound met exactly is fine
    assert list(language_sequences(p, 3)) == [(1, 2, 3)]


def test_cycle_outside_coreachable_region_is_harmless():
    p = Program.build(
        "p",
        "A",
        "End",
        [("A", 1, "End"), ("A", 2, "Spin"), ("Spin", 3, "Spin")],
    )
    ensure_bounded(p)
    assert list(language_sequences(p, 10)) == [(1,)]


def test_parse_round_trip():
    rng = random.Random(5)
    programs = [
        branching_loop_program(3, 2),
        chain_program([1, 2, 1], durations={1: 0, 2: 5}),
    ] + [random_program(rng, name=f"rt{i}") for i in range(20)]
    for p in programs:
        assert parse_program(serialize_program(p)) == p


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
    assert list(language_sequences(p, 10)) == [(1, 2)]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("program p\nentry A\nend B\nedge A B pc=zero\n", "pc"),
        ("program p\nentry A\nend B\nbogus A B\n", "bogus"),
        ("program p\nentry A\nend B\nedge A B\n", "edge"),
        ("program p\nprogram q\nentry A\nend B\nedge A B pc=1\n", "program"),
        ("program p\nentry A\nend B\ninstr pc=1 dur=1 x=2\nedge A B pc=1\n", "instr"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert "line" in str(err.value)
        assert fragment in str(err.value)


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
    with pytest.raises(ValidationError):
        parse_program(text)


def test_locations_allow_dotted_names():
    text = "program p\nentry blk.0\nend blk.1\nedge blk.0 blk.1 pc=1\n"
    p = parse_program(text)
    assert p.entry == "blk.0"
