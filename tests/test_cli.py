"""Command-line interface: exit codes, human output, machine records."""

import random
import re
import resource
import subprocess
import sys

import pytest

from conftest import random_config, random_program
from wcetbound import (
    Program,
    branching_loop_program,
    explore_explicit,
    parse_program,
    serialize_program,
)
from wcetbound import cli as cli_module
from wcetbound import program as program_module
from wcetbound.cli import build_parser, main

CHAIN_121 = """\
program chain
entry A
end D
edge A B pc=1
edge B C pc=2
edge C D pc=1
"""

CHAIN_1212 = CHAIN_121.replace("end D", "end E") + "edge D E pc=2\n"

CYCLIC = """\
program spin
entry A
end B
edge A A pc=1
edge A B pc=2
"""

FORKED = """\
program forked
entry A
end D
edge A B pc=1
edge B D pc=2
edge B C pc=3
edge C D pc=4
"""

INFEASIBLE_TRACE = """\
pc=2 cls=M
pc=2 cls=M
"""

FEASIBLE_TRACE = """\
# cold-start classification of 1 2 3 1 on three slots
pc=1 cls=M
pc=2 cls=M
pc=3 cls=M
pc=1 cls=H
"""

NO_EDGES = """\
program nothing
entry A
end A
"""

MISSES_ONLY_MODEL = """\
alphabet *:M
state s accepting
initial s
trans s *:M s
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def records_of(path):
    out = []
    for line in open(path).read().splitlines():
        rtype, *fields = line.split()
        out.append((rtype, dict(f.split("=", 1) for f in fields)))
    return out


def by_type(recs, rtype):
    return [fields for t, fields in recs if t == rtype]


def test_example_round_trips_through_the_parser(tmp_path, capsys):
    out = str(tmp_path / "loop.prog")
    assert main(["example", "--iterations", "3", "--branches", "1", "--out", out]) == 0
    assert "8 runs" in capsys.readouterr().out
    assert parse_program(open(out).read()) == branching_loop_program(3, 1)


def test_example_prints_a_long_run_count_as_a_power(tmp_path, capsys):
    out = str(tmp_path / "loop.prog")
    # 3**209 has 100 digits and 3**210 has 101; 2**15000 is far past the
    # default limit of Python's int-to-decimal conversion.
    for iterations, branches, runs in [
        (209, 2, str(3 ** 209)), (210, 2, "3^210"), (15000, 1, "2^15000"),
    ]:
        argv = ["example", "--iterations", str(iterations),
                "--branches", str(branches), "--out", out]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(f" choices, {runs} runs\n")
    assert parse_program(open(out).read()) == branching_loop_program(15000, 1)


@pytest.mark.parametrize("name", ["a b", "x#y", "tab\tname", ""])
def test_example_rejects_a_name_its_file_cannot_carry(tmp_path, capsys, name):
    # such a file would not parse back, or would read back another name
    out = tmp_path / "f.prog"
    argv = ["example", "--iterations", "1", "--name", name, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: program name {name!r} must be nonempty, with no whitespace or '#'\n"
    assert not out.exists()


def test_example_prints_to_stdout_by_default(capsys):
    assert main(["example", "--iterations", "1", "--branches", "0"]) == 0
    text = capsys.readouterr().out
    assert parse_program(text) == branching_loop_program(1, 0)


def test_example_duration_flags(tmp_path):
    out = str(tmp_path / "d.prog")
    assert main(["example", "--iterations", "1", "--branches", "0",
                 "--dur", "1=7", "--out", out]) == 0
    assert parse_program(open(out).read()).durations[1] == 7


def test_wcet_explicit_human_and_machine_output(tmp_path, capsys):
    prog = str(tmp_path / "loop.prog")
    main(["example", "--iterations", "3", "--branches", "2", "--out", prog])
    capsys.readouterr()
    rec = str(tmp_path / "out.rec")
    assert main(["wcet", "explicit", prog, "--out", rec]) == 0
    text = capsys.readouterr().out
    assert "wcet: 198 cycles" in text
    assert "states explored: 25" in text
    assert "witness (12 steps):" in text

    recs = records_of(rec)
    (result,) = by_type(recs, "result")
    assert result["wcet"] == "198"
    assert result["states_explored"] == "25"
    assert result["witness_len"] == "12"
    (config,) = by_type(recs, "config")
    assert config["capacity"] == "2" and config["policy"] == "promote"
    steps = by_type(recs, "step")
    assert len(steps) == 12
    assert steps[-1]["clock"] == "198"


def test_wcet_abstract_with_pattern(tmp_path, capsys):
    prog = str(tmp_path / "loop.prog")
    main(["example", "--iterations", "3", "--branches", "1", "--out", prog])
    capsys.readouterr()
    assert main(["wcet", "abstract", prog, "--pattern", "(M.H.M.M)*"]) == 0
    text = capsys.readouterr().out
    assert "wcet: 198 cycles" in text
    assert "states explored: 13" in text


def test_wcet_abstract_with_model_file(tmp_path, capsys):
    prog = str(tmp_path / "loop.prog")
    main(["example", "--iterations", "3", "--branches", "1", "--out", prog])
    model = write(
        tmp_path,
        "any.model",
        "alphabet *:H *:M\nstate ok accepting\ninitial ok\n"
        "trans ok *:H ok\ntrans ok *:M ok\n",
    )
    capsys.readouterr()
    assert main(["wcet", "abstract", prog, "--model", model]) == 0
    # unconstrained model: every access is a miss
    assert "wcet: 252 cycles" in capsys.readouterr().out


def test_wcet_refine_reports_iterations(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    rec = str(tmp_path / "refine.rec")
    assert main(["wcet", "refine", prog, "--out", rec]) == 0
    text = capsys.readouterr().out
    assert "wcet: 45 cycles" in text
    assert "iterations: 4" in text
    assert "witness initial state: empty" in text

    recs = records_of(rec)
    iters = by_type(recs, "iteration")
    assert [r["wcet"] for r in iters] == ["63", "45", "45", "45"]
    assert [r["feasible"] for r in iters] == ["no", "no", "no", "yes"]
    assert iters[0]["core"] == "1:M.2:M.1:M"
    (result,) = by_type(recs, "result")
    assert result["witness_initial"] == "empty"


def test_wcet_refine_checks_boundedness_once(tmp_path, capsys, monkeypatch):
    # the CLI's --max-len check and every refinement round's exploration
    # share one co-reachable adjacency per program
    calls = []
    real = program_module.co_reachable
    monkeypatch.setattr(
        program_module, "co_reachable", lambda p: calls.append(p) or real(p)
    )
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main(["wcet", "refine", prog]) == 0
    assert "iterations: 4" in capsys.readouterr().out
    assert len(calls) == 1


def test_no_report_is_rendered_without_out(tmp_path, capsys, monkeypatch):
    def render(records):
        raise AssertionError("rendered a report that no --out asked for")

    monkeypatch.setattr(cli_module, "_render_records", render)
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main(["wcet", "explicit", prog]) == 0
    assert main(["wcet", "refine", prog]) == 0
    assert main(["simulate", "--pcs", "1,2,1"]) == 0
    assert "wcet: 45 cycles" in capsys.readouterr().out


def test_wcet_refine_checks_a_claimed_initial_state(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main(["wcet", "refine", prog, "--init", "empty"]) == 0
    assert "witness realizable from --init empty: yes" in capsys.readouterr().out
    # from a cache already holding line 1 the first access would hit,
    # so the all-important leading miss of the witness is unrealizable
    assert main(["wcet", "refine", prog, "--init", "state=1"]) == 0
    assert "witness realizable from --init 1: no" in capsys.readouterr().out


def test_wcet_explicit_with_warm_state(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main(["wcet", "explicit", prog, "--init", "state=1,2"]) == 0
    # everything hits: 3 accesses, each hit 2 + execute 1
    assert "wcet: 9 cycles" in capsys.readouterr().out


@pytest.mark.parametrize("mode", [
    ["explicit"],
    ["abstract", "--pattern", "M*"],
    ["abstract", "--model", "{model}"],
    ["abstract", "--model", "{any_model}"],
    ["refine"],
])
def test_program_whose_only_run_is_empty(tmp_path, capsys, mode):
    prog = write(tmp_path, "nothing.prog", NO_EDGES)
    model = write(tmp_path, "one.model",
                  "alphabet 1:H 1:M\nstate ok accepting\ninitial ok\n")
    # with no program line, `*:H` and `*:M` expand to no symbol
    any_model = write(
        tmp_path, "any.model",
        "alphabet *:H *:M\nstate ok accepting\ninitial ok\n"
        "trans ok *:H ok\ntrans ok *:M ok\n",
    )
    argv = ["wcet", mode[0], prog] + [
        a.format(model=model, any_model=any_model) for a in mode[1:]
    ]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "wcet: 0 cycles" in text
    assert "witness (0 steps): " in text


def test_usage_and_validation_failures_exit_one(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    trace = write(tmp_path, "good.trace", FEASIBLE_TRACE)
    misses = write(tmp_path, "misses.model", MISSES_ONLY_MODEL)
    deep = "(" * 400 + "M" + ")" * 400
    bad = [
        [],
        ["nonsense"],
        ["wcet", "explicit", str(tmp_path / "missing.prog")],
        ["wcet", "explicit", prog, "--init", "unknown"],
        ["wcet", "explicit", prog, "--init", ""],
        ["wcet", "explicit", prog, "--pattern", "M*"],
        ["wcet", "abstract", prog],  # needs --pattern or --model
        ["wcet", "abstract", prog, "--pattern", "(M"],
        ["wcet", "abstract", prog, "--model", misses],  # no H symbols
        ["wcet", "abstract", prog, "--pattern", "M*", "--init", "state=1"],
        ["wcet", "refine", prog, "--init", "state=1,1"],  # duplicate line
        ["simulate"],
        ["simulate", prog, "--pcs", "1,2"],  # both sources
        ["simulate", "--pcs", "1,x"],
        ["sweep", "--branches", "5..1"],
        ["sweep", "--modes", "turbo"],
        ["wcet", "explicit", prog, "--capacity", "0"],
        # each bound belongs only to the subcommands that read it
        ["sweep", "--iterations", "2", "--branches", "1", "--max-len", "1"],
        ["sweep", "--iterations", "2", "--branches", "1", "--max-iters", "0"],
        ["simulate", "--pcs", "1", "--max-iters", "0"],
        ["feasibility", trace, "--max-len", "1"],
        ["feasibility", trace, "--max-iters", "0"],
        # each wcet analysis takes only the flags it reads
        ["wcet", "explicit", prog, "--max-iters", "0"],
        ["wcet", "abstract", prog, "--pattern", "M*", "--max-iters", "0"],
        ["wcet", "abstract", prog, "--pattern", "M*", "--init", "empty"],
        # a run length is never negative
        ["wcet", "explicit", prog, "--max-len", "-1"],
        ["simulate", prog, "--max-len", "-1"],
        ["simulate", "--pcs", "1,2", "--max-len", "-1"],
        # past the pattern nesting budget
        ["wcet", "abstract", prog, "--pattern", deep],
        ["sweep", "--iterations", "2", "--branches", "1", "--pattern", deep],
    ]
    for argv in bad:
        assert main(argv) == 1, argv
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--pcs", "1"],
    ["example"],
])
def test_out_path_with_a_nul_byte_exits_one(capsys, argv):
    assert main(argv + ["--out", "a\x00b"]) == 1
    assert "embedded null byte" in capsys.readouterr().err


def test_unbounded_program_exits_two(tmp_path, capsys):
    prog = write(tmp_path, "spin.prog", CYCLIC)
    assert main(["wcet", "explicit", prog]) == 2
    assert "error:" in capsys.readouterr().err


def test_wcet_honours_max_len(tmp_path, capsys):
    prog = write(tmp_path, "chain4.prog", CHAIN_1212)
    for mode in (["explicit"], ["abstract", "--pattern", "M*"], ["refine"]):
        argv = ["wcet", mode[0], prog, *mode[1:], "--max-len"]
        assert main(argv + ["3"]) == 2, mode
        assert "max_len=3" in capsys.readouterr().err
        assert main(argv + ["4"]) == 0, mode
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["wcet", "explicit", "{bad}"],
    ["wcet", "abstract", "{prog}", "--model", "{bad}"],
    ["feasibility", "{bad}"],
])
def test_input_that_is_not_utf8_exits_one(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff\xfe")
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main([a.format(bad=bad, prog=prog) for a in argv]) == 1
    assert "can't decode" in capsys.readouterr().err


def test_exhausted_budget_exits_three(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main(["wcet", "refine", prog, "--max-iters", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "wcetbound" in capsys.readouterr().out


SHARED_WCET_FLAGS = {"-h", "--help", "--capacity", "--line-size", "--hit", "--miss",
                     "--policy", "--out", "--max-len"}


@pytest.mark.parametrize("analysis, own", [
    ("explicit", {"--init"}),
    ("abstract", {"--pattern", "--model"}),
    ("refine", {"--init", "--max-iters"}),
])
def test_wcet_help_lists_only_the_flags_of_its_analysis(capsys, analysis, own):
    assert main(["wcet", analysis, "--help"]) == 0
    flags = re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out)
    assert set(flags) == SHARED_WCET_FLAGS | own


def test_repeated_calls_share_no_parsed_state(tmp_path, capsys):
    # main parses every call with one parser; no value of one call, such
    # as an appended --dur, may reach the next
    assert build_parser() is build_parser()
    out = str(tmp_path / "d.prog")
    argv = ["example", "--iterations", "1", "--branches", "0", "--out", out]
    calls = [
        ([], None),
        (["--dur", "1=7"], {1: 7}),
        ([], None),
        (["--dur", "2=5", "--dur", "3=4"], {2: 5, 3: 4}),
        (["--dur", "3=6"], {3: 6}),
    ]
    for dur, durations in calls:
        assert main(argv + dur) == 0
        want = branching_loop_program(1, 0, durations)
        assert parse_program(open(out).read()) == want, dur
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    for argv in (["simulate", "--pcs", "1,2"], ["simulate", prog],
                 ["wcet", "refine", prog, "--init", "state=1"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["wcet", "explicit", prog]) == 0
    assert "\ninit: empty\n" in capsys.readouterr().out


def test_simulate_pcs_table(tmp_path, capsys):
    rec = str(tmp_path / "sim.rec")
    assert main(["simulate", "--pcs", "1,2,3", "--capacity", "2", "--out", rec]) == 0
    text = capsys.readouterr().out
    assert "final cache (most recent first): 3,2" in text
    assert "total time: 63 cycles" in text

    recs = records_of(rec)
    (final,) = by_type(recs, "final")
    assert final == {"cache": "3,2", "accesses": "3", "time": "63"}
    steps = by_type(recs, "step")
    assert [s["cls"] for s in steps] == ["M", "M", "M"]
    assert [s["clock"] for s in steps] == ["21", "42", "63"]


def test_simulate_single_run_program(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    assert main(["simulate", prog]) == 0
    text = capsys.readouterr().out
    # cold start: pc 1 misses, pc 2 misses, the repeat of pc 1 hits
    assert "final cache (most recent first): 1,2" in text
    assert "total time: 45 cycles" in text


def test_simulate_rejects_branching_programs(tmp_path, capsys):
    prog = write(tmp_path, "forked.prog", FORKED)
    assert main(["simulate", prog]) == 1
    assert "--pcs" in capsys.readouterr().err


def test_simulate_with_warm_init(capsys):
    assert main(["simulate", "--pcs", "1", "--init", "state=1", "--hit", "3"]) == 0
    text = capsys.readouterr().out
    assert "total time: 4 cycles" in text  # hit 3 + default duration 1


def chain_edges(src, pcs, dst, tag):
    """Edges of a chain from src to dst through fresh locations tag0, tag1..."""
    locs = [src, *(f"{tag}{i}" for i in range(len(pcs) - 1)), dst]
    return [(a, pc, b) for a, pc, b in zip(locs, pcs, locs[1:])]


SEVERAL = "error: program p has several runs; pick one with --pcs\n"
TOO_LONG = "error: a run longer than max_len=5 exists\n"
PREFIX_FORK = chain_edges("A", range(1, 9), "F", "p") + [("F", 9, "E"), ("F", 10, "E")]
LONG = chain_edges("A", [2] * 10, "E", "l")


@pytest.mark.parametrize("edges, extra, code, err", [
    (chain_edges("A", [1, 2, 1], "E", "c"), [], 0, ""),
    ([("A", 1, "E"), ("A", 2, "E")], [], 1, SEVERAL),
    # an 8-step prefix, then a fork
    (PREFIX_FORK, ["--max-len", "5"], 2, TOO_LONG),
    (PREFIX_FORK, ["--max-len", "100"], 1, SEVERAL),
    # a fork into a 1-step and a 10-step branch, the short one first or last
    ([("A", 1, "E")] + LONG, ["--max-len", "5"], 2, TOO_LONG),
    ([("A", 3, "E")] + LONG, ["--max-len", "5"], 2, TOO_LONG),
    ([("A", 1, "A"), ("A", 2, "E")], [], 2,
     "error: cycle through location 'A' reaches the end: run lengths are unbounded\n"),
    # a single run beside a dead self-loop
    ([("A", 1, "E"), ("A", 2, "S"), ("S", 3, "S")], [], 0, ""),
    # two 1-step runs, then a 10-step one: any run past --max-len exits 2
    ([("A", 1, "E"), ("A", 2, "E")] + chain_edges("A", [3] * 10, "E", "l"),
     ["--max-len", "5"], 2, TOO_LONG),
    # the --pcs sequence is a run too
    (None, ["--pcs", "1,2,3", "--max-len", "1"], 2,
     "error: a run longer than max_len=1 exists\n"),
], ids=["chain", "fork", "prefix-fork-5", "prefix-fork-100", "short-long",
        "long-short", "cycle", "dead-loop", "two-short-one-long", "pcs"])
def test_simulate_exit_codes_and_messages(tmp_path, capsys, edges, extra, code, err):
    argv = ["simulate", *extra, "--out", str(tmp_path / "sim.rec")]
    if edges is not None:
        program = Program.build("p", "A", "E", edges)
        argv.append(write(tmp_path, "p.prog", serialize_program(program)))
    assert main(argv) == code
    assert capsys.readouterr().err == err


def test_feasibility_verdicts(tmp_path, capsys):
    bad = write(tmp_path, "bad.trace", INFEASIBLE_TRACE)
    rec = str(tmp_path / "feas.rec")
    assert main(["feasibility", bad, "--out", rec]) == 0
    text = capsys.readouterr().out
    assert "verdict: infeasible from every initial state" in text
    assert "minimal infeasible core (positions 0..1): 2:M 2:M" in text
    recs = records_of(rec)
    assert by_type(recs, "verdict") == [{"feasible": "no"}]
    (core,) = by_type(recs, "core")
    assert core == {"start": "0", "length": "2", "symbols": "2:M.2:M"}

    good = write(tmp_path, "good.trace", FEASIBLE_TRACE)
    assert main(["feasibility", good, "--capacity", "3"]) == 0
    text = capsys.readouterr().out
    assert "verdict: feasible" in text
    assert "initial cache (most recent first): empty" in text


def test_feasibility_at_a_huge_capacity_answers_in_bounded_memory(tmp_path):
    # the candidate family is enumerated lazily and holds no filler list,
    # so a trace realized by the empty state answers at once
    trace = write(tmp_path, "cold.trace", "pc=1 cls=M\npc=2 cls=M\n")

    def limit_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "wcetbound", "feasibility", trace,
         "--capacity", "30000000"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: feasible" in proc.stdout
    assert "initial cache (most recent first): empty" in proc.stdout


def test_fifo_refine_at_a_large_capacity_answers_in_bounded_memory(tmp_path):
    # with equal hit and miss times the first witness is all hits, a fifo
    # fresh hit on every line; the whole-witness verdict finds a realizing
    # start at once, where a symbolic sweep would name one of 4000 slots
    # per fresh hit
    prog = str(tmp_path / "ex.prog")
    assert main(["example", "--iterations", "2", "--branches", "1",
                 "--out", prog]) == 0

    def limit_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "wcetbound", "wcet", "refine", prog,
         "--policy", "fifo", "--hit", "20", "--miss", "20",
         "--capacity", "4000"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rounds = re.findall(r"^  iter \d+: .*$", proc.stdout, re.MULTILINE)
    assert rounds and "feasible=yes" in rounds[-1]


def test_feasibility_trace_parse_error(tmp_path, capsys):
    bad = write(tmp_path, "syntax.trace", "pc=1 cls=Q\n")
    assert main(["feasibility", bad]) == 1
    assert "cls" in capsys.readouterr().err
    # every trace error names its line
    bad = write(tmp_path, "pc.trace", "pc=1 cls=M\npc=0 cls=M\n")
    assert main(["feasibility", bad]) == 1
    assert capsys.readouterr().err == "error: line 2: pc must be >= 1, got 0\n"


@pytest.mark.parametrize("instr, err", [
    ("instr pc=1 dur=-2", "error: line 4: duration for pc=1 must be >= 0\n"),
    ("instr pc=7 dur=2",
     "error: line 4: duration given for pc=7, which no edge executes\n"),
], ids=["negative", "no-edge"])
def test_instr_errors_name_their_line(tmp_path, capsys, instr, err):
    text = CHAIN_121.replace("edge A B", f"{instr}\nedge A B")
    assert main(["wcet", "explicit", write(tmp_path, "p.prog", text)]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("model, err", [
    ("alphabet *:H *:M\nstate ok accepting\ninitial ko\n",
     "error: line 3: initial state 'ko' not declared\n"),
    ("alphabet *:H *:M\nstate ok accepting\ninitial ok\ntrans ok *:M ko\n",
     "error: line 4: transition uses undeclared state 'ko'\n"),
], ids=["initial", "trans"])
def test_model_errors_name_their_line(tmp_path, capsys, model, err):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    bad = write(tmp_path, "bad.model", model)
    assert main(["wcet", "abstract", prog, "--model", bad]) == 1
    assert capsys.readouterr().err == err


def test_sweep_table_and_agreement(tmp_path, capsys):
    rec = str(tmp_path / "sweep.rec")
    assert main(["sweep", "--iterations", "3", "--branches", "1..3",
                 "--out", rec]) == 0
    text = capsys.readouterr().out
    assert "(!)" not in text  # explicit and abstract always agree here

    recs = records_of(rec)
    rows = by_type(recs, "row")
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    assert [r["wcet"] for r in rows] == ["198"] * 3
    assert [r["explicit_states"] for r in rows] == ["19", "25", "31"]
    assert [r["abstract_states"] for r in rows] == ["13"] * 3
    for r in rows:
        assert r["explicit_wcet"] == r["abstract_wcet"] == "198"


def test_sweep_output_is_byte_identical_across_runs(tmp_path, capsys):
    a = str(tmp_path / "a.rec")
    b = str(tmp_path / "b.rec")
    args = ["sweep", "--iterations", "2", "--branches", "1..2"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


def test_sweep_rejects_a_bad_pattern_before_printing(tmp_path, capsys):
    rec = tmp_path / "r.rec"
    for modes in ("explicit,abstract", "abstract"):
        argv = ["sweep", "--branches", "0..1", "--pattern", "(",
                "--modes", modes, "--out", str(rec)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "'('" in err
    assert not rec.exists()
    # explicit alone never reads the pattern
    assert main(["sweep", "--iterations", "1", "--branches", "1",
                 "--pattern", "(", "--modes", "explicit"]) == 0
    capsys.readouterr()


def test_sweep_prints_nothing_when_a_row_fails(tmp_path, capsys):
    # "H" parses, but no complete run is all hits; the first abstract row
    # finds that, and no table line may be printed before it
    rec = tmp_path / "r.rec"
    assert main(["sweep", "--iterations", "1", "--branches", "0..1",
                 "--pattern", "H", "--out", str(rec)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the model allows no complete run of the program\n"
    assert not rec.exists()


def test_refine_iteration_lines_match_their_records(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    rec = str(tmp_path / "r.rec")
    assert main(["wcet", "refine", prog, "--init", "state=1,2", "--out", rec]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = [line.strip() for line in out if line.startswith("  iter ")]
    iters = by_type(records_of(rec), "iteration")
    assert len(lines) == len(iters) == 4
    for line, fields in zip(lines, iters):
        rest = " ".join(f"{k}={v}" for k, v in fields.items() if k != "idx")
        assert line == f"iter {fields['idx']}: {rest}"


def test_simulate_rows_match_their_step_records(tmp_path, capsys):
    rec = str(tmp_path / "r.rec")
    assert main(["simulate", "--pcs", "1,2,3,1", "--capacity", "3", "--out", rec]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-2]
    steps = by_type(records_of(rec), "step")
    assert len(rows) == len(steps) == 4
    for row, fields in zip(rows, steps):
        assert row.split() == list(fields.values())


def test_sweep_rows_match_their_row_records(tmp_path, capsys):
    rec = str(tmp_path / "r.rec")
    # the columns stay explicit then abstract whatever the --modes order
    assert main(["sweep", "--iterations", "3", "--branches", "1..3",
                 "--modes", "abstract,explicit", "--out", rec]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "states(explicit)", "states(abstract)", "wcet"]
    recs = records_of(rec)
    assert by_type(recs, "meta")[0]["modes"] == "abstract,explicit"
    fields = by_type(recs, "row")
    assert len(rows) == len(fields) == 3
    for row, r in zip(rows, fields):
        columns = [r["n"], r["explicit_states"], r["abstract_states"], r["wcet"]]
        assert row.split() == columns


def test_machine_records_have_no_spaces_in_values(tmp_path, capsys):
    prog = write(tmp_path, "chain.prog", CHAIN_121)
    rec = str(tmp_path / "r.rec")
    for argv in (
        ["wcet", "refine", prog],
        # pattern whitespace is insignificant and left out of the record
        ["sweep", "--iterations", "1", "--branches", "1", "--pattern", "(M . H)*"],
    ):
        assert main(argv + ["--out", rec]) == 0
        for line in open(rec).read().splitlines():
            for field in line.split()[1:]:
                assert "=" in field
    assert by_type(records_of(rec), "meta")[0]["pattern"] == "(M.H)*"
    capsys.readouterr()


def reference_render(records):
    """The renderer as it was: every value scanned character by character."""
    lines = []
    for rtype, fields in records:
        parts = [rtype]
        for key, value in fields:
            text = str(value)
            if any(ch.isspace() for ch in text):
                raise AssertionError(f"machine value may not contain spaces: {text!r}")
            parts.append(f"{key}={text}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def test_renderer_matches_the_per_character_reference(tmp_path, capsys, monkeypatch):
    rendered = []
    real = cli_module._render_records

    def render(records):
        records = list(records)
        rendered.append(records)
        return real(records)

    monkeypatch.setattr(cli_module, "_render_records", render)
    prog = write(tmp_path, "forked.prog", FORKED)
    trace = write(tmp_path, "bad.trace", INFEASIBLE_TRACE)
    good = write(tmp_path, "good.trace", FEASIBLE_TRACE)
    rec = str(tmp_path / "r.rec")
    for argv in (
        ["wcet", "explicit", prog, "--init", "state=2"],
        ["wcet", "abstract", prog, "--pattern", "(M.H)*"],
        ["wcet", "refine", prog, "--init", "empty"],
        ["simulate", "--pcs", "1,2,3,1,2", "--capacity", "2"],
        ["sweep", "--iterations", "2", "--branches", "0..2"],
        ["feasibility", trace],
        ["feasibility", good, "--capacity", "3"],
    ):
        rendered.clear()
        assert main(argv + ["--out", rec]) == 0, argv
        (records,) = rendered
        assert open(rec).read() == reference_render(records)
    capsys.readouterr()


@pytest.mark.parametrize("space", [" ", "\t", "\n", "\x1c", "\u2003"])
def test_renderer_names_a_value_that_holds_whitespace(space):
    bad = f"a{space}b"
    records = [
        ("run", [("command", "wcet"), ("init", "empty")]),
        ("result", [("wcet", 7), ("note", bad), ("other", f"{space}c")]),
    ]
    want = f"machine value may not contain spaces: {bad!r}"
    for render in (cli_module._render_records, reference_render):
        with pytest.raises(AssertionError) as err:
            render(records)
        assert str(err.value) == want


def test_step_records_cost_each_pc_and_classification_once(monkeypatch):
    asked = []
    real = cli_module.step_cost

    def counted(pc, cls, durations, config):
        asked.append((pc, cls))
        return real(pc, cls, durations, config)

    monkeypatch.setattr(cli_module, "step_cost", counted)
    rng = random.Random(97)
    for i in range(40):
        program = random_program(rng, name=f"s{i}")
        config = random_config(rng)
        witness = explore_explicit(program, config).witness
        asked.clear()
        records = cli_module._steps_records(witness, program.durations, config)
        assert sorted(asked) == sorted({(a.pc, a.cls) for a in witness})
        clock = 0
        for idx, (a, (rtype, fields)) in enumerate(zip(witness, records)):
            cost = real(a.pc, a.cls, program.durations, config)
            clock += cost.total
            assert (rtype, fields) == ("step", [
                ("idx", idx), ("pc", a.pc), ("line", a.line),
                ("cls", a.cls.letter), ("fetch", cost.fetch_cycles),
                ("execute", cost.execute_cycles), ("clock", clock),
            ])
        assert len(records) == len(witness)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wcetbound", "simulate", "--pcs", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total time:" in proc.stdout
