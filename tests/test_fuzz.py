"""Property-based fuzzing of the text parsers and the command line.

Whatever the input, a parser either returns or raises an AnalysisError,
and ``main`` returns one of its documented exit codes (0-3).  Inputs mix
the formats' own keywords with arbitrary text, so that they reach past the
first token.  Runs are derandomized: the same examples every time.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wcetbound import AnalysisError, CacheConfig, parse_model, parse_program
from wcetbound.cli import main, parse_trace_text

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

PROGRAM_WORDS = [
    "program", "entry", "end", "instr", "edge", "p", "A", "B", "C",
    "pc=1", "pc=2", "pc=0", "pc=x", "dur=3", "dur=-1", "#",
]
MODEL_WORDS = [
    "alphabet", "state", "initial", "trans", "accepting", "s0", "s1",
    "1:H", "1:M", "2:H", "*:H", "*:M", "1:X", "x:H", "#",
]
TRACE_WORDS = ["pc=1", "pc=2", "pc=0", "pc=", "cls=H", "cls=M", "cls=Q", "#"]


def documents(words):
    """Text of up to eight lines, each up to five words or snippets."""
    token = st.one_of(st.sampled_from(words), st.text(max_size=6))
    line = st.lists(token, max_size=5).map(" ".join)
    return st.lists(line, max_size=8).map("\n".join)


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except AnalysisError:
        pass


@FUZZ
@given(documents(PROGRAM_WORDS))
def test_program_parser_raises_only_analysis_errors(text):
    parses_or_rejects(parse_program, text)


@FUZZ
@given(documents(MODEL_WORDS), st.none() | st.lists(st.integers(-1, 3), max_size=3))
def test_model_parser_raises_only_analysis_errors(text, lines):
    parses_or_rejects(lambda t: parse_model(t, lines=lines), text)


@FUZZ
@given(documents(TRACE_WORDS), st.integers(1, 3))
def test_trace_parser_raises_only_analysis_errors(text, line_size):
    parses_or_rejects(lambda t: parse_trace_text(t, CacheConfig(line_size=line_size)), text)


FILES = {
    "chain.prog": "program chain\nentry A\nend D\nedge A B pc=1\nedge B C pc=2\nedge C D pc=1\n",
    "fork.prog": "program fork\nentry A\nend C\nedge A B pc=1\nedge B C pc=2\nedge A C pc=3\n",
    "spin.prog": "program spin\nentry A\nend B\nedge A A pc=1\nedge A B pc=2\n",
    "any.model": "alphabet *:H *:M\nstate ok accepting\ninitial ok\n"
                 "trans ok *:H ok\ntrans ok *:M ok\n",
    "bad.trace": "pc=2 cls=M\npc=2 cls=M\n",
    "good.trace": "pc=1 cls=M\npc=2 cls=M\npc=1 cls=H\n",
    "junk.txt": "edge edge\npc=1 cls=Q\nalphabet\n",
}
VALUED_FLAGS = [
    "--capacity", "--line-size", "--hit", "--miss", "--policy", "--max-len",
    "--max-iters", "--init", "--pattern", "--model", "--pcs", "--iterations",
    "--branches", "--modes", "--dur", "--name",
]
VALUES = [
    "-1", "0", "1", "2", "3", "4", "1..3", "fifo", "promote", "empty",
    "unknown", "state=1", "state=1,2", "1,2,1", "1=3", "M*", "(M.H.M.M)*",
    "(M . H)*", "explicit,abstract",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    (root / "latin1.prog").write_bytes(b"\xff\xfe")
    return root


def argvs(root):
    """A command, its positional arguments, then flags with values.  Every
    slot takes arbitrary text as well as the words that fit it.  ``--out``
    always names one file in ``root``, so runs write nowhere else."""
    files = st.sampled_from([str(root / name) for name in [*FILES, "latin1.prog", "missing"]])
    text = st.text(max_size=5)
    positionals = {
        "wcet": st.tuples(st.sampled_from(["explicit", "abstract", "refine"]) | text,
                          files | text),
        "feasibility": st.lists(files | text, max_size=1),
        "simulate": st.lists(files | text, max_size=1),
        "sweep": st.lists(text, max_size=1),
        "example": st.lists(text, max_size=1),
    }
    option = (
        st.tuples(st.sampled_from(VALUED_FLAGS), st.sampled_from(VALUES) | files | text)
        | st.just(("--out", str(root / "out.rec")))
        | st.just(("--help",))
    )
    return st.sampled_from(list(positionals)).flatmap(
        lambda cmd: st.tuples(st.just([cmd]), positionals[cmd], st.lists(option, max_size=4))
    ).map(lambda t: [*t[0], *t[1], *(part for opt in t[2] for part in opt)])


@FUZZ
@given(data=st.data())
def test_main_returns_a_documented_exit_code(workdir, data, capsys):
    argv = data.draw(argvs(workdir))
    assert main(argv) in (0, 1, 2, 3), argv
    capsys.readouterr()
