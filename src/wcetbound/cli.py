"""Command-line front end.

Subcommands: ``wcet`` (explicit / abstract / refine analyses), ``example``
(generate a branching-loop program file), ``sweep`` (table over branch
counts), ``simulate`` (classify a pc sequence), ``feasibility`` (check a
classified trace file).

Exit codes: 0 success, 1 malformed or invalid input (including usage
errors), 2 run-length bound exceeded, 3 refinement iteration budget
exceeded.

Besides the human-readable report on stdout, every subcommand can write a
machine-readable report with ``--out``: line-oriented ``record key=value``
rows, fully deterministic (sorted, no timestamps), documented in the
README.  Each subcommand computes every reported value once, prints its
human line and appends its record from that one value, and returns the
records; ``main`` renders and writes them only after the subcommand
returns, so a failing command writes nothing.  A trace's ``step`` lines are
made as text when the report is rendered, from one field text per
(pc, classification), not from a record per step.

Usage rules live in the parser: ``wcet`` has one sub-parser per analysis,
each subcommand and analysis declares only the flags it reads, and every
option value is parsed by the ``type=`` function it is declared with, so a
value of the wrong form is a usage error.  Ranges that the library checks
are not parser rules: ``--capacity`` and ``--line-size`` must be >= 1,
``--hit`` >= 0 and ``--miss`` >= ``--hit`` (``CacheConfig``), and
``--max-iters``, ``example --iterations`` and ``sweep --iterations`` must be
>= 1 and ``example --branches`` >= 0.  Such a value exits 1 with
``error: … must be >= …`` and no usage line.  The handlers compute and
report; they raise only for rules that need file contents or the cache
config.  ``main`` builds the parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Iterable, Iterator, Sequence

from .cache import (
    CacheConfig,
    CacheState,
    Classification,
    ClassifiedAccess,
    ClassifiedTrace,
    ReplacementPolicy,
    access,
    simulate,
    validate_state,
)
from .classifier import from_pattern, parse_model
from .errors import (
    AnalysisError,
    BoundExceeded,
    IterationBudgetExceeded,
    ParseError,
    ValidationError,
    token_lines,
)
from .explorer import explore_abstract, explore_explicit
from .program import (
    branching_loop_program,
    longest_run,
    parse_program,
    serialize_program,
    single_run,
)
from .refinement import (
    is_feasible_from_some_state,
    infeasible_core,
    realizable_from,
    run_refinement,
)
from .timing import StepCost, step_cost

Record = tuple[str, list[tuple[str, object]]]

# ``example`` prints a run count with more digits than this as a power.  It
# stays below 640, the lowest limit Python may set on int-to-decimal conversion.
_RUN_COUNT_DIGITS = 100


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this package reserves 2 for
    BoundExceeded, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _render_records(records: Iterable[Record | _Steps]) -> str:
    lines = []
    for record in records:
        if isinstance(record, _Steps):
            lines.extend(record)
            continue
        rtype, fields = record
        parts = [rtype, *[f"{key}={value!s}" for key, value in fields]]
        line = " ".join(parts)
        # Splitting the joined line gives its parts back unless some part
        # holds whitespace (or is empty); only then are the values scanned,
        # to name the first that holds whitespace.
        if line.split() != parts:
            for _, value in fields:
                text = str(value)
                if any(ch.isspace() for ch in text):
                    raise AssertionError(
                        f"machine value may not contain spaces: {text!r}"
                    )
        lines.append(line)
    # The final newline is an empty last line: adding it after the join
    # would copy the whole report once more, at the run's memory peak.
    lines.append("")
    return "\n".join(lines)


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except ValueError as exc:  # a NUL byte in the path
        raise ParseError(f"cannot write {path!r}: {exc}") from None


def _state_token(state: CacheState) -> str:
    return ",".join(str(line) for line in state) if state else "empty"


def _witness_text(trace: ClassifiedTrace) -> str:
    """The accesses' ``pc:H|M`` tokens, each made once per (pc, cls)."""
    keys = [(a.pc, a.cls) for a in trace]
    tokens = dict.fromkeys(keys)
    for pc, cls in tokens:
        tokens[pc, cls] = f"{pc}:{cls.letter}"
    return " ".join(map(tokens.__getitem__, keys))


def _core_token(core: ClassifiedTrace) -> str:
    return ".".join(f"{a.line}:{a.cls.letter}" for a in core)


def _check_max_len(length: int, max_len: int) -> None:
    if length > max_len:
        raise BoundExceeded(f"a run longer than max_len={max_len} exists")


def _config_record(config: CacheConfig, init_text: str, args) -> Record:
    bounds = [(key, getattr(args, key)) for key in ("max_len", "max_iters")
              if key in vars(args)]
    return (
        "config",
        [
            ("capacity", config.capacity),
            ("line_size", config.line_size),
            ("hit_time", config.hit_time),
            ("miss_time", config.miss_time),
            ("policy", config.policy.value),
            ("init", init_text),
            *bounds,
        ],
    )


def _config_from_args(args) -> CacheConfig:
    return CacheConfig(
        capacity=args.capacity,
        line_size=args.line_size,
        hit_time=args.hit,
        miss_time=args.miss,
        policy=ReplacementPolicy(args.policy),
    )


def _init_token(state: CacheState | None) -> str:
    return "unknown" if state is None else _state_token(state)


def parse_trace_text(text: str, config: CacheConfig) -> ClassifiedTrace:
    """Trace file format: one ``pc=<int> cls=<H|M>`` per line."""
    out: list[ClassifiedAccess] = []
    for line_no, tokens in token_lines(text):
        if len(tokens) != 2 or not tokens[0].startswith("pc=") or not tokens[
            1
        ].startswith("cls="):
            raise ParseError("expected 'pc=<int> cls=<H|M>'", line_no)
        try:
            pc = int(tokens[0][3:])
        except ValueError:
            raise ParseError("pc must be an integer", line_no) from None
        if pc < 1:
            raise ParseError(f"pc must be >= 1, got {pc}", line_no)
        letter = tokens[1][4:]
        try:
            cls = Classification.from_letter(letter)
        except ValueError:
            raise ParseError("cls must be H or M", line_no) from None
        out.append(ClassifiedAccess(pc, config.line_of(pc), cls))
    return tuple(out)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:  # not UTF-8, or a NUL byte in the path
        raise ParseError(f"cannot read {path!r}: {exc}") from None


class _Steps:
    """The ``step`` records of a trace, made as text only when iterated,
    which only ``_render_records`` does.

    Each line is ``step idx=<i> <fields> clock=<cycles so far>``.  The step
    cost and the field text ``pc=… line=… cls=… fetch=… execute=…`` are made
    once per (pc, classification) and shared by every access with that pair.
    Every value is an int or H/M, so no line needs ``_render_records``'
    whitespace check."""

    def __init__(self, trace: ClassifiedTrace, durations, config: CacheConfig):
        self.trace = trace
        self.durations = durations
        self.config = config
        # (pc, cls) -> (cycles, field text, StepCost); the cycles are kept
        # beside the cost so that a line reads no ``StepCost.total`` property.
        self._made: dict = {}

    def entry(self, a: ClassifiedAccess) -> tuple[int, str, StepCost]:
        """The cycles, field text and step cost of an access like ``a``."""
        entry = self._made.get((a.pc, a.cls))
        if entry is None:
            cost = step_cost(a.pc, a.cls, self.durations, self.config)
            entry = self._made[a.pc, a.cls] = (
                cost.total,
                f"pc={a.pc} line={a.line} cls={a.cls.letter} "
                f"fetch={cost.fetch_cycles} execute={cost.execute_cycles}",
                cost,
            )
        return entry

    def __iter__(self) -> Iterator[str]:
        made = self._made
        clock = 0
        for idx, a in enumerate(self.trace):
            cycles, fields, _ = made.get((a.pc, a.cls)) or self.entry(a)
            clock += cycles
            yield f"step idx={idx} {fields} clock={clock}"


def cmd_wcet(args) -> list[Record | _Steps]:
    config = _config_from_args(args)
    program = parse_program(_read_file(args.program))
    init = args.init
    if init:
        validate_state(init, config)
    if args.analysis == "abstract":
        lines = program.lines(config)
        model = (from_pattern(args.pattern, lines) if args.model is None
                 else parse_model(_read_file(args.model), lines=lines))
    _check_max_len(longest_run(program), args.max_len)

    started = time.perf_counter()
    if args.analysis == "explicit":
        result = explore_explicit(program, config, init=init)
    elif args.analysis == "abstract":
        result = explore_abstract(program, model, config)
    else:
        result = run_refinement(program, config, max_iters=args.max_iters)
    elapsed = time.perf_counter() - started

    print(f"program: {program.name} ({args.program})")
    print(f"mode: {args.analysis}")
    print(
        f"cache: capacity={config.capacity} line_size={config.line_size} "
        f"hit={config.hit_time} miss={config.miss_time} "
        f"policy={config.policy.value}"
    )
    init_token = _init_token(init)
    print(f"init: {init_token}")
    print(f"wcet: {result.wcet} cycles")
    print(f"witness ({len(result.witness)} steps): {_witness_text(result.witness)}")
    result_fields: list[tuple[str, object]] = [
        ("wcet", result.wcet),
        ("witness_len", len(result.witness)),
    ]
    iterations: list[Record] = []
    if args.analysis != "refine":
        print(f"states explored: {result.states_explored}")
        result_fields.append(("states_explored", result.states_explored))
    else:
        print(f"iterations: {len(result.log)}")
        for step in result.log:
            fields: list[tuple[str, object]] = [
                ("wcet", step.wcet),
                ("witness_len", len(step.witness)),
                ("feasible", "yes" if step.feasible else "no"),
                ("model_states", step.model_states),
            ]
            if step.core is not None:
                fields.append(("core", _core_token(step.core)))
            text = " ".join(f"{key}={value}" for key, value in fields)
            print(f"  iter {step.index}: {text}")
            iterations.append(("iteration", [("idx", step.index), *fields]))
        initial = _state_token(result.initial_state)
        print(f"witness initial state: {initial}")
        result_fields.append(("iterations", len(result.log)))
        result_fields.append(("witness_initial", initial))
        if init is not None:
            ok = "yes" if realizable_from(init, result.witness, config) else "no"
            print(f"witness realizable from --init {init_token}: {ok}")
            result_fields.append(("witness_from_init", ok))
    print(f"elapsed: {elapsed:.3f}s")
    return [
        ("run", [("command", "wcet"), ("mode", args.analysis), ("program", program.name)]),
        _config_record(config, init_token, args),
        ("result", result_fields),
        *iterations,
        _Steps(result.witness, program.durations, config),
    ]


def cmd_example(args) -> None:
    program = branching_loop_program(
        args.iterations, args.branches, dict(args.dur or ()) or None, name=args.name
    )
    text = serialize_program(program)
    if args.out:
        _write_out(args.out, text)
        choices = args.branches + 1
        runs = choices ** args.iterations
        if runs >= 10 ** _RUN_COUNT_DIGITS:
            runs = f"{choices}^{args.iterations}"
        print(
            f"wrote {args.out}: {args.iterations} iterations, "
            f"{choices} branch choices, {runs} runs"
        )
    else:
        sys.stdout.write(text)


def cmd_sweep(args) -> list[Record]:
    config = _config_from_args(args)
    lo, hi = args.branches
    analyses = {
        "explicit": lambda program: explore_explicit(program, config),
        "abstract": lambda program: explore_abstract(
            program, from_pattern(args.pattern, program.lines(config)), config
        ),
    }

    records: list[Record] = [
        (
            "meta",
            [
                ("command", "sweep"),
                ("iterations", args.iterations),
                ("branches_lo", lo),
                ("branches_hi", hi),
                ("modes", ",".join(args.modes)),
                # Whitespace means nothing in a pattern, and record values
                # may not hold any.
                ("pattern", "".join(args.pattern.split())),
            ],
        ),
        _config_record(config, "empty", args),
    ]
    # columns in table order, not --modes order
    columns = [mode for mode in analyses if mode in args.modes]
    header = "".join(f" {f'states({mode})':>17}" for mode in columns)
    # printed whole, so a row that fails leaves no output
    table = [f"{'n':>4}{header} {'wcet':>8}"]
    for n in range(lo, hi + 1):
        program = branching_loop_program(args.iterations, n)
        fields: list[tuple[str, object]] = [("n", n)]
        row = f"{n:>4}"
        wcets: list[int] = []
        for mode in columns:
            result = analyses[mode](program)
            fields.append((f"{mode}_wcet", result.wcet))
            fields.append((f"{mode}_states", result.states_explored))
            row += f" {result.states_explored:>17}"
            wcets.append(result.wcet)
        marker = "" if len(set(wcets)) == 1 else " (!)"
        fields.append(("wcet", wcets[0]))
        table.append(f"{row} {wcets[0]:>8}{marker}")
        records.append(("row", fields))
    print("\n".join(table))
    return records


def cmd_simulate(args) -> list[Record | _Steps]:
    config = _config_from_args(args)
    if args.pcs is not None:
        pcs = args.pcs
        _check_max_len(len(pcs), args.max_len)
        durations = {pc: 1 for pc in pcs}
        source = [("source", "pcs")]
    else:
        program = parse_program(_read_file(args.program))
        _check_max_len(longest_run(program), args.max_len)
        pcs = single_run(program)
        if pcs is None:
            raise ValidationError(
                f"program {program.name} has several runs; pick one with --pcs"
            )
        durations = program.durations
        source = [("source", "program"), ("program", program.name)]

    trace = simulate(config, args.init, pcs)
    steps = _Steps(trace, durations, config)
    print(f"{'#':>3} {'pc':>6} {'line':>6} {'cls':>3} {'fetch':>6} {'exec':>6} {'clock':>8}")
    state = args.init
    clock = 0
    for idx, a in enumerate(trace):
        state, _ = access(state, a.line, config)
        cycles, _, cost = steps.entry(a)
        clock += cycles
        print(
            f"{idx:>3} {a.pc:>6} {a.line:>6} {a.cls.letter:>3} "
            f"{cost.fetch_cycles:>6} {cost.execute_cycles:>6} {clock:>8}"
        )
    cache = _state_token(state)
    print(f"final cache (most recent first): {cache}")
    print(f"total time: {clock} cycles")
    return [
        ("run", [("command", "simulate")] + source),
        _config_record(config, _init_token(args.init), args),
        steps,
        ("final", [("cache", cache), ("accesses", len(trace)), ("time", clock)]),
    ]


def cmd_feasibility(args) -> list[Record]:
    config = _config_from_args(args)
    trace = parse_trace_text(_read_file(args.trace), config)
    verdict = is_feasible_from_some_state(trace, config)
    records: list[Record] = [
        ("run", [("command", "feasibility"), ("accesses", len(trace))]),
        _config_record(config, "unknown", args),
    ]
    print(f"trace: {len(trace)} accesses")
    if verdict.feasible:
        initial = _state_token(verdict.initial_state)
        print("verdict: feasible")
        print(f"initial cache (most recent first): {initial}")
        records.append(("verdict", [("feasible", "yes"), ("initial", initial)]))
    else:
        core = infeasible_core(trace, config)
        start = next(
            i
            for i in range(len(trace) - len(core) + 1)
            if trace[i : i + len(core)] == core
        )
        print("verdict: infeasible from every initial state")
        print(
            f"minimal infeasible core (positions {start}..{start + len(core) - 1}): "
            f"{_witness_text(core)}"
        )
        records.append(("verdict", [("feasible", "no")]))
        records.append(
            (
                "core",
                [
                    ("start", start),
                    ("length", len(core)),
                    ("symbols", _core_token(core)),
                ],
            )
        )
    return records


# Option types.  argparse turns their ArgumentTypeError into a usage error
# that names the option.


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    """A comma list of integers, as ``--pcs`` and ``--init state=`` take."""
    return tuple(_int(tok) for tok in text.split(",") if tok != "")


def _init_type(*words: str):
    """An ``--init`` type: ``state=<lines>`` or one of ``words`` (empty,
    unknown) names a cache state, None for unknown."""

    def init(text: str) -> CacheState | None:
        if text in words:
            return None if text == "unknown" else ()
        if text.startswith("state="):
            return _ints(text[len("state="):])
        raise argparse.ArgumentTypeError(
            f"expected {' | '.join(words)} | state=<lines>, got {text!r}"
        )

    return init


def _non_negative(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _branch_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    lo, hi = _int(lo), _int(hi if sep else lo)
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= LO <= HI, got {text!r}")
    return lo, hi


def _modes(text: str) -> tuple[str, ...]:
    modes = tuple(m.strip() for m in text.split(",") if m.strip())
    if not modes or not set(modes) <= {"explicit", "abstract"}:
        raise argparse.ArgumentTypeError(f"expected explicit,abstract, got {text!r}")
    return modes


def _duration(text: str) -> tuple[int, int]:
    pc, sep, cycles = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected PC=CYCLES, got {text!r}")
    return _int(pc), _int(cycles)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves it unchanged, so ``main``
    reuses it."""
    parser = _Parser(
        prog="wcetbound",
        description="Execution-time bounds on an instruction-cache + pipeline model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--capacity", type=int, default=2, help="cache slots")
    shared.add_argument("--line-size", type=int, default=1, dest="line_size",
                        help="instructions per cache line (line = pc // line-size)")
    shared.add_argument("--hit", type=int, default=2, help="fetch cycles on a hit")
    shared.add_argument("--miss", type=int, default=20, help="fetch cycles on a miss")
    shared.add_argument("--policy", choices=["promote", "fifo"], default="promote",
                        help="promote: move hit lines to the front; fifo: never reorder")
    shared.add_argument("--out", help="write a machine-readable report here")
    max_len = argparse.ArgumentParser(add_help=False)
    max_len.add_argument("--max-len", type=_non_negative, default=10_000,
                         dest="max_len", help="longest program run to tolerate")
    bounded = [shared, max_len]

    p_wcet = sub.add_parser("wcet", help="compute a worst-case execution time")
    analyses = p_wcet.add_subparsers(dest="analysis", required=True)

    def analysis(name: str, help: str) -> argparse.ArgumentParser:
        p = analyses.add_parser(name, parents=bounded, help=help)
        p.add_argument("program", help="program file")
        p.set_defaults(handler=cmd_wcet)
        return p

    p_explicit = analysis("explicit", "concrete cache states from a known start")
    p_explicit.add_argument("--init", type=_init_type("empty"), default=(),
                            help="empty | state=<line,line,...>")
    p_abstract = analysis("abstract", "a classifier automaton instead of cache states")
    classifier = p_abstract.add_mutually_exclusive_group(required=True)
    classifier.add_argument("--pattern", help='classification pattern, e.g. "(M.H.M.M)*"')
    classifier.add_argument("--model", help="classifier automaton file")
    p_abstract.set_defaults(init=())  # reported as init=empty; no state is read
    p_refine = analysis("refine", "refine the universal classifier for an unknown start")
    p_refine.add_argument("--init", type=_init_type("empty", "unknown"), default=None,
                          help="empty | unknown | state=<line,line,...>")
    p_refine.add_argument("--max-iters", type=int, default=10_000, dest="max_iters",
                          help="refinement iteration budget")

    p_example = sub.add_parser(
        "example", help="generate a branching-loop program file"
    )
    p_example.add_argument("--iterations", type=int, default=5,
                           help="loop iterations (unrolled)")
    p_example.add_argument("--branches", type=int, default=1,
                           help="extra branch choices per iteration (choices = branches+1)")
    p_example.add_argument("--dur", action="append", type=_duration,
                           metavar="PC=CYCLES",
                           help="override an instruction duration (repeatable)")
    p_example.add_argument("--name", default="branching-loop")
    p_example.add_argument("--out", help="program file to write (default: stdout)")
    p_example.set_defaults(handler=cmd_example)

    p_sweep = sub.add_parser(
        "sweep", parents=[shared],
        help="explicit vs abstract state counts over a branch-count range",
    )
    p_sweep.add_argument("--iterations", type=int, default=5)
    p_sweep.add_argument("--branches", type=_branch_range, default=(1, 10),
                         help="N or LO..HI (default 1..10)")
    p_sweep.add_argument("--pattern", default="(M.H.M.M)*",
                         help="abstract model for every row")
    p_sweep.add_argument("--modes", type=_modes, default=("explicit", "abstract"),
                         help="comma list of explicit,abstract")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_sim = sub.add_parser(
        "simulate", parents=bounded, help="classify one access sequence"
    )
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("program", nargs="?", help="single-run program file")
    source.add_argument("--pcs", type=_ints, help="comma-separated pc sequence")
    p_sim.add_argument("--init", type=_init_type("empty"), default=(),
                       help="empty | state=<line,line,...>")
    p_sim.set_defaults(handler=cmd_simulate)

    p_feas = sub.add_parser(
        "feasibility", parents=[shared],
        help="is a classified trace realizable from any initial cache?",
    )
    p_feas.add_argument("trace", help="trace file: one 'pc=<int> cls=<H|M>' per line")
    p_feas.set_defaults(handler=cmd_feasibility)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        records = args.handler(args)  # None from example, which writes no report
        if records is not None and args.out:
            _write_out(args.out, _render_records(records))
        return 0
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BoundExceeded):
            return 2
        return 3 if isinstance(exc, IterationBudgetExceeded) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
