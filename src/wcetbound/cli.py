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
README.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, Sequence

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
from .classifier import ClassifierAutomaton, from_pattern, parse_model
from .errors import (
    AnalysisError,
    BoundExceeded,
    IterationBudgetExceeded,
    ParseError,
    ValidationError,
)
from .explorer import ExplorationResult, explore_abstract, explore_explicit
from .program import (
    Program,
    branching_loop_program,
    ensure_bounded,
    language_sequences,
    longest_run,
    parse_program,
    serialize_program,
)
from .refinement import (
    RefinementResult,
    is_feasible_from_some_state,
    infeasible_core,
    realizable_from,
    run_refinement,
)
from .timing import step_cost

Record = tuple[str, list[tuple[str, object]]]


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this package reserves 2 for
    BoundExceeded, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _render_records(records: Iterable[Record]) -> str:
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


def _write_out(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except ValueError as exc:  # a NUL byte in the path
            raise ParseError(f"cannot write {path!r}: {exc}") from None


def _state_token(state: CacheState) -> str:
    return ",".join(str(line) for line in state) if state else "empty"


def _witness_text(trace: ClassifiedTrace) -> str:
    return " ".join(str(a) for a in trace)


def _core_token(core: ClassifiedTrace) -> str:
    return ".".join(f"{a.line}:{a.cls.letter}" for a in core)


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


def _parse_init(text: str | None, default: str) -> tuple[str, CacheState | None]:
    """Returns (kind, state): kind in {empty, unknown, state}."""
    if text is None:
        text = default
    if text == "empty":
        return "empty", ()
    if text == "unknown":
        return "unknown", None
    if text.startswith("state="):
        body = text[len("state="):]
        try:
            state = tuple(int(tok) for tok in body.split(",") if tok != "")
        except ValueError:
            raise ValidationError(f"bad --init line list: {body!r}") from None
        return "state", state
    raise ValidationError(
        f"--init must be empty, unknown, or state=<lines>, got {text!r}"
    )


def _init_token(kind: str, state: CacheState | None) -> str:
    if kind == "unknown":
        return "unknown"
    return _state_token(state or ())


def parse_trace_text(text: str, config: CacheConfig) -> ClassifiedTrace:
    """Trace file format: one ``pc=<int> cls=<H|M>`` per line."""
    out: list[ClassifiedAccess] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2 or not tokens[0].startswith("pc=") or not tokens[
            1
        ].startswith("cls="):
            raise ParseError("expected 'pc=<int> cls=<H|M>'", line_no)
        try:
            pc = int(tokens[0][3:])
        except ValueError:
            raise ParseError("pc must be an integer", line_no) from None
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


def _load_model(
    args, program: Program, config: CacheConfig
) -> ClassifierAutomaton:
    lines = program.lines(config)
    if args.pattern is not None and args.model is not None:
        raise ValidationError("give --pattern or --model, not both")
    if args.pattern is not None:
        return from_pattern(args.pattern, lines)
    if args.model is not None:
        return parse_model(_read_file(args.model), lines=lines)
    raise ValidationError("abstract mode needs --pattern or --model")


def _steps_records(
    trace: ClassifiedTrace, durations, config: CacheConfig
) -> list[Record]:
    records: list[Record] = []
    clock = 0
    for idx, a in enumerate(trace):
        cost = step_cost(a.pc, a.cls, durations, config)
        clock += cost.total
        records.append(
            (
                "step",
                [
                    ("idx", idx),
                    ("pc", a.pc),
                    ("line", a.line),
                    ("cls", a.cls.letter),
                    ("fetch", cost.fetch_cycles),
                    ("execute", cost.execute_cycles),
                    ("clock", clock),
                ],
            )
        )
    return records


def cmd_wcet(args) -> int:
    config = _config_from_args(args)
    program = parse_program(_read_file(args.program))
    default_init = "unknown" if args.analysis == "refine" else "empty"
    init_kind, init_state = _parse_init(args.init, default_init)
    if init_state:
        validate_state(init_state, config)
    if args.analysis in ("explicit", "abstract") and init_kind == "unknown":
        raise ValidationError(
            "--init unknown needs the refine analysis; explicit and abstract "
            "modes analyze a known initial state"
        )
    if args.analysis != "abstract" and (args.pattern or args.model):
        raise ValidationError(
            f"--pattern/--model apply to abstract mode, not {args.analysis}"
        )

    if args.analysis == "abstract":
        if init_state not in (None, ()):
            raise ValidationError(
                "abstract mode ignores cache contents; --init state=... "
                "is not meaningful here"
            )
        model = _load_model(args, program, config)
    if longest_run(program, ensure_bounded(program)) > args.max_len:
        raise BoundExceeded(f"a run longer than max_len={args.max_len} exists")

    started = time.perf_counter()
    refinement: RefinementResult | None = None
    if args.analysis == "explicit":
        result = explore_explicit(program, config, init=init_state or ())
    elif args.analysis == "abstract":
        result = explore_abstract(program, model, config)
    else:
        refinement = run_refinement(program, config, max_iters=args.max_iters)
        result = ExplorationResult(
            refinement.wcet,
            refinement.witness,
            refinement.log[-1].model_states,
            "refine",
        )
    elapsed = time.perf_counter() - started

    print(f"program: {program.name} ({args.program})")
    print(f"mode: {args.analysis}")
    print(
        f"cache: capacity={config.capacity} line_size={config.line_size} "
        f"hit={config.hit_time} miss={config.miss_time} "
        f"policy={config.policy.value}"
    )
    print(f"init: {_init_token(init_kind, init_state)}")
    print(f"wcet: {result.wcet} cycles")
    print(f"witness ({len(result.witness)} steps): {_witness_text(result.witness)}")
    records: list[Record] = [
        ("run", [("command", "wcet"), ("mode", args.analysis), ("program", program.name)]),
        _config_record(config, _init_token(init_kind, init_state), args),
    ]
    result_fields: list[tuple[str, object]] = [
        ("wcet", result.wcet),
        ("witness_len", len(result.witness)),
    ]
    if refinement is None:
        print(f"states explored: {result.states_explored}")
        result_fields.append(("states_explored", result.states_explored))
    else:
        print(f"iterations: {len(refinement.log)}")
        for step in refinement.log:
            line = (
                f"  iter {step.index}: wcet={step.wcet} "
                f"witness_len={len(step.witness)} "
                f"feasible={'yes' if step.feasible else 'no'} "
                f"model_states={step.model_states}"
            )
            if step.core is not None:
                line += f" core={_core_token(step.core)}"
            print(line)
        print(f"witness initial state: {_state_token(refinement.initial_state)}")
        result_fields.append(("iterations", len(refinement.log)))
        result_fields.append(
            ("witness_initial", _state_token(refinement.initial_state))
        )
        if init_kind != "unknown":
            ok = realizable_from(init_state or (), result.witness, config)
            print(
                f"witness realizable from --init {_init_token(init_kind, init_state)}: "
                f"{'yes' if ok else 'no'}"
            )
            result_fields.append(("witness_from_init", "yes" if ok else "no"))
    print(f"elapsed: {elapsed:.3f}s")
    records.append(("result", result_fields))
    if refinement is not None:
        for step in refinement.log:
            fields: list[tuple[str, object]] = [
                ("idx", step.index),
                ("wcet", step.wcet),
                ("witness_len", len(step.witness)),
                ("feasible", "yes" if step.feasible else "no"),
                ("model_states", step.model_states),
            ]
            if step.core is not None:
                fields.append(("core", _core_token(step.core)))
            records.append(("iteration", fields))
    records.extend(_steps_records(result.witness, program.durations, config))
    _write_out(args.out, _render_records(records))
    return 0


def cmd_example(args) -> int:
    durations: dict[int, int] = {}
    for pair in args.dur or ():
        pc_text, sep, dur_text = pair.partition("=")
        if not sep:
            raise ValidationError(f"--dur takes pc=cycles, got {pair!r}")
        try:
            durations[int(pc_text)] = int(dur_text)
        except ValueError:
            raise ValidationError(f"--dur takes integers, got {pair!r}") from None
    program = branching_loop_program(
        args.iterations, args.branches, durations or None, name=args.name
    )
    text = serialize_program(program)
    if args.out:
        _write_out(args.out, text)
        print(
            f"wrote {args.out}: {args.iterations} iterations, "
            f"{args.branches + 1} branch choices, "
            f"{(args.branches + 1) ** args.iterations} runs"
        )
    else:
        sys.stdout.write(text)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise ValidationError(f"bad range {text!r}, expected N or LO..HI") from None


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    lo, hi = _parse_range(args.branches)
    if lo < 0 or hi < lo:
        raise ValidationError(f"bad branch range {args.branches!r}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in modes:
        if mode not in ("explicit", "abstract"):
            raise ValidationError(f"sweep modes are explicit/abstract, got {mode!r}")
    if not modes:
        raise ValidationError("sweep needs at least one mode")

    records: list[Record] = [
        (
            "meta",
            [
                ("command", "sweep"),
                ("iterations", args.iterations),
                ("branches_lo", lo),
                ("branches_hi", hi),
                ("modes", ",".join(modes)),
                # Whitespace means nothing in a pattern, and record values
                # may not hold any.
                ("pattern", "".join(args.pattern.split())),
            ],
        ),
        _config_record(config, "empty", args),
    ]
    header = f"{'n':>4}"
    if "explicit" in modes:
        header += f" {'states(explicit)':>17}"
    if "abstract" in modes:
        header += f" {'states(abstract)':>17}"
    header += f" {'wcet':>8}"
    print(header)
    for n in range(lo, hi + 1):
        program = branching_loop_program(args.iterations, n)
        fields: list[tuple[str, object]] = [("n", n)]
        row = f"{n:>4}"
        wcets: list[int] = []
        if "explicit" in modes:
            explicit = explore_explicit(program, config)
            fields.append(("explicit_wcet", explicit.wcet))
            fields.append(("explicit_states", explicit.states_explored))
            row += f" {explicit.states_explored:>17}"
            wcets.append(explicit.wcet)
        if "abstract" in modes:
            model = from_pattern(args.pattern, program.lines(config))
            abstract = explore_abstract(program, model, config)
            fields.append(("abstract_wcet", abstract.wcet))
            fields.append(("abstract_states", abstract.states_explored))
            row += f" {abstract.states_explored:>17}"
            wcets.append(abstract.wcet)
        marker = "" if len(set(wcets)) == 1 else " (!)"
        fields.append(("wcet", wcets[0]))
        print(row + f" {wcets[0]:>8}" + marker)
        records.append(("row", fields))
    _write_out(args.out, _render_records(records))
    return 0


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    init_kind, init_state = _parse_init(args.init, "empty")
    if init_kind == "unknown":
        raise ValidationError(
            "simulate needs a concrete --init (empty or state=<lines>)"
        )
    if (args.program is None) == (args.pcs is None):
        raise ValidationError("give a program file or --pcs, not both/neither")
    if args.pcs is not None:
        try:
            pcs = tuple(int(tok) for tok in args.pcs.split(",") if tok != "")
        except ValueError:
            raise ValidationError(f"bad --pcs list {args.pcs!r}") from None
        durations = {pc: 1 for pc in pcs}
        source = [("source", "pcs")]
    else:
        program = parse_program(_read_file(args.program))
        runs = []
        for seq in language_sequences(program, args.max_len):
            runs.append(seq)
            if len(runs) > 1:
                raise ValidationError(
                    f"program {program.name} has several runs; "
                    "pick one with --pcs"
                )
        pcs = runs[0]
        durations = program.durations
        source = [("source", "program"), ("program", program.name)]

    trace = simulate(config, init_state or (), pcs)
    state = init_state or ()
    print(f"{'#':>3} {'pc':>6} {'line':>6} {'cls':>3} {'fetch':>6} {'exec':>6} {'clock':>8}")
    clock = 0
    for idx, a in enumerate(trace):
        state, _ = access(state, a.line, config)
        cost = step_cost(a.pc, a.cls, durations, config)
        clock += cost.total
        print(
            f"{idx:>3} {a.pc:>6} {a.line:>6} {a.cls.letter:>3} "
            f"{cost.fetch_cycles:>6} {cost.execute_cycles:>6} {clock:>8}"
        )
    print(f"final cache (most recent first): {_state_token(state)}")
    print(f"total time: {clock} cycles")
    records: list[Record] = [
        ("run", [("command", "simulate")] + source),
        _config_record(config, _init_token(init_kind, init_state), args),
    ]
    records.extend(_steps_records(trace, durations, config))
    records.append(
        (
            "final",
            [
                ("cache", _state_token(state)),
                ("accesses", len(trace)),
                ("time", clock),
            ],
        )
    )
    _write_out(args.out, _render_records(records))
    return 0


def cmd_feasibility(args) -> int:
    config = _config_from_args(args)
    trace = parse_trace_text(_read_file(args.trace), config)
    verdict = is_feasible_from_some_state(trace, config)
    records: list[Record] = [
        ("run", [("command", "feasibility"), ("accesses", len(trace))]),
        _config_record(config, "unknown", args),
    ]
    print(f"trace: {len(trace)} accesses")
    if verdict.feasible:
        print("verdict: feasible")
        print(
            "initial cache (most recent first): "
            f"{_state_token(verdict.initial_state or ())}"
        )
        records.append(
            (
                "verdict",
                [
                    ("feasible", "yes"),
                    ("initial", _state_token(verdict.initial_state or ())),
                ],
            )
        )
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
    _write_out(args.out, _render_records(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    max_len.add_argument("--max-len", type=int, default=10_000, dest="max_len",
                         help="longest program run to tolerate")

    p_wcet = sub.add_parser(
        "wcet", parents=[shared, max_len], help="compute a worst-case execution time"
    )
    p_wcet.add_argument("--max-iters", type=int, default=10_000, dest="max_iters",
                        help="refinement iteration budget")
    p_wcet.add_argument("analysis", choices=["explicit", "abstract", "refine"])
    p_wcet.add_argument("program", help="program file")
    p_wcet.add_argument("--init", help="empty | unknown | state=<line,line,...>")
    p_wcet.add_argument("--pattern", help='classification pattern, e.g. "(M.H.M.M)*"')
    p_wcet.add_argument("--model", help="classifier automaton file")
    p_wcet.set_defaults(handler=cmd_wcet)

    p_example = sub.add_parser(
        "example", help="generate a branching-loop program file"
    )
    p_example.add_argument("--iterations", type=int, default=5,
                           help="loop iterations (unrolled)")
    p_example.add_argument("--branches", type=int, default=1,
                           help="extra branch choices per iteration (choices = branches+1)")
    p_example.add_argument("--dur", action="append", metavar="PC=CYCLES",
                           help="override an instruction duration (repeatable)")
    p_example.add_argument("--name", default="branching-loop")
    p_example.add_argument("--out", help="program file to write (default: stdout)")
    p_example.set_defaults(handler=cmd_example)

    p_sweep = sub.add_parser(
        "sweep", parents=[shared],
        help="explicit vs abstract state counts over a branch-count range",
    )
    p_sweep.add_argument("--iterations", type=int, default=5)
    p_sweep.add_argument("--branches", default="1..10", help="N or LO..HI")
    p_sweep.add_argument("--pattern", default="(M.H.M.M)*",
                         help="abstract model for every row")
    p_sweep.add_argument("--modes", default="explicit,abstract",
                         help="comma list of explicit,abstract")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_sim = sub.add_parser(
        "simulate", parents=[shared, max_len], help="classify one access sequence"
    )
    p_sim.add_argument("program", nargs="?", help="single-run program file")
    p_sim.add_argument("--pcs", help="comma-separated pc sequence")
    p_sim.add_argument("--init", help="empty | state=<line,line,...>")
    p_sim.set_defaults(handler=cmd_simulate)

    p_feas = sub.add_parser(
        "feasibility", parents=[shared],
        help="is a classified trace realizable from any initial cache?",
    )
    p_feas.add_argument("trace", help="trace file: one 'pc=<int> cls=<H|M>' per line")
    p_feas.set_defaults(handler=cmd_feasibility)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IterationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
