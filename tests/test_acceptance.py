"""Acceptance suite: nine end-to-end checks, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the lines as they print.
The random corpus behind checks 5-7 is built once per session and shared.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    fork_program,
    oracle_feasible,
    oracle_unknown_init,
    random_config,
    random_program,
)
from languages import accepts
from wcetbound import (
    AccessSymbol,
    CacheConfig,
    Classification,
    ClassifiedAccess,
    access,
    branching_loop_program,
    explore_abstract,
    explore_explicit,
    from_pattern,
    full_alphabet,
    infeasible_core,
    infix_language,
    is_feasible_from_some_state,
    run_refinement,
    simulate,
    trace_time,
)
from wcetbound.cli import main as cli_main

H = Classification.HIT
M = Classification.MISS

CORPUS_SEED = 2026
CORPUS_SIZE = 200
REFINE_BUDGET = 10_000


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def corpus():
    """200 random programs with refinement results and oracle answers."""
    rng = random.Random(CORPUS_SEED)
    entries = []
    started = time.perf_counter()
    for i in range(CORPUS_SIZE):
        program = random_program(rng, name=f"corpus{i}")
        config = random_config(rng)
        result = run_refinement(program, config, max_iters=REFINE_BUDGET)
        want = oracle_unknown_init(program, config)
        entries.append((program, config, result, want))
    elapsed = time.perf_counter() - started
    return entries, elapsed


def test_criterion_1_cold_start_classification():
    with criterion(1, "cold-start classification"):
        config = CacheConfig(capacity=3)
        pcs = (1, 2, 3, 1)
        simulate(config, (), pcs)  # warm the code paths before timing
        started = time.perf_counter()
        trace = simulate(config, (), pcs)
        elapsed = time.perf_counter() - started
        assert [a.cls for a in trace] == [M, M, M, H]
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f}ms"


def test_criterion_2_eviction_order():
    with criterion(2, "eviction order"):
        config = CacheConfig(capacity=2)
        state = ()
        for pc in (1, 2, 3):
            state, _ = access(state, config.line_of(pc), config)
        assert state == (3, 2)
        assert 1 not in state  # the oldest line was evicted
        assert state[-1] == 2  # and line 2 is the next eviction candidate


def test_criterion_3_exact_branch_times():
    with criterion(3, "exact branch times"):
        program, config = fork_program()
        taken = simulate(config, (), (1, 2, 3))
        skipped = simulate(config, (), (1, 4, 5))
        assert trace_time(taken, program.durations, config) == 35
        assert trace_time(skipped, program.durations, config) == 33


def test_criterion_4_branching_loop_family():
    with criterion(4, "branching-loop family"):
        started = time.perf_counter()
        config = CacheConfig()
        iterations = 5
        explicit_states = {}
        abstract_states = {}
        wcets = set()
        for n in range(1, 11):
            program = branching_loop_program(iterations, n)

            explicit = explore_explicit(program, config)
            wcets.add(explicit.wcet)
            explicit_states[n] = explicit.states_explored

            # (b) every run classifies as Miss,Hit,Miss,Miss per iteration:
            # walk the reachable program x cache product level by level,
            # which covers all (branches+1)**iterations runs at once
            frontier = {(program.entry, ())}
            succ = {}
            for e in program.edges:
                succ.setdefault(e.src, []).append(e)
            for depth in range(4 * iterations):
                expected = "MHMM"[depth % 4]
                nxt = set()
                for loc, cache in frontier:
                    for e in succ.get(loc, ()):
                        new_cache, cls = access(cache, config.line_of(e.pc), config)
                        assert cls.letter == expected, (n, depth, e)
                        nxt.add((e.dst, new_cache))
                frontier = nxt
            assert frontier and all(loc == program.end for loc, _ in frontier)

            model = from_pattern("(M.H.M.M)*", program.lines(config))
            abstract = explore_abstract(program, model, config)
            assert abstract.wcet == explicit.wcet
            abstract_states[n] = abstract.states_explored

        # (a) the bound does not depend on the branch count
        assert wcets == {330}
        # (c) the pattern model explores strictly fewer states from n=2 on
        for n in range(2, 11):
            assert abstract_states[n] < explicit_states[n]
        # (d) abstract growth is at most linear in n; here it is flat
        assert len(set(abstract_states.values())) == 1
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_5_refinement_matches_brute_force(corpus):
    entries, elapsed = corpus
    with criterion(5, "refinement equals brute force"):
        assert len(entries) >= 200
        for program, config, result, want in entries:
            assert result.wcet == want, program.name
            assert result.wcet == trace_time(
                result.witness, program.durations, config
            )
        assert elapsed < 60, f"corpus took {elapsed:.1f}s"


def test_criterion_6_excluded_languages_are_infeasible(corpus):
    entries, _ = corpus
    with criterion(6, "excluded languages infeasible"):
        sample_rng = random.Random(0xA11)
        cores_seen = 0
        for program, config, result, _ in entries:
            alphabet = full_alphabet(program.lines(config))
            for step in result.log:
                if step.core is None:
                    continue
                cores_seen += 1
                o_t = infix_language(step.core, alphabet)
                core_syms = tuple(
                    AccessSymbol(a.line, a.cls) for a in step.core
                )
                for _ in range(50):
                    pre = tuple(
                        sample_rng.choice(alphabet)
                        for _ in range(sample_rng.randint(0, 3))
                    )
                    post = tuple(
                        sample_rng.choice(alphabet)
                        for _ in range(sample_rng.randint(0, 3))
                    )
                    member = pre + core_syms + post
                    assert accepts(o_t, member)
                    # independent check: plain enumeration over initial
                    # states, not the refinement module's feasibility path
                    trace = tuple(
                        ClassifiedAccess(s.line, s.line, s.cls) for s in member
                    )
                    feasible, _ = oracle_feasible(trace, config)
                    assert not feasible, (member, config)
        assert cores_seen > 0


def test_criterion_7_bounds_decrease_monotonically(corpus):
    entries, _ = corpus
    with criterion(7, "monotone bounds"):
        for _, _, result, _ in entries:
            wcets = [step.wcet for step in result.log]
            assert wcets == sorted(wcets, reverse=True)
            assert 1 <= len(result.log) <= REFINE_BUDGET
            assert result.log[-1].feasible


def test_criterion_8_feasibility_micro_suite():
    with criterion(8, "feasibility verdicts and cores"):
        def t(*steps):
            return tuple(
                ClassifiedAccess(pc, pc, Classification.from_letter(c))
                for pc, c in steps
            )

        cap1 = CacheConfig(capacity=1)
        cap2 = CacheConfig(capacity=2)
        cap3 = CacheConfig(capacity=3)

        verdict = is_feasible_from_some_state(
            t((1, "M"), (2, "M"), (3, "M"), (1, "H")), cap3
        )
        assert verdict.feasible and verdict.initial_state == ()

        verdict = is_feasible_from_some_state(t((1, "H"),), cap2)
        assert verdict.feasible and verdict.initial_state == (1,)

        for config in (cap1, cap2, cap3):
            assert not is_feasible_from_some_state(
                t((2, "M"), (2, "M")), config
            ).feasible

        # single slot: the second miss evicts line 1, killing the late hit
        trace = t((1, "M"), (2, "M"), (1, "H"))
        core = infeasible_core(trace, cap1)
        assert core == trace[1:3]

        # two slots: a repeated miss on one line is the whole story
        trace = t((1, "H"), (2, "M"), (2, "M"), (3, "H"))
        core = infeasible_core(trace, cap2)
        assert core == trace[1:3]

        # a hit pins the line in the cache, so the following miss is absurd
        trace = t((1, "M"), (1, "H"), (1, "M"))
        core = infeasible_core(trace, cap2)
        assert core == trace[1:3]


def test_criterion_9_reports_are_reproducible(tmp_path, capsys):
    with criterion(9, "byte-identical reports"):
        first = str(tmp_path / "first.rec")
        second = str(tmp_path / "second.rec")
        args = ["sweep", "--iterations", "5", "--branches", "1..10"]
        assert cli_main(args + ["--out", first]) == 0
        assert cli_main(args + ["--out", second]) == 0
        capsys.readouterr()
        a = open(first, "rb").read()
        b = open(second, "rb").read()
        assert a and a == b
