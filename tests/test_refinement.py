"""Unknown-initial-state feasibility and the refinement loop.

Expected values in the frozen tests were derived by hand from the cache
update rule and cross-checked with the enumeration oracles in conftest
before being written down.
"""

import itertools
import math
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_program,
    fork_program,
    oracle_candidate_states,
    oracle_explicit,
    oracle_feasible,
    oracle_unknown_init,
    random_config,
    random_program,
)
from languages import accepts
from wcetbound import (
    CacheConfig,
    Classification,
    ClassifiedAccess,
    IterationBudgetExceeded,
    ReplacementPolicy,
    ValidationError,
    branching_loop_program,
    explore_explicit,
    full_alphabet,
    infeasible_core,
    infix_language,
    is_feasible_from_some_state,
    realizable_from,
    run_refinement,
    simulate,
    trace_time,
)
import wcetbound.refinement as refinement
from wcetbound.cache import Sweep, infeasible_prefix
from wcetbound.refinement import candidate_initial_states

H = Classification.HIT
M = Classification.MISS


def tr(*steps) -> tuple[ClassifiedAccess, ...]:
    """Build a trace from (pc, letter) pairs; line == pc."""
    return tuple(
        ClassifiedAccess(pc, pc, Classification.from_letter(letter))
        for pc, letter in steps
    )


def letters(trace) -> str:
    return "".join(a.cls.letter for a in trace)


def test_cold_start_trace_is_feasible_from_empty():
    config = CacheConfig(capacity=3)
    trace = simulate(config, (), (1, 2, 3, 1))
    verdict = is_feasible_from_some_state(trace, config)
    assert verdict.feasible
    assert verdict.initial_state == ()


def test_leading_hit_needs_a_warm_state():
    config = CacheConfig(capacity=2)
    verdict = is_feasible_from_some_state(tr((1, "H")), config)
    assert verdict.feasible
    assert verdict.initial_state == (1,)


def test_double_miss_on_one_line_is_never_feasible():
    for capacity in (1, 2, 3):
        for policy in ReplacementPolicy:
            config = CacheConfig(capacity=capacity, policy=policy)
            assert not is_feasible_from_some_state(tr((2, "M"), (2, "M")), config).feasible


def test_hit_right_after_hit_on_same_line_is_fine():
    config = CacheConfig(capacity=2)
    verdict = is_feasible_from_some_state(tr((2, "H"), (2, "H")), config)
    assert verdict.feasible


def test_capacity_one_eviction_core():
    # on a single-slot cache the second miss evicts line 1, so the final
    # hit is impossible whatever the cache held initially
    config = CacheConfig(capacity=1)
    trace = tr((1, "M"), (2, "M"), (1, "H"))
    assert not is_feasible_from_some_state(trace, config).feasible
    core = infeasible_core(trace, config)
    assert core == trace[1:3]


def test_documented_two_miss_core():
    fifo = ReplacementPolicy.PURE_FIFO
    named = tr((2, "H"), (1, "M"), (2, "M"), (4, "H"), (1, "M"))
    cases = [
        (CacheConfig(capacity=2), tr((1, "H"), (2, "M"), (2, "M"), (3, "H")), 1, 3),
        # the leading hit names a slot of the unknown state: promote moves
        # line 2 to the front, where one miss cannot evict it; fifo leaves
        # it in place, where the last slot can be evicted, and the core is
        # instead the miss on line 1 that two insertions cannot cause
        (CacheConfig(capacity=3), named, 0, 3),
        (CacheConfig(capacity=3, policy=fifo), named, 1, 5),
    ]
    for config, trace, start, stop in cases:
        assert not is_feasible_from_some_state(trace, config).feasible
        assert infeasible_core(trace, config) == trace[start:stop]


def test_miss_after_hit_on_same_line_core():
    config = CacheConfig(capacity=2)
    trace = tr((1, "M"), (1, "H"), (1, "M"))
    assert not is_feasible_from_some_state(trace, config).feasible
    # the leading miss-hit pair is realizable; the hit-miss pair is not
    assert infeasible_core(trace, config) == trace[1:3]


def test_realizable_from_matches_plain_simulation():
    rng = random.Random(47)
    for _ in range(100):
        config = random_config(rng)
        pcs = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7)))
        init_pool = list(range(1, 7))
        rng.shuffle(init_pool)
        init = tuple(init_pool[: rng.randint(0, config.capacity)])
        trace = simulate(config, init, pcs)
        assert realizable_from(init, trace, config)
        # flip one classification: realizability must vanish
        i = rng.randrange(len(trace))
        flipped = list(trace)
        a = flipped[i]
        flipped[i] = ClassifiedAccess(a.pc, a.line, H if a.cls is M else M)
        assert not realizable_from(init, tuple(flipped), config)


def test_candidate_family_shape():
    states = list(candidate_initial_states((1, 2, 1), 2))
    assert states[0] == ()
    # one state per filler renaming, lengths 0, 1 and 2
    assert len(states) == len(set(states)) == 1 + 3 + 7
    assert all(len(s) <= 2 and len(set(s)) == len(s) for s in states)
    lengths = [len(s) for s in states]
    assert lengths == sorted(lengths)  # shortest states first


@pytest.mark.parametrize("d, capacity", [(0, 3), (1, 4), (2, 2), (3, 3), (5, 4), (4, 6)])
def test_candidate_family_size_has_a_closed_form(d, capacity):
    # a length-k state places f fillers (in their one canonical order) on
    # C(k, f) slot sets and an arrangement of k - f trace lines on the rest
    expected = sum(
        math.comb(k, f) * math.perm(d, k - f)
        for k in range(capacity + 1)
        for f in range(k + 1)
    )
    states = list(candidate_initial_states(tuple(range(10, 10 + d)), capacity))
    assert len(states) == len(set(states)) == expected


def renamed_oracle_family(lines, capacity):
    """The full oracle family with fillers renamed by first appearance in
    each state, keeping the first occurrence of each renamed state."""
    base = max(lines, default=-1) + 1
    seen = {}
    for state in oracle_candidate_states(lines, capacity):
        names = {}
        renamed = tuple(
            x if x < base else names.setdefault(x, base + len(names))
            for x in state
        )
        seen.setdefault(renamed, None)
    return list(seen)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=8), st.integers(1, 4))
def test_candidate_family_is_the_oracle_family_up_to_filler_renaming(lines, capacity):
    got = list(candidate_initial_states(tuple(lines), capacity))
    assert got == renamed_oracle_family(lines, capacity)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.sampled_from("HM")), max_size=8),
    st.integers(1, 4),
    st.sampled_from(list(ReplacementPolicy)),
)
def test_feasibility_matches_the_full_family_oracle(steps, capacity, policy):
    config = CacheConfig(capacity=capacity, policy=policy)
    trace = tr(*steps)
    verdict = is_feasible_from_some_state(trace, config)
    assert (verdict.feasible, verdict.initial_state) == oracle_feasible(trace, config)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.sampled_from("HM")), max_size=9),
    st.integers(1, 5),
    st.sampled_from(list(ReplacementPolicy)),
)
# 1 floats, and the miss on 2 must push it out of the last ``?``
@example([(1, "H"), (2, "M"), (1, "M")], 2, ReplacementPolicy.PURE_FIFO)
# 2 floats in the one ``?`` behind 1, so 3 finds no room to hit
@example([(1, "M"), (2, "H"), (3, "H")], 2, ReplacementPolicy.PURE_FIFO)
def test_sweep_verdict_matches_the_full_family_oracle(steps, capacity, policy):
    config = CacheConfig(capacity=capacity, policy=policy)
    trace = tr(*steps)
    prefix = infeasible_prefix(trace, config)
    assert (prefix is None) == oracle_feasible(trace, config)[0]
    if prefix is not None:
        # the sweep stops at the first access no start state realizes
        assert not oracle_feasible(trace[:prefix], config)[0]
        assert oracle_feasible(trace[: prefix - 1], config)[0]


def test_family_verdict_is_stable_under_larger_universes():
    # feasibility decided over the trace lines + capacity fillers agrees
    # with enumeration over a strictly larger line universe
    symbols = [(line, cls) for line in (1, 2) for cls in "HM"]
    for capacity in (1, 2):
        config = CacheConfig(capacity=capacity)
        for n in range(1, 4):
            for combo in itertools.product(symbols, repeat=n):
                trace = tr(*combo)
                got = is_feasible_from_some_state(trace, config).feasible
                wide = False
                universe = [1, 2] + [10 + i for i in range(capacity + 2)]
                for k in range(capacity + 1):
                    for state in itertools.permutations(universe, k):
                        if realizable_from(state, trace, config):
                            wide = True
                            break
                    if wide:
                        break
                assert got == wide, (capacity, trace)


def test_verdict_state_actually_realizes_the_trace():
    rng = random.Random(53)
    found = 0
    for _ in range(300):
        config = random_config(rng)
        trace = tr(
            *(
                (rng.randint(1, 3), rng.choice("HM"))
                for _ in range(rng.randint(1, 5))
            )
        )
        verdict = is_feasible_from_some_state(trace, config)
        assert verdict.feasible == oracle_feasible(trace, config)[0]
        if verdict.feasible:
            found += 1
            assert realizable_from(verdict.initial_state, trace, config)
    assert found > 50  # the sample exercises both outcomes


def test_core_is_minimal_and_leftmost():
    rng = random.Random(59)
    checked = 0
    while checked < 40:
        config = random_config(rng)
        trace = tr(
            *(
                (rng.randint(1, 3), rng.choice("HM"))
                for _ in range(rng.randint(2, 6))
            )
        )
        if is_feasible_from_some_state(trace, config).feasible:
            continue
        checked += 1
        core = infeasible_core(trace, config)
        # independent scan with the conftest oracle: shortest, then leftmost
        expected = None
        for length in range(1, len(trace) + 1):
            for start in range(len(trace) - length + 1):
                if not oracle_feasible(trace[start : start + length], config)[0]:
                    expected = trace[start : start + length]
                    break
            if expected is not None:
                break
        assert core == expected
        # minimality: both one-shorter infixes of the core are feasible
        if len(core) > 1:
            assert oracle_feasible(core[1:], config)[0]
            assert oracle_feasible(core[:-1], config)[0]


def oracle_core(trace, config):
    """The shortest, then leftmost, infix that ``oracle_feasible`` rejects,
    or ``()`` when the whole trace is feasible."""
    for length in range(1, len(trace) + 1):
        for start in range(len(trace) - length + 1):
            if not oracle_feasible(trace[start : start + length], config)[0]:
                return trace[start : start + length]
    return ()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.sampled_from("HM")), max_size=9),
    st.integers(1, 4),
    st.sampled_from(list(ReplacementPolicy)),
)
def test_core_matches_the_shortest_leftmost_oracle_scan(steps, capacity, policy):
    config = CacheConfig(capacity=capacity, policy=policy)
    trace = tr(*steps)
    assert infeasible_core(trace, config) == oracle_core(trace, config)


def related_traces(rng, config, count):
    """Classified runs from random start states, some with one outcome
    flipped, each followed by one of its own infixes."""
    traces = []
    while len(traces) < count:
        lines = range(1, rng.randint(2, config.capacity + 3))
        init = tuple(rng.sample(lines, min(config.capacity, rng.randint(0, len(lines)))))
        pcs = [rng.choice(lines) for _ in range(rng.randint(4, 14))]
        trace = list(simulate(config, init, pcs))
        if rng.random() < 0.5:
            i = rng.randrange(len(trace))
            a = trace[i]
            trace[i] = ClassifiedAccess(a.pc, a.line, Classification(1 - a.cls))
        start = rng.randrange(len(trace) - 1)
        stop = rng.randint(start + 2, len(trace))
        traces += [tuple(trace), tuple(trace[start:stop])]
    return traces


def test_a_sweep_kept_across_traces_answers_as_fresh_ones():
    # run_refinement keeps one Sweep for a whole run; what earlier traces
    # built must not change a later trace's answers
    rng = random.Random(97)
    checked, kinds = 0, set()
    for policy in ReplacementPolicy:
        for capacity in (1, 2, 3, 4, 6):
            config = CacheConfig(capacity=capacity, policy=policy)
            traces = related_traces(rng, config, 24)
            rng.shuffle(traces)
            kept, forgetful = Sweep(config), Sweep(config)
            forgetful.BUDGET = 40  # starts over every few walks
            for trace in traces:
                prefix = kept.infeasible_prefix(trace)
                core = infeasible_core(trace, config, kept)
                assert prefix == infeasible_prefix(trace, config)
                assert core == infeasible_core(trace, config)
                assert prefix == forgetful.infeasible_prefix(trace)
                assert core == infeasible_core(trace, config, forgetful)
                if capacity <= 2:
                    assert (prefix is None) == oracle_feasible(trace, config)[0]
                    assert core == oracle_core(trace, config)
                kinds.add(prefix is None)
                checked += 1
    assert checked >= 200 and kinds == {True, False}


def test_refinement_keeps_one_sweep_for_the_whole_run(monkeypatch):
    made = []

    class Counted(Sweep):
        def __init__(self, config):
            super().__init__(config)
            made.append(self)

    monkeypatch.setattr(refinement, "Sweep", Counted)
    result = run_refinement(chain_program([1, 2, 1]), CacheConfig())
    assert len(result.log) == 4 and len(made) == 1


def test_core_at_a_huge_capacity_answers_in_bounded_memory():
    """The core sweep keeps the unknown slots of the start state implicit,
    and a fifo hit on a line not seen before floats without naming one of
    them, so time and memory follow the trace, not the capacity."""
    code = (
        "from wcetbound import CacheConfig, ReplacementPolicy, simulate\n"
        "from wcetbound import Classification, ClassifiedAccess, infeasible_core\n"
        "for policy in ReplacementPolicy:\n"
        "    config = CacheConfig(capacity=10**9, policy=policy)\n"
        "    miss = simulate(config, (), (2,))\n"
        "    trace = miss + miss\n"
        "    assert infeasible_core(trace, config) == trace, policy\n"
        "config = CacheConfig(capacity=10**9, policy=ReplacementPolicy.PURE_FIFO)\n"
        "hit, miss = (ClassifiedAccess(2, 2, c) for c in Classification)\n"
        "assert infeasible_core((hit, miss), config) == (hit, miss)\n"
        "hits = tuple(ClassifiedAccess(n, n, hit.cls) for n in range(3, 300))\n"
        "trace = hits + (hit, miss)\n"
        "assert infeasible_core(trace, config) == (hit, miss)\n"
        "trace = (hit,) + hits + (miss,)\n"
        "assert infeasible_core(trace, config) == trace\n"
        "print('ok')\n"
    )

    def limit_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))

    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_excluded_language_matches_by_line_not_pc():
    # pcs 2 and 3 share a line when lines are two pcs wide, so a core seen
    # at pc 2 also rules out the same behaviour at pc 3
    config = CacheConfig(capacity=1, line_size=2)
    alphabet = full_alphabet((1,))
    core = simulate(config, (), (2, 2))  # line 1 twice: M then H
    o = infix_language(core, alphabet)
    other = simulate(config, (), (3, 3))
    assert accepts(o, other)


def test_refinement_on_the_branching_loop():
    program = branching_loop_program(iterations=3, branches=1)
    result = run_refinement(program, CacheConfig())
    assert result.wcet == 198
    assert [step.wcet for step in result.log] == [252, 198, 198]
    assert [step.feasible for step in result.log] == [False, False, True]
    assert letters(result.log[0].witness) == "M" * 12
    assert letters(result.log[0].core) == "MM"
    assert [a.line for a in result.log[0].core] == [1, 1]
    assert letters(result.log[1].core) == "HM"
    assert result.log[2].core is None
    assert [step.model_states for step in result.log] == [1, 3, 3]
    assert result.initial_state == ()
    # the final witness classifies each iteration as Miss,Hit,Miss,Miss
    assert letters(result.witness) == "MHMM" * 3
    assert result.wcet == trace_time(result.witness, program.durations, CacheConfig())


def test_refinement_without_conflicts_converges_immediately():
    program, config = fork_program()
    result = run_refinement(program, config)
    assert len(result.log) == 1
    assert result.log[0].feasible
    # nothing was excluded, so the answer equals the all-miss bound
    assert result.wcet == 46


def test_refinement_on_a_repeating_chain():
    # three equal-cost classifications tie at 45; the lexicographic
    # tie-break surfaces them hit-first, and the first two are themselves
    # infeasible, so the loop needs two extra rounds to land on MMH
    program = chain_program([1, 2, 1])
    result = run_refinement(program, CacheConfig())
    assert [step.wcet for step in result.log] == [63, 45, 45, 45]
    assert [letters(step.witness) for step in result.log] == [
        "MMM",
        "HMM",
        "MHM",
        "MMH",
    ]
    # none of the infeasible witnesses has a proper infix that is itself
    # infeasible, so each core is the whole witness
    for step in result.log[:-1]:
        assert step.core == step.witness
    assert letters(result.witness) == "MMH"
    assert result.wcet == 45


def test_refinement_matches_the_enumeration_oracle():
    rng = random.Random(61)
    for i in range(40):
        program = random_program(rng, name=f"r{i}")
        config = random_config(rng)
        result = run_refinement(program, config)
        assert result.wcet == oracle_unknown_init(program, config)
        assert result.wcet == trace_time(result.witness, program.durations, config)
        assert realizable_from(result.initial_state, result.witness, config)


def test_each_round_verdict_matches_the_oracle():
    rng = random.Random(73)
    verdicts = set()
    for i in range(40):
        program = random_program(rng, name=f"v{i}")
        config = random_config(rng)
        for step in run_refinement(program, config).log:
            assert step.feasible == oracle_feasible(step.witness, config)[0]
            verdicts.add(step.feasible)
    assert verdicts == {True, False}


def test_refinement_walks_the_candidate_family_once(monkeypatch):
    # the sweep decides each round; the family only picks the final state
    walked = []
    family_verdict = refinement.is_feasible_from_some_state

    def counted(trace, config):
        walked.append(trace)
        return family_verdict(trace, config)

    monkeypatch.setattr(refinement, "is_feasible_from_some_state", counted)
    rng = random.Random(79)
    for i in range(20):
        program = random_program(rng, name=f"w{i}")
        walked.clear()
        result = run_refinement(program, random_config(rng))
        assert walked == [result.witness]


def test_refinement_asks_for_one_core_per_round(monkeypatch):
    # each round's verdict and core come from one infeasible_core call
    asked = []
    core_of = refinement.infeasible_core

    def counted(trace, config, *rest):
        asked.append(trace)
        return core_of(trace, config, *rest)

    monkeypatch.setattr(refinement, "infeasible_core", counted)
    rng = random.Random(83)
    for i in range(20):
        program = random_program(rng, name=f"c{i}")
        asked.clear()
        log = run_refinement(program, random_config(rng)).log
        assert asked == [step.witness for step in log]


def test_refinement_dominates_the_cold_start_bound():
    rng = random.Random(67)
    for i in range(25):
        program = random_program(rng, name=f"d{i}")
        config = random_config(rng)
        refined = run_refinement(program, config)
        cold = explore_explicit(program, config, init=())
        assert refined.wcet >= cold.wcet
        assert refined.wcet >= oracle_explicit(program, config)[0]


def test_refinement_bounds_never_increase():
    rng = random.Random(71)
    for i in range(25):
        program = random_program(rng, name=f"m{i}")
        config = random_config(rng)
        log = run_refinement(program, config).log
        wcets = [step.wcet for step in log]
        assert wcets == sorted(wcets, reverse=True)
        assert [step.index for step in log] == list(range(1, len(log) + 1))
        assert all(step.core is not None for step in log[:-1])


def test_iteration_budget():
    program = chain_program([1, 2, 1])
    with pytest.raises(IterationBudgetExceeded) as err:
        run_refinement(program, CacheConfig(), max_iters=1)
    assert len(err.value.log) == 1
    assert not err.value.log[0].feasible
    with pytest.raises(ValidationError):
        run_refinement(program, CacheConfig(), max_iters=0)


def test_refinement_duration_override():
    program = chain_program([1, 2, 1])
    base = run_refinement(program, CacheConfig())
    heavy = run_refinement(
        chain_program([1, 2, 1], durations={1: 5, 2: 1}), CacheConfig()
    )
    assert heavy.wcet == base.wcet + 2 * 4  # pc 1 runs twice, 4 cycles longer
