"""Product-state exploration, explicit and abstract."""

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chain_program,
    fork_program,
    oracle_explicit,
    oracle_universal_model,
    oracle_runs,
    random_config,
    random_program,
    same_pc_forks,
)
from wcetbound import (
    AbstractModelEmpty,
    AlphabetMismatch,
    BoundExceeded,
    CacheConfig,
    Classification,
    ClassifierAutomaton,
    Program,
    ReplacementPolicy,
    ValidationError,
    branching_loop_program,
    complement,
    ensure_bounded,
    explore_abstract,
    explore_explicit,
    from_pattern,
    full_alphabet,
    hit_or_miss,
    parse_model,
    simulate,
    trace_time,
)
from wcetbound import explorer
from wcetbound.classifier import as_symbols
from wcetbound.program import longest_run

H = Classification.HIT
M = Classification.MISS


def trie_automaton(words, alphabet) -> ClassifierAutomaton:
    """DFA accepting exactly the given symbol words (plus a dead sink)."""
    alphabet = tuple(sorted(set(alphabet)))
    index = {(): 0}
    order = [()]
    for w in words:
        for i in range(1, len(w) + 1):
            prefix = w[:i]
            if prefix not in index:
                index[prefix] = len(order)
                order.append(prefix)
    sink = len(order)
    rows = [
        tuple(index.get(prefix + (s,), sink) for s in alphabet) for prefix in order
    ]
    rows.append((sink,) * len(alphabet))
    return ClassifierAutomaton(
        alphabet=alphabet,
        initial=0,
        accepting=frozenset(index[tuple(w)] for w in words),
        transitions=tuple(rows),
    )


def test_fork_wcet_and_witness():
    program, config = fork_program()
    res = explore_explicit(program, config)
    assert res.wcet == 46
    assert [a.pc for a in res.witness] == [1, 2, 3, 6]
    assert all(a.cls is M for a in res.witness)
    # the other branch is exactly two execute cycles cheaper
    other = simulate(config, (), (1, 4, 5, 6))
    assert trace_time(other, program.durations, config) == 44


def test_wcet_equals_witness_time():
    rng = random.Random(17)
    for i in range(30):
        program = random_program(rng, name=f"w{i}")
        config = random_config(rng)
        res = explore_explicit(program, config)
        assert res.wcet == trace_time(res.witness, program.durations, config)


def test_small_chain_by_hand():
    program = chain_program([1, 2, 1])
    config = CacheConfig(capacity=2, hit_time=2, miss_time=20)
    res = explore_explicit(program, config)
    # cold: miss, miss, then the repeat of pc 1 hits
    assert [a.cls.letter for a in res.witness] == ["M", "M", "H"]
    assert res.wcet == (20 + 1) + (20 + 1) + (2 + 1)


def test_explicit_agrees_with_enumeration_oracle():
    rng = random.Random(23)
    for i in range(60):
        program = random_program(rng, name=f"o{i}")
        config = random_config(rng)
        want_time, want_trace = oracle_explicit(program, config)
        res = explore_explicit(program, config)
        assert res.wcet == want_time
        assert res.witness == want_trace  # includes the tie-break order


def test_explicit_steps_each_state_and_line_once(monkeypatch):
    stepped = []
    real = explorer.access

    def counted(state, line, config):
        stepped.append((state, line))
        return real(state, line, config)

    monkeypatch.setattr(explorer, "access", counted)
    rng = random.Random(89)
    for i in range(60):
        program = random_program(rng, name=f"a{i}")
        config = random_config(rng)
        stepped.clear()
        res = explore_explicit(program, config)
        assert len(stepped) == len(set(stepped))
        assert (res.wcet, res.witness) == oracle_explicit(program, config)
    # one step per distinct pair, not per product state: 60 accesses that
    # cycle three lines through two slots meet five (state, line) pairs,
    # two while the cache fills and then a cycle of three
    stepped.clear()
    res = explore_explicit(chain_program([1, 2, 3] * 20), CacheConfig())
    assert res.states_explored == 61
    assert len(stepped) == 5


def test_given_initial_state_changes_the_answer():
    program = chain_program([5])
    config = CacheConfig(capacity=2, hit_time=1, miss_time=9)
    cold = explore_explicit(program, config, init=())
    warm = explore_explicit(program, config, init=(config.line_of(5),))
    assert cold.wcet == 9 + 1
    assert warm.wcet == 1 + 1
    assert warm.witness[0].cls is H
    with pytest.raises(ValidationError):
        explore_explicit(program, config, init=(1, 2, 3))  # over capacity


def test_duration_override_parameter():
    config = CacheConfig(hit_time=1, miss_time=5)
    base = explore_explicit(chain_program([1, 2]), config)
    bumped = explore_explicit(chain_program([1, 2], durations={1: 10, 2: 1}), config)
    assert bumped.wcet == base.wcet + 9


def test_merging_keeps_state_count_below_run_count():
    program = branching_loop_program(iterations=5, branches=3)
    runs = len(oracle_runs(program, 64))
    assert runs == 4 ** 5
    res = explore_explicit(program, CacheConfig())
    assert res.states_explored < 120 < runs


def test_equal_cost_ties_prefer_smaller_pc():
    program = Program.build(
        "tie", "A", "End", [("A", 1, "B"), ("A", 2, "B"), ("B", 3, "End")]
    )
    res = explore_explicit(program, CacheConfig())
    assert [a.pc for a in res.witness] == [1, 3]


def test_equal_first_steps_compare_the_rest_of_the_run():
    # pc 1 leads to B and to C at equal cost; the run through B is found
    # first, but 1.2 is the lesser trace
    program = Program.build(
        "fork1", "A", "D",
        [("A", 1, "B"), ("A", 1, "C"), ("B", 3, "D"), ("C", 2, "D")],
    )
    config = CacheConfig()
    for res in (
        explore_explicit(program, config),
        explore_abstract(program, hit_or_miss(program.lines(config)), config),
    ):
        assert [a.pc for a in res.witness] == [1, 2]


small_configs = st.builds(
    lambda capacity, hit, extra, policy: CacheConfig(
        capacity=capacity, hit_time=hit, miss_time=hit + extra, policy=policy
    ),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 3),  # 0: hits and misses cost the same
    st.sampled_from(list(ReplacementPolicy)),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(same_pc_forks(), small_configs)
def test_same_pc_forks_match_the_enumeration_oracles(program, config):
    explicit = explore_explicit(program, config)
    assert (explicit.wcet, explicit.witness) == oracle_explicit(program, config)
    model = hit_or_miss(program.lines(config))
    abstract = explore_abstract(program, model, config)
    assert (abstract.wcet, abstract.witness) == oracle_universal_model(program, config)


def test_equal_cost_ties_prefer_hit_over_miss():
    program = chain_program([1, 2])
    config = CacheConfig(hit_time=5, miss_time=5)
    res = explore_abstract(program, hit_or_miss((1, 2)), config)
    assert [a.cls for a in res.witness] == [H, H]


def test_unconstrained_model_gives_the_all_miss_bound():
    rng = random.Random(31)
    for i in range(30):
        program = random_program(rng, name=f"a{i}")
        config = random_config(rng)
        lines = program.lines(config)
        res = explore_abstract(program, hit_or_miss(lines), config)
        want = max(
            sum(config.miss_time + program.durations[pc] for pc in seq)
            for seq in oracle_runs(program, 64)
        )
        assert res.wcet == want


def test_abstract_bounds_explicit_from_above():
    rng = random.Random(37)
    for i in range(30):
        program = random_program(rng, name=f"s{i}")
        config = random_config(rng)
        abstract = explore_abstract(program, hit_or_miss(program.lines(config)), config)
        explicit = explore_explicit(program, config)
        assert abstract.wcet >= explicit.wcet


def test_exact_model_reproduces_explicit_answer():
    # feed the exploration the automaton of exactly the realizable traces;
    # the bound and the witness must coincide with the explicit product
    rng = random.Random(41)
    for i in range(25):
        program = random_program(rng, name=f"x{i}")
        config = random_config(rng)
        words = [
            as_symbols(simulate(config, (), seq))
            for seq in oracle_runs(program, 64)
        ]
        model = trie_automaton(words, full_alphabet(program.lines(config)))
        abstract = explore_abstract(program, model, config)
        explicit = explore_explicit(program, config)
        assert abstract.wcet == explicit.wcet
        assert abstract.witness == explicit.witness


def test_restricting_the_model_restricts_the_bound():
    program = branching_loop_program(iterations=5, branches=1)
    config = CacheConfig()
    lines = program.lines(config)
    wide = explore_abstract(program, hit_or_miss(lines), config)
    narrow = explore_abstract(program, from_pattern("(M.H.M.M)*", lines), config)
    explicit = explore_explicit(program, config)
    assert wide.wcet >= narrow.wcet == explicit.wcet == 330
    assert narrow.states_explored < explicit.states_explored


def test_model_that_allows_nothing_is_an_error():
    program, config = fork_program()
    lines = program.lines(config)
    with pytest.raises(AbstractModelEmpty):
        explore_abstract(program, complement(hit_or_miss(lines)), config)
    # allows only the empty trace, but every run has four accesses
    with pytest.raises(AbstractModelEmpty):
        explore_abstract(program, from_pattern("", lines), config)


def test_model_alphabet_must_cover_program_lines():
    program, config = fork_program()
    with pytest.raises(AlphabetMismatch):
        explore_abstract(program, hit_or_miss((1,)), config)
    # every line is present, but only with its Miss symbol
    lines = program.lines(config)
    misses = parse_model(
        "alphabet *:M\nstate s accepting\ninitial s\ntrans s *:M s\n", lines
    )
    with pytest.raises(AlphabetMismatch, match=f"{lines[0]}:H"):
        explore_abstract(program, misses, config)


def test_unbounded_program_is_rejected():
    cyclic = Program.build("c", "A", "B", [("A", 1, "A"), ("A", 2, "B")])
    with pytest.raises(BoundExceeded):
        explore_explicit(cyclic, CacheConfig())
    with pytest.raises(BoundExceeded):
        explore_abstract(cyclic, hit_or_miss((1, 2)), CacheConfig())


def test_exploration_is_deterministic():
    rng = random.Random(43)
    program = random_program(rng)
    config = random_config(rng)
    assert explore_explicit(program, config) == explore_explicit(program, config)
    model = hit_or_miss(program.lines(config))
    assert explore_abstract(program, model, config) == explore_abstract(
        program, model, config
    )


def test_a_chain_deeper_than_the_recursion_limit():
    # every walk is iterative: 6000 steps of three lines cycling through a
    # two-slot cache, where every access misses
    n = 6000
    assert n > sys.getrecursionlimit()
    pcs = [1, 2, 3] * (n // 3)
    program = chain_program(pcs)
    config = CacheConfig()
    assert len(ensure_bounded(program)) == n
    assert longest_run(program) == n
    want = n * (config.miss_time + 1)
    assert trace_time(simulate(config, (), pcs), program.durations, config) == want
    explicit = explore_explicit(program, config)
    assert (explicit.wcet, len(explicit.witness)) == (want, n)
    universal = hit_or_miss(program.lines(config))
    abstract = explore_abstract(program, universal, config)
    assert (abstract.wcet, len(abstract.witness)) == (want, n)


def test_explorer_reads_a_model_only_through_its_lens():
    # symbols, alphabets and liveness stay inside classifier.py
    tree = ast.parse(Path(explorer.__file__).read_text())
    from_classifier = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("classifier" in alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module and node.module.endswith("classifier"):
                from_classifier += names
            assert "classifier" not in names
    assert from_classifier == ["ClassifierAutomaton"]
