"""Concrete cache semantics.

The reference walk below models the cache the way a hardware table
would: a fixed-size array with empty slots, explicit shift loops for
insertion and promotion.  The production code uses variable-length
tuples instead; agreement between the two on random access sequences is
the main correctness evidence.  The symbolic step, whose ``?`` slots
stand for unknown residents, is checked on fixed cases and against
``access`` on states with no floating line, where only seen lines move;
test_refinement checks its sweeps against the enumeration oracles.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcetbound import (
    CacheConfig,
    Classification,
    ReplacementPolicy,
    ValidationError,
    access,
    simulate,
    validate_state,
)
from wcetbound.cache import symbolic_step

EMPTY = -1


def ref_access(slots: list[int], line: int, capacity: int, promote: bool) -> bool:
    """Array-based reference step. Mutates slots, returns hit/miss."""
    idx = -1
    for i in range(capacity):
        if slots[i] == line:
            idx = i
            break
    if idx >= 0:
        if promote and idx > 0:
            for j in range(idx, 0, -1):
                slots[j] = slots[j - 1]
            slots[0] = line
        return True
    for j in range(capacity - 1, 0, -1):
        slots[j] = slots[j - 1]
    slots[0] = line
    return False


def ref_state(slots: list[int]) -> tuple[int, ...]:
    return tuple(s for s in slots if s != EMPTY)


def test_hit_at_front_counts_as_hit():
    # a line in the most-recent slot is still a hit, state unchanged
    for policy in ReplacementPolicy:
        config = CacheConfig(capacity=2, policy=policy)
        state, cls = access((4, 7), 4, config)
        assert cls is Classification.HIT
        assert state == (4, 7)


def test_miss_inserts_at_front_and_evicts_oldest():
    config = CacheConfig(capacity=2)
    state, cls = access((1, 2), 3, config)
    assert cls is Classification.MISS
    assert state == (3, 1)


def test_promote_moves_hit_line_to_front():
    config = CacheConfig(capacity=3, policy=ReplacementPolicy.PROMOTE_ON_HIT)
    state, cls = access((1, 2, 3), 3, config)
    assert cls is Classification.HIT
    assert state == (3, 1, 2)


def test_fifo_leaves_order_on_hit():
    config = CacheConfig(capacity=3, policy=ReplacementPolicy.PURE_FIFO)
    state, cls = access((1, 2, 3), 3, config)
    assert cls is Classification.HIT
    assert state == (1, 2, 3)


def test_policies_diverge_only_on_non_front_hits():
    promote = CacheConfig(capacity=2, policy=ReplacementPolicy.PROMOTE_ON_HIT)
    fifo = CacheConfig(capacity=2, policy=ReplacementPolicy.PURE_FIFO)
    assert access((1, 2), 2, promote) == ((2, 1), Classification.HIT)
    assert access((1, 2), 2, fifo) == ((1, 2), Classification.HIT)


def test_cold_start_sequence_capacity_three():
    config = CacheConfig(capacity=3)
    trace = simulate(config, (), (1, 2, 3, 1))
    assert [a.cls.letter for a in trace] == ["M", "M", "M", "H"]


def test_cold_start_final_state_capacity_two():
    config = CacheConfig(capacity=2)
    trace = simulate(config, (), (1, 2, 3))
    assert [a.cls.letter for a in trace] == ["M", "M", "M"]
    final = ()
    for a in trace:
        final, _ = access(final, a.line, config)
    assert final == (3, 2)
    assert 1 not in final  # line 1 was evicted
    assert final[-1] == 2  # line 2 is next in line for eviction


def test_line_mapping_with_wider_lines():
    config = CacheConfig(capacity=2, line_size=4)
    assert config.line_of(1) == 0
    assert config.line_of(4) == 1
    assert config.line_of(7) == 1
    assert config.line_of(8) == 2
    # pcs 5 and 6 share a line, so the second access hits
    trace = simulate(config, (), (5, 6))
    assert [a.cls.letter for a in trace] == ["M", "H"]
    assert trace[0].line == trace[1].line == 1


def test_simulate_records_pcs_and_lines():
    config = CacheConfig(capacity=2, line_size=2)
    trace = simulate(config, (), (2, 3))
    assert [(a.pc, a.line) for a in trace] == [(2, 1), (3, 1)]
    assert str(trace[0]) == "2:M"


def test_classification_letters():
    assert Classification.HIT.letter == "H"
    assert Classification.MISS.letter == "M"
    assert Classification.from_letter("H") is Classification.HIT
    assert Classification.from_letter("M") is Classification.MISS
    with pytest.raises(ValueError):
        Classification.from_letter("X")
    # hits order before misses, which the search tie-break relies on
    assert Classification.HIT < Classification.MISS


def test_validate_state_rejects_bad_tuples():
    config = CacheConfig(capacity=2)
    validate_state((3, 1), config)
    with pytest.raises(ValidationError):
        validate_state((1, 2, 3), config)  # over capacity
    with pytest.raises(ValidationError):
        validate_state((1, 1), config)  # duplicate line
    with pytest.raises(ValidationError):
        validate_state((-1,), config)  # negative line id


def test_config_validation():
    with pytest.raises(ValidationError):
        CacheConfig(capacity=0)
    with pytest.raises(ValidationError):
        CacheConfig(line_size=0)
    with pytest.raises(ValidationError):
        CacheConfig(hit_time=-1)
    with pytest.raises(ValidationError):
        CacheConfig(hit_time=5, miss_time=4)
    with pytest.raises(ValidationError):
        CacheConfig().line_of(0)  # pcs start at 1


def test_agrees_with_reference_walk():
    rng = random.Random(0xCACE)
    for _ in range(300):
        capacity = rng.randint(1, 4)
        policy = rng.choice(list(ReplacementPolicy))
        config = CacheConfig(capacity=capacity, policy=policy)
        slots = [EMPTY] * capacity
        state = ()
        for _ in range(rng.randint(1, 20)):
            line = rng.randint(0, 5)
            hit = ref_access(
                slots, line, capacity, policy is ReplacementPolicy.PROMOTE_ON_HIT
            )
            state, cls = access(state, line, config)
            assert (cls is Classification.HIT) == hit
            assert state == ref_state(slots)


def test_state_invariants_hold_under_random_access():
    rng = random.Random(7)
    for _ in range(200):
        config = CacheConfig(capacity=rng.randint(1, 4))
        state = ()
        for _ in range(30):
            line = rng.randint(0, 6)
            prev = state
            state, cls = access(state, line, config)
            assert len(state) <= config.capacity
            assert len(set(state)) == len(state)
            assert state[0] == line  # accessed line is most recent (or stays put)
            if cls is Classification.MISS:
                assert len(state) == min(len(prev) + 1, config.capacity)
            else:
                assert set(state) == set(prev)


def test_fifo_hit_never_changes_state():
    rng = random.Random(21)
    config = CacheConfig(capacity=3, policy=ReplacementPolicy.PURE_FIFO)
    state = ()
    for _ in range(100):
        line = rng.randint(0, 4)
        nxt, cls = access(state, line, config)
        if cls is Classification.HIT:
            assert nxt == state
        state = nxt


def test_determinism():
    config = CacheConfig(capacity=3)
    pcs = (1, 2, 3, 1, 4, 2, 2, 5)
    assert simulate(config, (), pcs) == simulate(config, (), pcs)


# ---------------------------------------------------------------------------
# The symbolic step: a state is (known lines, floating lines), and the
# ``capacity - len(known)`` ``?``s behind the known lines stay implicit.

PROMOTE = ReplacementPolicy.PROMOTE_ON_HIT
FIFO = ReplacementPolicy.PURE_FIFO
H, M = Classification.HIT, Classification.MISS
NONE = frozenset()


def test_symbolic_resident_hit_follows_access():
    for policy, want in ((PROMOTE, (2, 1)), (FIFO, (1, 2))):
        config = CacheConfig(capacity=3, policy=policy)
        assert symbolic_step({((1, 2), NONE)}, 2, H, {1, 2}, config) == {(want, NONE)}
        assert symbolic_step({((1, 2), NONE)}, 2, M, {1, 2}, config) == set()
    # a floating line is resident too, and a fifo hit on it moves nothing
    state = ((1,), frozenset({2}))
    config = CacheConfig(capacity=3, policy=FIFO)
    assert symbolic_step({state}, 2, H, {1, 2}, config) == {state}
    assert symbolic_step({state}, 2, M, {1, 2}, config) == set()


def test_symbolic_seen_line_not_resident_can_only_miss():
    for policy in ReplacementPolicy:
        config = CacheConfig(capacity=2, policy=policy)
        assert symbolic_step({((1,), NONE)}, 3, H, {1, 3}, config) == set()
        assert symbolic_step({((1,), NONE)}, 3, M, {1, 3}, config) == {((3, 1), NONE)}


def test_symbolic_unseen_fifo_hit_floats_until_the_question_marks_are_full():
    config = CacheConfig(capacity=5, policy=FIFO)
    # no slot is named: the line joins the floating set
    got = symbolic_step({((1, 2), NONE)}, 7, H, {1, 2}, config)
    assert got == {((1, 2), frozenset({7}))}
    got = symbolic_step({((1, 2), frozenset({5, 6}))}, 7, H, {1, 2, 5, 6}, config)
    assert got == {((1, 2), frozenset({5, 6, 7}))}
    # three ``?``s hold three floating lines, so a fourth is refused
    full = ((1, 2), frozenset({5, 6, 7}))
    assert symbolic_step({full}, 8, H, {1, 2, 5, 6, 7}, config) == set()
    # a full cache with no ``?`` leaves no room for an unseen hit
    assert symbolic_step({((1, 2), NONE)}, 7, H, {1, 2}, CacheConfig(2, policy=FIFO)) == set()


def test_symbolic_unseen_promote_hit_has_one_successor():
    config = CacheConfig(capacity=4, policy=PROMOTE)
    assert symbolic_step({((1, 2), NONE)}, 7, H, {1, 2}, config) == {((7, 1, 2), NONE)}
    assert symbolic_step({((), NONE)}, 7, H, set(), config) == {((7,), NONE)}
    assert symbolic_step({((1, 2), NONE)}, 7, M, {1, 2}, config) == {((7, 1, 2), NONE)}
    assert symbolic_step({((1, 2), NONE)}, 7, H, {1, 2}, CacheConfig(2)) == set()


def test_symbolic_miss_leaves_no_trailing_question_mark():
    # the pushed-out ``?`` is not stored, whatever the number left behind
    for capacity in (3, 4):
        config = CacheConfig(capacity=capacity, policy=FIFO)
        assert symbolic_step({((1, 2), NONE)}, 5, M, {1, 2}, config) == {((5, 1, 2), NONE)}
    config = CacheConfig(capacity=2, policy=FIFO)
    assert symbolic_step({((1, 2), NONE)}, 5, M, {1, 2}, config) == {((5, 1), NONE)}


def test_symbolic_miss_on_the_last_question_mark_may_evict_a_floating_line():
    config = CacheConfig(capacity=4, policy=FIFO)
    state = ((1, 2), frozenset({6}))
    # two ``?``s: the last one held the floating line, or the other one does
    assert symbolic_step({state}, 5, M, {1, 2, 6}, config) == {
        ((5, 1, 2), frozenset({6})),
        ((5, 1, 2), NONE),
    }
    # one ``?`` left, holding 6 or 7: it goes, and the other stays floating
    state = ((1, 2), frozenset({6, 7}))
    assert symbolic_step({state}, 5, M, {1, 2, 6, 7}, config) == {
        ((5, 1, 2), frozenset({7})),
        ((5, 1, 2), frozenset({6})),
    }


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from(list(ReplacementPolicy)),
    st.lists(st.integers(0, 5), max_size=4, unique=True),
    st.integers(0, 5),
    st.sampled_from([H, M]),
    st.sets(st.integers(0, 5)),
)
def test_symbolic_step_is_access_on_known_states(
    capacity, policy, state, line, cls, more_seen
):
    config = CacheConfig(capacity=capacity, policy=policy)
    state = tuple(state[:capacity])
    seen = set(state) | {line} | more_seen
    nxt, got = access(state, line, config)
    want = {(nxt, NONE)} if got is cls else set()
    assert symbolic_step({(state, NONE)}, line, cls, seen, config) == want
