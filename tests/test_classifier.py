"""Classifier automata: patterns, boolean algebra, infix matching.

Pattern membership is cross-checked against Python's re module: the
pattern grammar maps onto regular expressions by dropping the explicit
concatenation dots, which gives an oracle that shares no code with the
position automaton under test.  The boolean operations are
cross-checked on random complete DFAs against a walk of the drawn table,
and ``intersect``, which gives all dead pairs one sink, against the full
product of every reachable pair.  ``intersect`` and ``minimize`` are also
checked table for table against test-local copies of their earlier form,
which numbered tuple pairs and ran Moore over the reachable part only.
Language queries (``accepts``, ``allows``, ``same_language``) come from
``languages.py``, since the package does not need them.
"""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_config, random_program
from languages import accepts, allows, is_empty_language, same_language
from wcetbound import (
    AbstractModelEmpty,
    AccessSymbol,
    AlphabetMismatch,
    Classification,
    ClassifierAutomaton,
    PatternParseError,
    ValidationError,
    complement,
    from_pattern,
    full_alphabet,
    hit_or_miss,
    infix_language,
    intersect,
    minimize,
    parse_model,
    run_refinement,
    subtract,
)
from wcetbound.classifier import MAX_PATTERN_NESTING

H = Classification.HIT
M = Classification.MISS
LINES = (1, 2)


def sym(line: int, letter: str) -> AccessSymbol:
    return AccessSymbol(line, Classification.from_letter(letter))


def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def letters(word) -> str:
    return "".join(s.cls.letter for s in word)


def tables(a: ClassifierAutomaton):
    return a.alphabet, a.initial, a.accepting, a.transitions


def regex_accepts(pattern: str, word) -> bool:
    # dropping the explicit concatenation dots yields a plain regex;
    # note re.fullmatch("", s) correctly accepts only the empty word
    return re.fullmatch(pattern.replace(".", ""), letters(word)) is not None


# "**" is valid here but a "multiple repeat" error for re, so the doubled
# star is checked separately by language equivalence
PATTERNS = [
    "M",
    "H",
    "M.H",
    "M*",
    "(M.H.M.M)*",
    "H*.M.H*",
    "(M.(H)*)*",
]


def test_pattern_membership_matches_regex_oracle():
    alphabet = full_alphabet(LINES)
    for pattern in PATTERNS:
        a = from_pattern(pattern, LINES)
        for word in words_up_to(alphabet, 5):
            assert accepts(a, word) == regex_accepts(pattern, word), (
                pattern,
                word,
            )


def test_pattern_allows_matches_bounded_suffix_oracle():
    # a live state of a minimized automaton reaches acceptance within
    # n_states steps, so a bounded suffix search decides the prefix lens
    alphabet = full_alphabet(LINES)
    for pattern in PATTERNS:
        a = from_pattern(pattern, LINES)
        suffixes = list(words_up_to((sym(1, "H"), sym(1, "M")), a.n_states))
        for word in words_up_to(alphabet, 4):
            expected = any(regex_accepts(pattern, word + s) for s in suffixes)
            assert allows(a, word) == expected, (pattern, word)


def test_pattern_ignores_line_identity():
    rng = random.Random(13)
    a = from_pattern("(M.H.M.M)*", LINES)
    for _ in range(200):
        cls_seq = [rng.choice([H, M]) for _ in range(rng.randint(0, 8))]
        w1 = tuple(AccessSymbol(rng.choice(LINES), c) for c in cls_seq)
        w2 = tuple(AccessSymbol(rng.choice(LINES), c) for c in cls_seq)
        assert accepts(a, w1) == accepts(a, w2)
        assert allows(a, w1) == allows(a, w2)


def test_stacked_stars_collapse():
    star = from_pattern("M*", LINES)
    assert same_language(from_pattern("((M))**", LINES), star)
    assert tables(from_pattern("M" + "*" * 5000, LINES)) == tables(star)


def test_empty_pattern_allows_only_the_empty_trace():
    a = from_pattern("", LINES)
    assert accepts(a, ())
    assert allows(a, ())
    assert not accepts(a, (sym(1, "M"),))
    assert not allows(a, (sym(1, "M"),))


def test_pattern_parse_errors():
    expected = {
        "X": "expected H, M or '(', got 'X' at position 0 in 'X'",
        "(M": "expected ')' at position 2 in '(M'",
        "M)": "unexpected ')' at position 1 in 'M)'",
        "M..H": "expected H, M or '(', got '.' at position 2 in 'M..H'",
        "*": "expected H, M or '(', got '*' at position 0 in '*'",
        "M.*": "expected H, M or '(', got '*' at position 2 in 'M.*'",
        "()": "expected H, M or '(', got ')' at position 1 in '()'",
        ")(": "expected H, M or '(', got ')' at position 0 in ')('",
        "M H": "unexpected 'H' at position 2 in 'M H'",
    }
    for bad, message in expected.items():
        with pytest.raises(PatternParseError) as info:
            from_pattern(bad, LINES)
        assert str(info.value) == message


def test_pattern_nesting_has_a_budget():
    assert MAX_PATTERN_NESTING == 100
    nested = "(" * 100 + "M" + ")" * 100
    assert tables(from_pattern(nested, LINES)) == tables(from_pattern("M", LINES))
    for depth in (101, 400):
        text = " " + "(" * depth + "M" + ")" * depth
        with pytest.raises(PatternParseError) as info:
            from_pattern(text, LINES)
        assert str(info.value) == (
            f"parentheses nested deeper than 100 at position 101 in {text!r}"
        )


# A drawn pattern tree is a letter, ("cat", [two or three trees]) or
# ("star", tree, number of stacked stars).  ("cat", []) is the empty
# pattern, which only the whole tree may be.
PATTERN_TREES = st.recursive(
    st.sampled_from("HM"),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: ("cat", xs)),
        st.tuples(st.just("star"), kids, st.integers(1, 3)),
    ),
    max_leaves=8,
)


def pattern_text(tree, rng: random.Random) -> str:
    """The tree as a pattern, with random extra parentheses and spaces."""

    def group(text: str, needed: bool) -> str:
        return f"({text})" if needed or rng.random() < 0.3 else text

    def render(node) -> str:
        if isinstance(node, str):
            return group(node, False)
        if node[0] == "cat":
            return group(".".join(map(render, node[1])), False) if node[1] else ""
        _, kid, stars = node
        return group(render(kid), not isinstance(kid, str)) + "*" * stars

    spaces = ["", "", " ", "\t", " \n"]
    return "".join(rng.choice(spaces) + ch for ch in render(tree)) + rng.choice(spaces)


def regex_text(node) -> str:
    """The tree as a Python regular expression.

    A run of stacked stars becomes one ``(?:X)*``: nesting ``re``'s star
    directly in itself makes its backtracking exponential.
    """
    if isinstance(node, str):
        return node
    if node[0] == "cat":
        return "".join(f"(?:{regex_text(kid)})" for kid in node[1])
    while not isinstance(node, str) and node[0] == "star":
        node = node[1]
    return f"(?:{regex_text(node)})*"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(PATTERN_TREES, st.integers(0, 2**32), st.integers(0, 2**32))
@example(("cat", []), 0, 1)
def test_drawn_patterns_match_the_regex_oracle(tree, seed_a, seed_b):
    a = from_pattern(pattern_text(tree, random.Random(seed_a)), (1,))
    b = from_pattern(pattern_text(tree, random.Random(seed_b)), (1,))
    assert tables(a) == tables(b)
    regex = re.compile(regex_text(tree))
    for n in range(6):
        for word in itertools.product("HM", repeat=n):
            expected = regex.fullmatch("".join(word)) is not None
            assert accepts(a, [sym(1, ch) for ch in word]) == expected, word


def test_hit_or_miss_is_universal():
    a = hit_or_miss(LINES)
    for word in words_up_to(full_alphabet(LINES), 4):
        assert accepts(a, word)
        assert allows(a, word)


def test_complement_flips_membership():
    a = from_pattern("(M.H)*", LINES)
    c = complement(a)
    for word in words_up_to(full_alphabet(LINES), 4):
        assert accepts(c, word) == (not accepts(a, word))


def test_intersect_is_conjunction():
    a = from_pattern("M*", LINES)
    b = from_pattern("(M.M)*", LINES)
    both = intersect(a, b)
    for word in words_up_to(full_alphabet(LINES), 5):
        assert accepts(both, word) == (accepts(a, word) and accepts(b, word))


def test_subtract_is_set_difference():
    a = hit_or_miss(LINES)
    o = infix_language((sym(1, "M"), sym(1, "M")), full_alphabet(LINES))
    d = subtract(a, o)
    for word in words_up_to(full_alphabet(LINES), 5):
        assert accepts(d, word) == (accepts(a, word) and not accepts(o, word))


def test_subtract_self_is_empty():
    a = from_pattern("(M.H.M.M)*", LINES)
    assert is_empty_language(subtract(a, a))
    assert not is_empty_language(a)


def contains_core(word, core) -> bool:
    n = len(core)
    return any(word[i : i + n] == core for i in range(len(word) - n + 1))


def test_infix_language_matches_naive_scan():
    alphabet = full_alphabet(LINES)
    cores = [
        (sym(1, "M"),),
        (sym(1, "M"), sym(1, "M")),
        (sym(1, "M"), sym(2, "H")),
        (sym(2, "M"), sym(2, "M"), sym(1, "H")),
        (sym(1, "H"), sym(1, "H"), sym(1, "H")),
    ]
    for core in cores:
        a = infix_language(core, alphabet)
        for word in words_up_to(alphabet, 5):
            assert accepts(a, word) == contains_core(word, core), (core, word)


def test_removing_an_infix_closure_kills_exactly_the_matching_region():
    # after subtraction the lens rejects a trace as soon as the core has
    # occurred, since every extension still contains it
    alphabet = full_alphabet(LINES)
    core = (sym(1, "M"), sym(1, "M"))
    d = subtract(hit_or_miss(LINES), infix_language(core, alphabet))
    for word in words_up_to(alphabet, 5):
        assert allows(d, word) == (not contains_core(word, core))
        assert accepts(d, word) == (not contains_core(word, core))


def test_infix_core_must_use_the_alphabet():
    with pytest.raises(AlphabetMismatch, match="core symbols 9:M are outside"):
        infix_language((sym(9, "M"),), full_alphabet(LINES))


def test_minimize_preserves_language_and_is_idempotent():
    for pattern in PATTERNS:
        a = from_pattern(pattern, LINES)
        m = minimize(a)
        assert same_language(a, m)
        again = minimize(m)
        assert again.n_states == m.n_states
        for word in words_up_to(full_alphabet(LINES), 4):
            assert accepts(a, word) == accepts(m, word)


def test_operations_demand_matching_alphabets():
    a = hit_or_miss((1, 2))
    b = hit_or_miss((1, 3))
    with pytest.raises(AlphabetMismatch, match="2:H 2:M 3:H 3:M differ"):
        subtract(a, b)
    with pytest.raises(AlphabetMismatch):
        intersect(a, b)


UNSORTED = "alphabet must be sorted, without duplicates"
TABLE_CASES = [
    ((sym(1, "M"), sym(1, "H")), ((0, 0),), {0}, UNSORTED),
    ((sym(1, "H"), sym(1, "H")), ((0, 0),), {0}, UNSORTED),
    ((sym(1, "H"), sym(1, "M")), ((0,),), {0},
     "state 0 is not complete over the alphabet"),
    ((sym(1, "H"), sym(1, "M")), ((0, 0), (0, 2)), {0},
     "state 1 has a dangling transition"),
    ((sym(1, "H"), sym(1, "M")), ((-1, 0),), {0},
     "state 0 has a dangling transition"),
    ((sym(1, "H"), sym(1, "M")), ((0, 0),), {0, 1},
     "accepting state out of range"),
    # the empty alphabet is valid, with empty rows: hit_or_miss([]) builds it
    ((), ((),), {0}, None),
]


# Plain numbered ids, so that a case keeps its name when a field is added.
@pytest.mark.parametrize(
    "alphabet, rows, accepting, message", TABLE_CASES,
    ids=[f"alphabet{i}-rows{i}" for i in range(len(TABLE_CASES))],
)
def test_table_format_is_checked(alphabet, rows, accepting, message):
    def build():
        return ClassifierAutomaton(
            alphabet=alphabet, initial=0, accepting=frozenset(accepting),
            transitions=rows,
        )

    if message is None:
        assert tables(build()) == tables(hit_or_miss([]))
        return
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


ALPHABET_12 = tuple(AccessSymbol(line, cls) for line in LINES for cls in (H, M))


@st.composite
def dfa_tables(draw):
    """(table, initial, accepting): ``table[q][symbol]`` is q's successor."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    table = [{s: draw(state) for s in ALPHABET_12} for _ in range(n)]
    return table, draw(state), frozenset(draw(st.sets(state)))


def table_accepts(dfa, word) -> bool:
    table, q, accepting = dfa
    for s in word:
        q = table[q][s]
    return q in accepting


def automaton_of(dfa) -> ClassifierAutomaton:
    table, initial, accepting = dfa
    return ClassifierAutomaton(
        alphabet=ALPHABET_12,
        initial=initial,
        accepting=accepting,
        transitions=tuple(tuple(row[s] for s in ALPHABET_12) for row in table),
    )


@st.composite
def dfa_tables_with_a_sink(draw):
    """A drawn table plus a rejecting sink that some transitions fall into."""
    table, initial, accepting = draw(dfa_tables())
    sink = len(table)
    table = [{s: sink if draw(st.booleans()) else q for s, q in row.items()}
             for row in table]
    table.append({s: sink for s in ALPHABET_12})
    return table, initial, accepting


# Both kinds of table: without a sink, a drawn table is rarely both live at
# its initial state and able to reach a dead state.
ANY_TABLE = dfa_tables() | dfa_tables_with_a_sink()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ANY_TABLE, ANY_TABLE)
def test_operations_match_a_walk_of_the_drawn_tables(da, db):
    a, b = automaton_of(da), automaton_of(db)
    not_a, both, a_not_b, min_a = (
        complement(a), intersect(a, b), subtract(a, b), minimize(a)
    )
    for word in words_up_to(ALPHABET_12, 5):
        in_a, in_b = table_accepts(da, word), table_accepts(db, word)
        assert accepts(not_a, word) == (not in_a)
        assert accepts(both, word) == (in_a and in_b)
        assert accepts(a_not_b, word) == (in_a and not in_b)
        assert accepts(min_a, word) == in_a


def full_product(
    a: ClassifierAutomaton, b: ClassifierAutomaton
) -> ClassifierAutomaton:
    """Every reachable pair of states, dead or live, with no shared sink."""
    index = {(a.initial, b.initial): 0}
    pairs = list(index)
    rows = []
    for qa, qb in pairs:
        row = []
        for pair in zip(a.transitions[qa], b.transitions[qb]):
            if pair not in index:
                index[pair] = len(pairs)
                pairs.append(pair)
            row.append(index[pair])
        rows.append(tuple(row))
    return ClassifierAutomaton(
        alphabet=a.alphabet,
        initial=0,
        accepting=frozenset(
            i for i, (qa, qb) in enumerate(pairs)
            if qa in a.accepting and qb in b.accepting
        ),
        transitions=tuple(rows),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANY_TABLE, ANY_TABLE)
def test_intersect_minimizes_like_the_full_product(da, db):
    # intersect sends every pair with a dead component to one sink; that
    # must change the state count only, never the minimized automaton
    a, b = automaton_of(da), automaton_of(db)
    trimmed, full = intersect(a, b), full_product(a, b)
    assert trimmed.n_states <= full.n_states
    got, want = minimize(trimmed), minimize(full)
    assert (got.transitions, got.accepting, got.initial) == (
        want.transitions, want.accepting, want.initial
    )


# --- the update against copies of its earlier form --------------------------
# ``intersect`` keys a live pair by the int ``qa * nb + qb`` and ``minimize``
# runs Moore over the whole table.  The copies below keep the earlier form:
# (qa, qb) tuples with a ``None`` sink, and Moore over the reachable part
# only.  Both forms must give equal tables, not merely equal languages.


def reference_number(start, step):
    index = {start: 0}
    states = [start]
    rows = []
    for state in states:
        row = []
        for nxt in step(state):
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return states, rows


def reference_intersect(
    a: ClassifierAutomaton, b: ClassifierAutomaton
) -> ClassifierAutomaton:
    live_a, live_b = a.live_states, b.live_states
    sink_row = (None,) * len(a.alphabet)

    def live_pair(qa, qb):
        return (qa, qb) if qa in live_a and qb in live_b else None

    def step(pair):
        if pair is None:
            return sink_row
        return [
            live_pair(qa, qb)
            for qa, qb in zip(a.transitions[pair[0]], b.transitions[pair[1]])
        ]

    pairs, rows = reference_number(live_pair(a.initial, b.initial), step)
    return ClassifierAutomaton(
        alphabet=a.alphabet,
        initial=0,
        accepting=frozenset(
            i for i, pair in enumerate(pairs)
            if pair is not None
            and pair[0] in a.accepting and pair[1] in b.accepting
        ),
        transitions=tuple(rows),
    )


def reference_minimize(a: ClassifierAutomaton) -> ClassifierAutomaton:
    reach, table = reference_number(a.initial, a.transitions.__getitem__)
    block = [0 if q in a.accepting else 1 for q in reach]
    n_blocks = len(set(block))
    while True:
        ids: dict = {}
        block = [
            ids.setdefault((block[q], tuple([block[r] for r in row])), len(ids))
            for q, row in enumerate(table)
        ]
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)
    member: dict = {}
    for q, blk in enumerate(block):
        member.setdefault(blk, q)
    blocks, rows = reference_number(
        block[0], lambda blk: [block[r] for r in table[member[blk]]]
    )
    return ClassifierAutomaton(
        alphabet=a.alphabet,
        initial=0,
        accepting=frozenset(
            i for i, blk in enumerate(blocks) if reach[member[blk]] in a.accepting
        ),
        transitions=tuple(rows),
    )


def reachable(dfa) -> set:
    table, initial, _ = dfa
    seen, todo = {initial}, [initial]
    while todo:
        for r in table[todo.pop()].values():
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return seen


@st.composite
def tables_with_unreachable_states(draw):
    """A drawn table plus states that nothing reachable leads to, with the
    state numbers shuffled so that those states sit anywhere."""
    table, initial, accepting = draw(ANY_TABLE)
    n = len(table)
    total = n + draw(st.integers(1, 3))
    state = st.integers(0, total - 1)
    table = table + [{s: draw(state) for s in ALPHABET_12} for _ in range(n, total)]
    accepting = accepting | {q for q in range(n, total) if draw(st.booleans())}
    new = draw(st.permutations(range(total)))
    shuffled = [None] * total
    for q, row in enumerate(table):
        shuffled[new[q]] = {s: new[r] for s, r in row.items()}
    return shuffled, new[initial], frozenset(new[q] for q in accepting)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ANY_TABLE | tables_with_unreachable_states())
def test_minimize_matches_the_reach_first_moore(dfa):
    a = automaton_of(dfa)
    assert tables(minimize(a)) == tables(reference_minimize(a))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(tables_with_unreachable_states())
def test_drawn_tables_have_unreachable_states(dfa):
    assert len(reachable(dfa)) < len(dfa[0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANY_TABLE | tables_with_unreachable_states(),
       ANY_TABLE | tables_with_unreachable_states())
def test_intersect_matches_the_tuple_pair_product(da, db):
    a, b = automaton_of(da), automaton_of(db)
    assert tables(intersect(a, b)) == tables(reference_intersect(a, b))


# Drawn tables have live rejecting states, unlike refinement's
# prefix-closed models; this one has one for sure: state 1 is live and
# rejecting, state 2 is dead.
LIVE_REJECTING = (
    [{s: 1 if s.cls is H else 2 for s in ALPHABET_12},
     {s: 0 for s in ALPHABET_12},
     {s: 2 for s in ALPHABET_12}],
    0,
    frozenset({0}),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANY_TABLE | tables_with_unreachable_states(),
       ANY_TABLE | tables_with_unreachable_states())
@example(LIVE_REJECTING, LIVE_REJECTING)
def test_subtract_matches_the_reference_update(da, db):
    a, o = automaton_of(da), automaton_of(db)
    assert tables(subtract(a, o)) == tables(
        reference_minimize(reference_intersect(a, complement(o)))
    )


def test_refinement_rounds_match_the_reference_update():
    # replay each round's core through subtract and through the copies
    rng = random.Random(22)
    rounds = 0
    for _ in range(200):
        program, config = random_program(rng), random_config(rng)
        log = run_refinement(program, config).log
        model = reference = hit_or_miss(program.lines(config))
        for step, after in zip(log, log[1:]):
            core = infix_language(step.core, model.alphabet)
            model = subtract(model, core)
            reference = reference_minimize(
                reference_intersect(reference, complement(core))
            )
            assert tables(model) == tables(reference)
            assert model.n_states == after.model_states
            rounds += 1
    assert rounds > 250


def table_live(dfa) -> set:
    """States of the drawn table from which an accepting state is reachable."""
    table, _, accepting = dfa
    live = set(accepting)
    while True:
        more = {q for q, row in enumerate(table) if live & set(row.values())}
        if more <= live:
            return live
        live |= more


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ANY_TABLE,
       st.sets(st.sampled_from(LINES)) | st.sets(st.integers(0, 3)))
@example(([{s: 0 for s in ALPHABET_12}], 0, frozenset({0})), {3, 1, 0})
@example(([{s: 0 for s in ALPHABET_12}], 0, frozenset()), set(LINES))
def test_lens_matches_a_walk_of_the_drawn_table(dfa, lines):
    a = automaton_of(dfa)
    missing = [AccessSymbol(line, cls) for line in sorted(lines) for cls in (H, M)
               if line not in LINES]
    live = table_live(dfa)
    if missing:
        text = " ".join(map(str, missing))
        with pytest.raises(AlphabetMismatch) as err:
            a.lens(lines)
        assert str(err.value) == f"model alphabet lacks program symbols {text}"
        return
    if a.initial not in live:
        with pytest.raises(AbstractModelEmpty) as err:
            a.lens(lines)
        assert str(err.value) == "the model allows no trace at all"
        return
    choices = a.lens(lines)
    table = dfa[0]
    for q in range(a.n_states):
        for line in lines:
            expected = [(cls, table[q][AccessSymbol(line, cls)]) for cls in (H, M)]
            assert choices(q, line) == [(c, r) for c, r in expected if r in live]


MODEL_TEXT = """
# accepts repetitions of Miss,Hit,Miss,Miss over line 1
alphabet 1:H 1:M
state s0 accepting
state s1
state s2
state s3
initial s0
trans s0 1:M s1
trans s1 1:H s2
trans s2 1:M s3
trans s3 1:M s0
"""


def test_parse_model_round_trip_against_pattern():
    a = parse_model(MODEL_TEXT)
    b = from_pattern("(M.H.M.M)*", (1,))
    assert same_language(a, b)


def test_parse_model_wildcards_expand_over_line_universe():
    text = """
alphabet *:H *:M
state ok accepting
initial ok
trans ok *:H ok
trans ok *:M ok
"""
    a = parse_model(text, lines=(1, 2, 3))
    assert set(a.alphabet) == set(full_alphabet((1, 2, 3)))
    for word in words_up_to(full_alphabet((1, 2, 3)), 3):
        assert accepts(a, word)


def test_parse_model_missing_transitions_reject():
    text = """
alphabet 1:H 1:M
state s0 accepting
initial s0
trans s0 1:H s0
"""
    a = parse_model(text)
    assert accepts(a, (sym(1, "H"), sym(1, "H")))
    assert not accepts(a, (sym(1, "M"),))
    assert not allows(a, (sym(1, "M"),))  # the sink is dead, not just rejecting


def test_parse_model_errors():
    from wcetbound import ParseError

    bad = [
        "alphabet 1:H 1:M\nstate s\nstate s\ninitial s\n",  # duplicate state
        "alphabet 1:X\nstate s\ninitial s\n",  # bad symbol
        "alphabet 1:H\nstate s\ninitial s\ntrans s 2:H s\n",  # foreign symbol
        "alphabet 1:H\nstate s\ninitial s\ntrans s 1:H s\ntrans s 1:H s\n",  # nondet
        "alphabet *:H\nstate s\ninitial s\n",  # wildcard without universe
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_model(text)
    with pytest.raises(ValidationError):
        parse_model("state s\ninitial s\n")  # no alphabet
    with pytest.raises(ValidationError):
        parse_model("alphabet 1:H\nstate s\n")  # no initial
    with pytest.raises(ValidationError):
        parse_model("alphabet 1:H\ninitial s\n")  # no states


@pytest.mark.parametrize("text, line_no, message", [
    ("alphabet 1:H\nstate s\n\ninitial q  # typo\n",
     4, "initial state 'q' not declared"),
    # a state may be declared after a transition names it; the error names
    # the first line that uses an undeclared one
    ("alphabet 1:H 1:M 2:H\ntrans s 1:M s\nstate s\ninitial s\n"
     "trans s 1:H t\ntrans s 2:H t\n",
     5, "transition uses undeclared state 't'"),
], ids=["initial", "trans"])
def test_parse_model_undeclared_states_name_their_line(text, line_no, message):
    from wcetbound import ParseError

    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == f"line {line_no}: {message}"
    assert err.value.line_no == line_no


def test_symbols_render_as_line_and_letter():
    assert str(sym(3, "M")) == "3:M"
    assert str(sym(0, "H")) == "0:H"
