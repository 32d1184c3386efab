"""Deterministic classifier automata over cache-access symbols.

A symbol is a (line, classification) pair; an automaton reads the symbol
sequence of a classified trace.  Automata are deterministic and complete
over their alphabet.  Their accepted language is always read through a
prefix lens: a trace is *allowed* when no prefix enters a dead state (a
state from which no accepting state is reachable), i.e. when the trace can
still be extended to an accepted word.  Abstract cache models are exactly
such automata.

An automaton is a plain table.  Its alphabet is a sorted tuple of distinct
symbols, and row ``transitions[q]`` is a tuple of ints whose column i holds
the successor of state q on ``alphabet[i]``.  Only this module reads the
table or tests liveness.  Besides the operations below, its one reader is
``ClassifierAutomaton.lens``: an explorer asks it for the classifications
an access may have.

Constructors: the universal model ``hit_or_miss``, classification-only
``from_pattern`` expressions like ``(M.H.M.M)*``, the contains-infix
language ``infix_language``, and the ``parse_model`` file format.  A
pattern compiles in one pass: the parser builds its position automaton,
whose DFA states are sets of letter positions, with no epsilon moves.  The
``subtract`` operation removes one language from another; it is how
refinement rules out behaviours no real cache exhibits.  The operations
share two table-level steps.  The product keeps only the reachable pairs
whose components are both live, numbering pair (qa, qb) as the int
``qa * nb + qb`` for a right operand of nb states: every pair with a dead
component accepts nothing, so all of them share one rejecting sink,
``-1``.  The quotient runs Moore's rounds over the whole table, column by
column, and keeps only the blocks reachable from the initial one.
``intersect`` is the product and ``minimize`` the quotient; ``subtract``
reads the complement of its right operand off that operand's table and
feeds the product's table to the quotient, so it builds one automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .cache import Classification, ClassifiedAccess
from .errors import (
    AbstractModelEmpty,
    AlphabetMismatch,
    ParseError,
    PatternParseError,
    ValidationError,
    token_lines,
)


@dataclass(frozen=True, order=True)
class AccessSymbol:
    """One letter of the trace alphabet: which line, hit or miss."""

    line: int
    cls: Classification

    def __str__(self) -> str:
        return f"{self.line}:{self.cls.letter}"


@dataclass(frozen=True, eq=False)
class ClassifierAutomaton:
    """Complete DFA over AccessSymbols.  States are 0..n-1.

    ``alphabet`` is sorted and holds no symbol twice.  ``transitions[q]``
    is a tuple with one int per alphabet symbol: column i holds the
    successor of q on ``alphabet[i]``.  Identity equality only; two
    ``minimize`` results of equal language have equal tables.
    """

    alphabet: tuple[AccessSymbol, ...]
    initial: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.transitions)
        if not (0 <= self.initial < n):
            raise ValidationError("initial state out of range")
        accepting = self.accepting
        if accepting and (min(accepting) < 0 or max(accepting) >= n):
            raise ValidationError("accepting state out of range")
        alphabet = self.alphabet
        if any(a >= b for a, b in zip(alphabet, alphabet[1:])):
            raise ValidationError("alphabet must be sorted, without duplicates")
        width = len(alphabet)
        for q, row in enumerate(self.transitions):
            if len(row) != width:
                raise ValidationError(
                    f"state {q} is not complete over the alphabet"
                )
            if row and (min(row) < 0 or max(row) >= n):
                raise ValidationError(f"state {q} has a dangling transition")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @cached_property
    def live_states(self) -> frozenset[int]:
        """States from which some accepting state is reachable, computed
        once per automaton: ``lens`` and the product share it."""
        return _coreach(self.transitions, self.accepting)

    def lens(self, lines: Iterable[int]) -> Callable[[int, int], list]:
        """The prefix lens as ``choices(state, line)``: the (classification,
        successor) pairs of one access to ``line`` whose successor is live,
        Hit first.  Raises AlphabetMismatch naming every symbol of ``lines``
        the alphabet lacks, and AbstractModelEmpty if the initial state is dead.
        """
        wanted = full_alphabet(lines)
        column = {sym: i for i, sym in enumerate(self.alphabet)}
        missing = [sym for sym in wanted if sym not in column]
        if missing:
            raise AlphabetMismatch(
                f"model alphabet lacks program symbols {' '.join(map(str, missing))}"
            )
        live = self.live_states
        if self.initial not in live:
            raise AbstractModelEmpty("the model allows no trace at all")
        columns: dict[int, list[tuple[Classification, int]]] = {}
        for sym in wanted:
            columns.setdefault(sym.line, []).append((sym.cls, column[sym]))

        def choices(state: int, line: int) -> list[tuple[Classification, int]]:
            row = self.transitions[state]
            return [(cls, row[i]) for cls, i in columns[line] if row[i] in live]

        return choices


def as_symbols(
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> tuple[AccessSymbol, ...]:
    """Project a classified trace onto its (line, cls) symbols."""
    return tuple(AccessSymbol(item.line, item.cls) for item in trace)


def full_alphabet(lines: Iterable[int]) -> tuple[AccessSymbol, ...]:
    """Both classifications of every given line, sorted."""
    return tuple(
        AccessSymbol(line, cls)
        for line in sorted(set(lines))
        for cls in (Classification.HIT, Classification.MISS)
    )


def hit_or_miss(lines: Iterable[int]) -> ClassifierAutomaton:
    """The universal model: every classification of every line is allowed."""
    alphabet = full_alphabet(lines)
    return ClassifierAutomaton(
        alphabet=alphabet,
        initial=0,
        accepting=frozenset({0}),
        transitions=((0,) * len(alphabet),),
    )


def complement(a: ClassifierAutomaton) -> ClassifierAutomaton:
    return ClassifierAutomaton(
        alphabet=a.alphabet,
        initial=a.initial,
        accepting=frozenset(range(a.n_states)) - a.accepting,
        transitions=a.transitions,
    )


def _coreach(table, targets) -> frozenset[int]:
    """The states of ``table`` from which some state of ``targets`` is
    reachable."""
    pred: list[set[int]] = [set() for _ in table]
    for q, row in enumerate(table):
        for nxt in row:
            pred[nxt].add(q)
    reached = set(targets)
    todo = list(reached)
    while todo:
        for p in pred[todo.pop()]:
            if p not in reached:
                reached.add(p)
                todo.append(p)
    return frozenset(reached)


def _number(start, step):
    """Number the states reachable from ``start`` in BFS order.

    ``step(state)`` gives the state's whole row of successors, in column
    order.  Returns the states in order of their numbers and each state's
    row of successor numbers.
    """
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


def _same_alphabet(a: ClassifierAutomaton, b: ClassifierAutomaton) -> None:
    if a.alphabet != b.alphabet:
        differ = sorted(set(a.alphabet) ^ set(b.alphabet))
        raise AlphabetMismatch(
            "operations need identical alphabets: "
            f"{' '.join(map(str, differ))} differ"
        )


def _product(a: ClassifierAutomaton, b: ClassifierAutomaton, accepting, live):
    """The table of ``a`` times ``b`` read with ``accepting`` and its live
    states ``live`` in place of b's own, over the reachable pairs whose
    components are both live.  While the BFS numbers them, a live pair
    (qa, qb) is the int ``qa * b.n_states + qb``; a pair with a dead
    component accepts nothing, so all such pairs share one rejecting
    sink, ``-1``.  Returns the rows and the accepting state numbers."""
    ta, tb = a.transitions, b.transitions
    live_a = a.live_states
    nb = b.n_states
    sink_row = (-1,) * len(a.alphabet)

    def step(pair: int):
        if pair < 0:
            return sink_row
        qa, qb = divmod(pair, nb)
        return [
            ra * nb + rb if ra in live_a and rb in live else -1
            for ra, rb in zip(ta[qa], tb[qb])
        ]

    qa, qb = a.initial, b.initial
    pairs, rows = _number(qa * nb + qb if qa in live_a and qb in live else -1, step)
    return rows, frozenset(
        i for i, pair in enumerate(pairs)
        if pair >= 0 and pair // nb in a.accepting and pair % nb in accepting
    )


def _quotient(table, accepting, initial):
    """Moore partition refinement over the whole table, reachable or not,
    then a BFS renumber of the quotient from the initial block in column
    order.  Returns the quotient's rows and accepting state numbers; its
    initial state is 0."""
    # One gather per column; a spare index keeps each gather a tuple when
    # there is one state, and zip stops at the last state.
    gathers = [itemgetter(*column, 0) for column in zip(*table)]
    block = list(map(accepting.__contains__, range(len(table))))
    n_blocks = len(set(block))
    while True:
        # A signature holds the state's own block, so each round only
        # splits blocks: the partition is stable once the count stops.
        ids: dict[tuple, int] = {}
        block = [
            ids.setdefault(signature, len(ids))
            for signature in zip(block, *[gather(block) for gather in gathers])
        ]
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)
    # Quotient: any member stands for its block, since the partition is
    # stable.
    member = dict(zip(block, range(len(block))))
    blocks, rows = _number(
        block[initial], lambda blk: map(block.__getitem__, table[member[blk]])
    )
    return rows, frozenset(
        i for i, blk in enumerate(blocks) if member[blk] in accepting
    )


def _automaton(a: ClassifierAutomaton, rows, accepting) -> ClassifierAutomaton:
    return ClassifierAutomaton(
        alphabet=a.alphabet, initial=0, accepting=accepting, transitions=tuple(rows)
    )


def intersect(
    a: ClassifierAutomaton, b: ClassifierAutomaton
) -> ClassifierAutomaton:
    """Product construction over the reachable pairs whose components are
    both live, numbered as ``_product`` states.  The language is that of
    the full product."""
    _same_alphabet(a, b)
    return _automaton(a, *_product(a, b, b.accepting, b.live_states))


def minimize(a: ClassifierAutomaton) -> ClassifierAutomaton:
    """Language-preserving minimization with canonical state numbering.

    A state's block depends on its own language only, and ``_quotient``'s
    BFS keeps only the reachable blocks, so equal-language minimal
    automata come out structurally identical.
    """
    return _automaton(a, *_quotient(a.transitions, a.accepting, a.initial))


def subtract(
    a: ClassifierAutomaton, o: ClassifierAutomaton
) -> ClassifierAutomaton:
    """Language difference L(a) minus L(o), minimized, with the tables of
    ``minimize(intersect(a, complement(o)))``.  The complement is read
    straight off o's table: its accepting states are o's rejecting ones,
    and its live states those that reach one.  The product's table goes
    straight into ``_quotient``, so the result is the only automaton built.
    """
    _same_alphabet(a, o)
    rejecting = frozenset(range(o.n_states)) - o.accepting
    rows, accepting = _product(a, o, rejecting, _coreach(o.transitions, rejecting))
    return _automaton(a, *_quotient(rows, accepting, 0))


def infix_language(
    core: Sequence[ClassifiedAccess | AccessSymbol],
    alphabet: Iterable[AccessSymbol],
) -> ClassifierAutomaton:
    """Automaton for: some contiguous occurrence of ``core`` appears.

    Failure-function (matching-automaton) construction: state q < len(core)
    means the longest suffix of the input matching a prefix of the core has
    length q; the full-match state absorbs.
    """
    syms = as_symbols(core)
    if not syms:
        raise ValidationError("core must be nonempty")
    alpha = tuple(sorted(set(alphabet)))
    column = {sym: i for i, sym in enumerate(alpha)}
    missing = sorted(set(syms) - column.keys())
    if missing:
        raise AlphabetMismatch(
            f"core symbols {' '.join(map(str, missing))} are outside the alphabet"
        )
    cols = [column[sym] for sym in syms]
    m = len(syms)
    rows = [[0] * len(alpha)]
    rows[0][cols[0]] = 1
    # ``border`` is the state the automaton reaches on syms[1:q], i.e. the
    # longest proper border of syms[:q]; off the core, state q behaves as
    # that strictly smaller, already built state does.
    border = 0
    for q in range(1, m):
        row = list(rows[border])
        row[cols[q]] = q + 1
        rows.append(row)
        border = rows[border][cols[q]]
    rows.append([m] * len(alpha))
    return ClassifierAutomaton(
        alphabet=alpha,
        initial=0,
        accepting=frozenset({m}),
        transitions=tuple(map(tuple, rows)),
    )


# --- pattern expressions ---------------------------------------------------

# Deepest parenthesis nesting a pattern may use; the parser adds three
# frames per level, so this keeps it well below Python's recursion limit.
MAX_PATTERN_NESTING = 100


def from_pattern(pattern: str, lines: Iterable[int]) -> ClassifierAutomaton:
    """Compile a classification-only pattern over the given lines.

    The pattern constrains hit/miss letters only; any line may carry each
    letter.  Grammar: H | M | '(' expr ')' with '.' concatenation and
    postfix '*', nested at most MAX_PATTERN_NESTING parentheses deep.  The
    empty pattern accepts only the empty trace, whose prefix lens then
    allows nothing but the empty trace.

    Position automaton (McNaughton-Yamada, Glushkov), built while parsing:
    each H or M is a position, position 0 is the start, and each
    subexpression yields (nullable, first positions, last positions).
    Concatenation and star add to one ``follow`` table; the DFA states are
    the sets of positions reached.
    """
    alphabet = full_alphabet(lines)
    pos = 0
    letter_of: list[Classification | None] = [None]
    follow: list[set[int]] = [set()]

    def error(msg: str):
        raise PatternParseError(f"{msg} at position {pos} in {pattern!r}")

    def peek() -> str | None:
        nonlocal pos
        while pos < len(pattern) and pattern[pos].isspace():
            pos += 1
        return pattern[pos] if pos < len(pattern) else None

    def link(last: set[int], first: set[int]) -> None:
        for p in last:
            follow[p] |= first

    def parse_expr(depth: int):
        nonlocal pos
        nullable, first, last = parse_factor(depth)
        while peek() == ".":
            pos += 1
            n2, f2, l2 = parse_factor(depth)
            link(last, f2)
            first = first | f2 if nullable else first
            last = last | l2 if n2 else l2
            nullable = nullable and n2
        return nullable, first, last

    def parse_factor(depth: int):
        nonlocal pos
        nullable, first, last = parse_atom(depth)
        while peek() == "*":
            pos += 1
            link(last, first)
            nullable = True
        return nullable, first, last

    def parse_atom(depth: int):
        nonlocal pos
        ch = peek()
        if ch == "H" or ch == "M":
            pos += 1
            letter_of.append(Classification.from_letter(ch))
            follow.append(set())
            return False, {len(follow) - 1}, {len(follow) - 1}
        if ch == "(":
            if depth == MAX_PATTERN_NESTING:
                error(f"parentheses nested deeper than {MAX_PATTERN_NESTING}")
            pos += 1
            result = parse_expr(depth + 1)
            if peek() != ")":
                error("expected ')'")
            pos += 1
            return result
        error(f"expected H, M or '(', got {ch!r}")

    if peek() is None:
        nullable, first, last = True, set(), set()
    else:
        nullable, first, last = parse_expr(0)
        if peek() is not None:
            error(f"unexpected {peek()!r}")
    follow[0] = first
    final = last | {0} if nullable else last

    def step(state: frozenset[int]) -> list[frozenset[int]]:
        reached = set().union(*[follow[p] for p in state])
        return [
            frozenset(q for q in reached if letter_of[q] is letter)
            for letter in (Classification.HIT, Classification.MISS)
        ]

    # Rows of the two-letter DFA: (successor on H, successor on M).
    states, letter_rows = _number(frozenset({0}), step)
    # Lift the two-letter DFA to the full symbol alphabet: lines are
    # indistinguishable to a pattern.
    return minimize(
        ClassifierAutomaton(
            alphabet=alphabet,
            initial=0,
            accepting=frozenset(
                i for i, state in enumerate(states) if not final.isdisjoint(state)
            ),
            transitions=tuple(
                tuple(row[sym.cls] for sym in alphabet) for row in letter_rows
            ),
        )
    )


# --- model file format -----------------------------------------------------


def _parse_symbol_token(
    token: str, line_no: int, lines: Iterable[int] | None
) -> list[AccessSymbol]:
    """Parse `line:cls`; `*:cls` expands over the given line universe."""
    head, sep, tail = token.partition(":")
    if not sep or tail not in ("H", "M"):
        raise ParseError(
            f"expected <line:H|M> or *:H|*:M, got {token!r}", line_no
        )
    cls = Classification.from_letter(tail)
    if head == "*":
        if lines is None:
            raise ParseError(
                "wildcard symbol needs a line universe (analyze a program, "
                "or list lines explicitly)",
                line_no,
            )
        return [AccessSymbol(line, cls) for line in sorted(set(lines))]
    try:
        return [AccessSymbol(int(head), cls)]
    except ValueError:
        raise ParseError(f"line id must be an integer, got {head!r}", line_no) from None


def parse_model(text: str, lines: Iterable[int] | None = None) -> ClassifierAutomaton:
    """Parse the automaton file format.

    Directives (``#`` comments allowed):
      alphabet <line:cls> ...      one line, `*:H`/`*:M` wildcards allowed
      state <name> [accepting]
      initial <name>
      trans <from> <line:cls|*:cls> <to>

    Missing transitions complete into a rejecting sink.  Two trans lines
    for the same state and symbol are rejected: models are deterministic.
    """
    line_list = list(lines) if lines is not None else None
    alphabet: set[AccessSymbol] | None = None
    names: dict[str, int] = {}
    accepting_names: set[str] = set()
    initial_name: str | None = None
    initial_line = 0
    trans: dict[tuple[str, AccessSymbol], str] = {}
    named_at: dict[str, int] = {}  # the line that first names each trans state

    for line_no, (directive, *args) in token_lines(text):
        if directive == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate alphabet directive", line_no)
            if not args:
                raise ParseError("alphabet must list at least one symbol", line_no)
            alphabet = set()
            for token in args:
                alphabet.update(_parse_symbol_token(token, line_no, line_list))
        elif directive == "state":
            if not args or len(args) > 2:
                raise ParseError("state takes <name> [accepting]", line_no)
            if len(args) == 2 and args[1] != "accepting":
                raise ParseError(f"unknown state flag {args[1]!r}", line_no)
            if args[0] in names:
                raise ParseError(f"duplicate state {args[0]!r}", line_no)
            names[args[0]] = len(names)
            if len(args) == 2:
                accepting_names.add(args[0])
        elif directive == "initial":
            if initial_name is not None:
                raise ParseError("duplicate initial directive", line_no)
            if len(args) != 1:
                raise ParseError("initial takes exactly one state name", line_no)
            initial_name, initial_line = args[0], line_no
        elif directive == "trans":
            if len(args) != 3:
                raise ParseError("trans takes <from> <symbol> <to>", line_no)
            src, token, dst = args
            if alphabet is None:
                raise ParseError("trans before alphabet directive", line_no)
            for sym in _parse_symbol_token(token, line_no, line_list):
                if sym not in alphabet:
                    raise ParseError(
                        f"symbol {sym} is not in the declared alphabet", line_no
                    )
                if (src, sym) in trans:
                    raise ParseError(
                        f"nondeterministic: two transitions from {src!r} on {sym}",
                        line_no,
                    )
                trans[(src, sym)] = dst
                named_at.setdefault(src, line_no)
                named_at.setdefault(dst, line_no)
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no)

    if alphabet is None:
        raise ValidationError("missing alphabet directive")
    if not names:
        raise ValidationError("model declares no states")
    if initial_name is None:
        raise ValidationError("missing initial directive")
    if initial_name not in names:
        raise ParseError(f"initial state {initial_name!r} not declared", initial_line)
    for loc, line_no in named_at.items():
        if loc not in names:
            raise ParseError(f"transition uses undeclared state {loc!r}", line_no)

    alpha = tuple(sorted(alphabet))
    sink = len(names)
    rows = [
        tuple(names.get(trans.get((name, sym), ""), sink) for sym in alpha)
        for name in names
    ]
    rows.append((sink,) * len(alpha))
    return ClassifierAutomaton(
        alphabet=alpha,
        initial=names[initial_name],
        accepting=frozenset(names[n] for n in accepting_names),
        transitions=tuple(rows),
    )
