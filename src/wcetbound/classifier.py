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
table; other code steps an automaton through ``ClassifierAutomaton.step``.

Constructors: the universal model ``hit_or_miss``, classification-only
``from_pattern`` expressions like ``(M.H.M.M)*``, the contains-infix
language ``infix_language``, and the ``parse_model`` file format.  The
``subtract`` operation removes one language from another; it is how
refinement rules out behaviours no real cache exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .cache import Classification, ClassifiedAccess
from .errors import AlphabetMismatch, ParseError, PatternParseError, ValidationError


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
    successor of q on ``alphabet[i]``.  Identity equality only; language
    comparison goes through ``same_language``.
    """

    alphabet: tuple[AccessSymbol, ...]
    initial: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.transitions)
        if not (0 <= self.initial < n):
            raise ValidationError("initial state out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise ValidationError("accepting state out of range")
        alphabet = self.alphabet
        if any(a >= b for a, b in zip(alphabet, alphabet[1:])):
            raise ValidationError("alphabet must be sorted, without duplicates")
        for q, row in enumerate(self.transitions):
            if len(row) != len(alphabet):
                raise ValidationError(
                    f"state {q} is not complete over the alphabet"
                )
            if not all(0 <= r < n for r in row):
                raise ValidationError(f"state {q} has a dangling transition")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @cached_property
    def _column(self) -> dict[AccessSymbol, int]:
        return {sym: i for i, sym in enumerate(self.alphabet)}

    def step(self, state: int, symbol: AccessSymbol) -> int:
        column = self._column.get(symbol)
        if column is None:
            raise AlphabetMismatch(
                f"symbol {symbol} is not in the automaton's alphabet"
            )
        return self.transitions[state][column]

    def run(self, symbols: Iterable[AccessSymbol]) -> int:
        state = self.initial
        for sym in symbols:
            state = self.step(state, sym)
        return state

    def live_states(self) -> frozenset[int]:
        """States from which some accepting state is reachable."""
        pred: dict[int, set[int]] = {q: set() for q in range(self.n_states)}
        for q, row in enumerate(self.transitions):
            for nxt in row:
                pred[nxt].add(q)
        live = set(self.accepting)
        todo = list(live)
        while todo:
            for p in pred[todo.pop()]:
                if p not in live:
                    live.add(p)
                    todo.append(p)
        return frozenset(live)


def as_symbols(
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> tuple[AccessSymbol, ...]:
    """Project a classified trace onto its (line, cls) symbols."""
    out = []
    for item in trace:
        if isinstance(item, AccessSymbol):
            out.append(item)
        else:
            out.append(AccessSymbol(item.line, item.cls))
    return tuple(out)


def full_alphabet(lines: Iterable[int]) -> tuple[AccessSymbol, ...]:
    """Both classifications of every given line, sorted."""
    return tuple(
        AccessSymbol(line, cls)
        for line in sorted(set(lines))
        for cls in (Classification.HIT, Classification.MISS)
    )


def accepts(
    automaton: ClassifierAutomaton,
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> bool:
    """Exact-language membership: the word ends in an accepting state."""
    return automaton.run(as_symbols(trace)) in automaton.accepting


def allows(
    automaton: ClassifierAutomaton,
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> bool:
    """Prefix-lens membership: no prefix of the trace goes dead.

    Equivalent to the reached state still being live, since liveness
    propagates backwards along every path.  The empty trace is allowed
    exactly when the initial state is live.
    """
    return automaton.run(as_symbols(trace)) in automaton.live_states()


def _check_same_alphabet(
    a: ClassifierAutomaton, b: ClassifierAutomaton
) -> tuple[AccessSymbol, ...]:
    if a.alphabet != b.alphabet:
        differ = sorted(set(a.alphabet) ^ set(b.alphabet))
        raise AlphabetMismatch(
            "operations need identical alphabets: "
            f"{' '.join(map(str, differ))} differ"
        )
    return a.alphabet


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


def intersect(
    a: ClassifierAutomaton, b: ClassifierAutomaton
) -> ClassifierAutomaton:
    """Product construction, restricted to reachable pairs."""
    _check_same_alphabet(a, b)
    start = (a.initial, b.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    rows: list[tuple[int, ...]] = []
    pairs = [start]
    for qa, qb in pairs:
        row = []
        for nxt in zip(a.transitions[qa], b.transitions[qb]):
            if nxt not in index:
                index[nxt] = len(index)
                pairs.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    accepting = frozenset(
        i for (qa, qb), i in index.items()
        if qa in a.accepting and qb in b.accepting
    )
    return ClassifierAutomaton(
        alphabet=a.alphabet,
        initial=0,
        accepting=accepting,
        transitions=tuple(rows),
    )


def minimize(a: ClassifierAutomaton) -> ClassifierAutomaton:
    """Language-preserving minimization with canonical state numbering.

    Moore partition refinement over the reachable part, then a BFS renumber
    in column order, so equal-language minimal automata come out
    structurally identical.
    """
    table = a.transitions
    # Reachable restriction.
    reach = [a.initial]
    seen = {a.initial}
    for q in reach:
        for nxt in table[q]:
            if nxt not in seen:
                seen.add(nxt)
                reach.append(nxt)
    block = {q: (0 if q in a.accepting else 1) for q in reach}
    n_blocks = len(set(block.values()))
    while True:
        # A signature holds the state's own block, so each round only
        # splits blocks: the partition is stable once the count stops.
        ids: dict[tuple, int] = {}
        new_block = {
            q: ids.setdefault(
                (block[q], tuple([block[r] for r in table[q]])), len(ids)
            )
            for q in reach
        }
        block = new_block
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)
    # Quotient, renumbered by BFS from the initial block.
    repr_of_block: dict[int, int] = {}
    for q in reach:
        repr_of_block.setdefault(block[q], q)
    bfs_index: dict[int, int] = {block[a.initial]: 0}
    bfs = [block[a.initial]]
    for blk in bfs:
        for r in table[repr_of_block[blk]]:
            nb = block[r]
            if nb not in bfs_index:
                bfs_index[nb] = len(bfs_index)
                bfs.append(nb)
    rows = tuple(
        tuple([bfs_index[block[r]] for r in table[repr_of_block[blk]]])
        for blk in bfs
    )
    accepting = frozenset(
        i for i, blk in enumerate(bfs) if repr_of_block[blk] in a.accepting
    )
    return ClassifierAutomaton(
        alphabet=a.alphabet,
        initial=0,
        accepting=accepting,
        transitions=rows,
    )


def subtract(
    a: ClassifierAutomaton, o: ClassifierAutomaton
) -> ClassifierAutomaton:
    """Language difference L(a) minus L(o), minimized."""
    _check_same_alphabet(a, o)
    return minimize(intersect(a, complement(o)))


def is_empty_language(a: ClassifierAutomaton) -> bool:
    return a.initial not in a.live_states()


def same_language(a: ClassifierAutomaton, b: ClassifierAutomaton) -> bool:
    return is_empty_language(subtract(a, b)) and is_empty_language(subtract(b, a))


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

_EPS = None


def _parse_pattern(pattern: str):
    """Recursive-descent parser for H/M patterns with '.', '*', parens.

    Returns an AST of ('sym', Classification) | ('cat', [..]) | ('star', x).
    """
    pos = 0
    text = pattern

    def error(msg: str):
        raise PatternParseError(f"{msg} at position {pos} in {text!r}")

    def peek() -> str | None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return text[pos] if pos < len(text) else None

    def parse_expr():
        nonlocal pos
        factors = [parse_factor()]
        while peek() == ".":
            pos += 1
            factors.append(parse_factor())
        return ("cat", factors)

    def parse_factor():
        nonlocal pos
        node = parse_atom()
        while peek() == "*":
            pos += 1
            node = ("star", node)
        return node

    def parse_atom():
        nonlocal pos
        ch = peek()
        if ch == "H" or ch == "M":
            pos += 1
            return ("sym", Classification.from_letter(ch))
        if ch == "(":
            pos += 1
            node = parse_expr()
            if peek() != ")":
                error("expected ')'")
            pos += 1
            return node
        error(f"expected H, M or '(', got {ch!r}")

    if peek() is None:
        return ("cat", [])
    ast = parse_expr()
    if peek() is not None:
        error(f"unexpected {peek()!r}")
    return ast


def from_pattern(pattern: str, lines: Iterable[int]) -> ClassifierAutomaton:
    """Compile a classification-only pattern over the given lines.

    The pattern constrains hit/miss letters only; any line may carry each
    letter.  Grammar: H | M | '(' expr ')' with '.' concatenation and
    postfix '*'.  The empty pattern accepts only the empty trace, whose
    prefix lens then allows nothing but the empty trace.
    """
    alphabet = full_alphabet(lines)
    ast = _parse_pattern(pattern)

    # Thompson construction over the two classification letters.
    nfa_eps: list[list[int]] = []
    nfa_sym: list[list[tuple[Classification, int]]] = []

    def new_state() -> int:
        nfa_eps.append([])
        nfa_sym.append([])
        return len(nfa_eps) - 1

    def build(node) -> tuple[int, int]:
        kind = node[0]
        if kind == "sym":
            s, t = new_state(), new_state()
            nfa_sym[s].append((node[1], t))
            return s, t
        if kind == "cat":
            s = t = new_state()
            for child in node[1]:
                cs, ct = build(child)
                nfa_eps[t].append(cs)
                t = ct
            return s, t
        if kind == "star":
            cs, ct = build(node[1])
            s = new_state()
            nfa_eps[s].append(cs)
            nfa_eps[ct].append(s)
            return s, s
        raise AssertionError(kind)

    start, accept = build(ast)

    def closure(states: frozenset[int]) -> frozenset[int]:
        out = set(states)
        todo = list(states)
        while todo:
            for nxt in nfa_eps[todo.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    todo.append(nxt)
        return frozenset(out)

    start_set = closure(frozenset({start}))
    index: dict[frozenset[int], int] = {start_set: 0}
    # Row of the two-letter DFA: (successor on H, successor on M).
    letter_rows: list[tuple[int, ...]] = []
    subsets = [start_set]
    for current in subsets:
        row = []
        for letter in (Classification.HIT, Classification.MISS):
            moved = frozenset(
                t for q in current for (c, t) in nfa_sym[q] if c == letter
            )
            nxt = closure(moved)
            if nxt not in index:
                index[nxt] = len(index)
                subsets.append(nxt)
            row.append(index[nxt])
        letter_rows.append(tuple(row))
    accepting = frozenset(
        i for subset, i in index.items() if accept in subset
    )
    # Lift the two-letter DFA to the full symbol alphabet: lines are
    # indistinguishable to a pattern.
    rows = tuple(
        tuple(row[sym.cls] for sym in alphabet) for row in letter_rows
    )
    return minimize(
        ClassifierAutomaton(
            alphabet=alphabet,
            initial=0,
            accepting=accepting,
            transitions=rows,
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
        universe = sorted(set(lines))
        if not universe:
            raise ParseError("wildcard symbol over an empty line universe", line_no)
        return [AccessSymbol(line, cls) for line in universe]
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
    trans: dict[tuple[str, AccessSymbol], str] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
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
            initial_name = args[0]
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
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no)

    if alphabet is None:
        raise ValidationError("missing alphabet directive")
    if not names:
        raise ValidationError("model declares no states")
    if initial_name is None:
        raise ValidationError("missing initial directive")
    if initial_name not in names:
        raise ValidationError(f"initial state {initial_name!r} not declared")
    for (src, _), dst in trans.items():
        for loc in (src, dst):
            if loc not in names:
                raise ValidationError(f"transition uses undeclared state {loc!r}")

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
