"""Language queries on classifier automata, used only by the tests.

``accepts`` and ``allows`` walk a trace through an automaton's table;
``same_language`` decides equivalence through ``subtract``, so it checks
the algebra against itself and is best used beside a walk-based oracle.
"""

from __future__ import annotations

from typing import Iterable

from wcetbound import AccessSymbol, ClassifiedAccess, ClassifierAutomaton, subtract
from wcetbound.classifier import as_symbols


def _walk(
    automaton: ClassifierAutomaton,
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> int:
    """The state the automaton's table reaches on the trace's symbols."""
    column = {sym: i for i, sym in enumerate(automaton.alphabet)}
    state = automaton.initial
    for sym in as_symbols(trace):
        state = automaton.transitions[state][column[sym]]
    return state


def accepts(
    automaton: ClassifierAutomaton,
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> bool:
    """Exact-language membership: the word ends in an accepting state."""
    return _walk(automaton, trace) in automaton.accepting


def allows(
    automaton: ClassifierAutomaton,
    trace: Iterable[ClassifiedAccess | AccessSymbol],
) -> bool:
    """Prefix-lens membership: no prefix of the trace goes dead.

    Equivalent to the reached state still being live, since liveness
    propagates backwards along every path.  The empty trace is allowed
    exactly when the initial state is live.
    """
    return _walk(automaton, trace) in automaton.live_states


def is_empty_language(a: ClassifierAutomaton) -> bool:
    return a.initial not in a.live_states


def same_language(a: ClassifierAutomaton, b: ClassifierAutomaton) -> bool:
    return is_empty_language(subtract(a, b)) and is_empty_language(subtract(b, a))
