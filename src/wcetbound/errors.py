"""Exception types and the line reader shared across the package."""

from __future__ import annotations

from typing import Iterator


class AnalysisError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(AnalysisError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def token_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number from 1, tokens) of each line of ``text`` that has tokens
    once its ``#`` comment is cut: every text format reads its lines here."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


class PatternParseError(ParseError):
    """Malformed classification pattern string."""


class ValidationError(AnalysisError):
    """Structurally well-formed input that violates a semantic invariant."""


class UnknownInstruction(AnalysisError):
    """A pc was used that the duration table does not cover."""

    def __init__(self, pc: int):
        self.pc = pc
        super().__init__(f"no duration known for pc={pc}")


class AlphabetMismatch(AnalysisError):
    """An automaton operation mixed incompatible alphabets, or a symbol
    fell outside an automaton's alphabet."""


class BoundExceeded(AnalysisError):
    """The program admits runs longer than the requested bound (for
    example because a cycle reaches the end location)."""


class AbstractModelEmpty(AnalysisError):
    """The abstract model admits no complete run of the program."""


class IterationBudgetExceeded(AnalysisError):
    """The refinement loop hit its iteration budget.  ``log`` holds the
    iterations completed before giving up."""

    def __init__(self, message: str, log=()):
        self.log = tuple(log)
        super().__init__(message)
