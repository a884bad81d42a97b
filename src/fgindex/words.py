"""Reduced words in a finitely generated free group.

A letter is a nonzero int: generator number i (0-based) is encoded as i + 1,
its inverse as -(i + 1).  A word is a tuple of letters with no adjacent
cancelling pair.  The empty tuple is the trivial word and prints as ``1``.
"""

from __future__ import annotations

import enum
import re

from .errors import EmptyInput, ParseError

Letter = int
Word = tuple

EPSILON: Word = ()

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class Purity(enum.Enum):
    EMPTY = "empty"
    PURE_POSITIVE = "pure_positive"
    PURE_NEGATIVE = "pure_negative"
    MIXED = "mixed"


def is_reduced(u) -> bool:
    return all(u[i] != -u[i + 1] for i in range(len(u) - 1))


def concat(*parts) -> Word:
    """Product of reduced words, reduced at every seam."""
    out = []
    for part in parts:
        for x in part:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def invert(u) -> Word:
    return tuple(-x for x in reversed(u))


def purity(u) -> Purity:
    if not u:
        return Purity.EMPTY
    if all(x > 0 for x in u):
        return Purity.PURE_POSITIVE
    if all(x < 0 for x in u):
        return Purity.PURE_NEGATIVE
    return Purity.MIXED


def letter_sort_key(x):
    # Positive letter before its inverse, generators in declaration order.
    return (abs(x) - 1, 0 if x > 0 else 1)


def word_sort_key(u):
    return tuple(letter_sort_key(x) for x in u)


class Alphabet:
    """Named generators, mapping between text tokens and int letters."""

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ParseError("alphabet must have at least one generator")
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ParseError(f"bad generator name {name!r}")
            if name in seen:
                raise ParseError(f"duplicate generator name {name!r}")
            seen.add(name)
        self.names = names
        self._index = {name: i + 1 for i, name in enumerate(names)}

    @property
    def size(self) -> int:
        return len(self.names)

    def letter(self, name) -> Letter:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown generator {name!r}") from None

    def letters(self):
        return range(1, len(self.names) + 1)

    def parse_letter(self, token) -> Letter:
        if token.endswith("^-1"):
            return -self.letter(token[: -len("^-1")])
        return self.letter(token)

    def parse_word(self, text) -> Word:
        tokens = text.split()
        if tokens == ["1"]:
            return EPSILON
        word = tuple(self.parse_letter(tok) for tok in tokens)
        if not is_reduced(word):
            raise ParseError(f"word {text!r} is not reduced")
        return word

    def format_letter(self, x) -> str:
        name = self.names[abs(x) - 1]
        return name if x > 0 else name + "^-1"

    def format_word(self, u) -> str:
        if not u:
            return "1"
        return " ".join(self.format_letter(x) for x in u)


def require_nonempty(u, what="word"):
    if not u:
        raise EmptyInput(f"{what} must be nonempty")
