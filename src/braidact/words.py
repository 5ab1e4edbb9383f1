"""Freely reduced words in a free group of finite rank.

Letters are encoded as nonzero signed integers (the Tietze convention):
``+k`` is the k-th generator and ``-k`` its inverse.  For a group of
even rank 2g the generators carry the names ``a1..ag, b1..bg`` in that
order, so ``a_i`` has index ``i`` and ``b_i`` has index ``g+i``; this is
also the basis order used for abelianized matrices.

Words reduce at construction and stay reduced, so equality of group
elements is plain sequence equality.  All values are immutable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from . import _kernels
from ._value import Value
from .errors import MalformedWordError, RankMismatchError, WordSyntaxError


class Letter(NamedTuple):
    """A single generator occurrence: 1-based index plus a sign."""

    generator: int
    sign: int

    def encode(self) -> int:
        return self.generator * self.sign

    @classmethod
    def decode(cls, code: int) -> "Letter":
        if code == 0:
            raise MalformedWordError("letter code 0 is not a generator")
        return cls(abs(code), 1 if code > 0 else -1)


class FreeWord(Value):
    """A freely reduced word; the identity is the empty word.

    The constructor accepts any raw letter sequence (signed integers or
    Letter pairs), validates indices against ``rank``, and reduces.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: Iterable[int | Letter] = ()):
        if rank < 0:
            raise MalformedWordError(f"rank must be >= 0, got {rank}")
        raw = tuple(x.encode() if isinstance(x, Letter) else int(x) for x in letters)
        if raw and (0 in raw or min(raw) < -rank or max(raw) > rank):
            bad = next(x for x in raw if x == 0 or abs(x) > rank)
            raise MalformedWordError(f"letter {bad} is outside the alphabet of rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", _kernels.reduce_letters(raw))

    @classmethod
    def _wrap(cls, rank: int, letters: tuple[int, ...]) -> "FreeWord":
        """Internal: adopt an already-reduced, already-validated tuple."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls, rank: int) -> "FreeWord":
        return cls(rank)

    @classmethod
    def generator(cls, rank: int, index: int, sign: int = 1) -> "FreeWord":
        if sign not in (1, -1):
            raise MalformedWordError(f"sign must be +1 or -1, got {sign}")
        return cls(rank, (index * sign,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def as_letters(self) -> tuple[Letter, ...]:
        return tuple(Letter.decode(x) for x in self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatchError(
                f"cannot concatenate words of ranks {self.rank} and {other.rank}"
            )
        return FreeWord._wrap(self.rank, _kernels.concat_reduced(self.letters, other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord._wrap(self.rank, _kernels.invert_reduced(self.letters))

    def __invert__(self) -> "FreeWord":
        return self.inverse()

    def __pow__(self, exponent: int) -> "FreeWord":
        base = self if exponent >= 0 else self.inverse()
        return FreeWord._wrap(self.rank, _kernels.reduce_letters(base.letters * abs(exponent)))

    def is_positive(self) -> bool:
        """True iff the word lies in the free monoid on the generators."""
        return all(x > 0 for x in self.letters)

    def abelianized(self) -> tuple[int, ...]:
        """Signed occurrence count of each generator, as a length-rank vector."""
        counts = [0] * self.rank
        for x in self.letters:
            counts[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(counts)

    def __str__(self) -> str:
        if self.rank % 2:
            return " ".join(str(x) for x in self.letters)
        return format_word(self)

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {self.letters!r})"


def reduce_word(rank: int, letters: Iterable[int | Letter]) -> FreeWord:
    """Freely reduce a raw letter sequence into a word of the given rank."""
    return FreeWord(rank, tuple(letters))


def token_index(token: str) -> int:
    """The positive decimal index after a token's first character, else 0.

    The index is ASCII digits with no leading zero, so ``a1`` gives 1 and
    ``a01``, ``a+1`` and ``a`` give 0.
    """
    digits = token[1:]
    if digits.isascii() and digits.isdigit() and digits[0] != "0":
        return int(digits)
    return 0


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse the whitespace-separated ``a1 B2 ...`` grammar.

    Lowercase tokens are generators, uppercase their inverses; the empty
    string is the identity.  Requires an even rank 2g so that the a/b
    naming is meaningful.  Tokens split on Python whitespace
    (``str.split``); an error's position is the bad token's character
    offset.
    """
    tokens = text.split()
    if not tokens:
        return FreeWord.identity(rank)
    if rank % 2:
        raise WordSyntaxError(f"the a/b grammar needs an even rank, got {rank}", 0)
    g = rank // 2
    codes = []
    for i, token in enumerate(tokens):
        name = token[0]
        index = token_index(token) if name in "abAB" else 0
        if not index:
            raise WordSyntaxError.at_token(f"bad token {token!r}", text, i)
        if index > g:
            raise WordSyntaxError.at_token(
                f"index {index} in {token!r} exceeds genus {g} (rank {rank})", text, i
            )
        code = index if name in "aA" else g + index
        codes.append(-code if name in "AB" else code)
    return FreeWord._wrap(rank, _kernels.reduce_letters(tuple(codes)))


def format_word(word: FreeWord) -> str:
    """Format a word in the grammar accepted by parse_word (identity -> "")."""
    if word.rank % 2:
        raise ValueError(f"the a/b grammar needs an even rank, got {word.rank}")
    g = word.rank // 2
    tokens = []
    for x in word.letters:
        k = abs(x)
        name = f"a{k}" if k <= g else f"b{k - g}"
        tokens.append(name.upper() if x < 0 else name)
    return " ".join(tokens)
