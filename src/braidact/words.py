"""Freely reduced words in a free group of finite rank.

Letters are encoded as nonzero signed integers (the Tietze convention):
``+k`` is the k-th generator and ``-k`` its inverse.  For a group of
even rank 2g the generators carry the names ``a1..ag, b1..bg`` in that
order, so ``a_i`` has index ``i`` and ``b_i`` has index ``g+i``; this is
also the basis order used for abelianized matrices.  ``parse_word``
reads and ``format_word`` writes this a/b grammar (``a1 B2``, uppercase
for inverses); every word the package spells by hand, such as a twist
move or a closed form, is a string in it.

Words reduce at construction and stay reduced, so equality of group
elements is plain sequence equality.  All values are immutable.
"""

from __future__ import annotations

from . import _kernels
from ._value import GroupWord
from .errors import MalformedWordError, RankMismatchError, WordSyntaxError


class FreeWord(GroupWord):
    """A freely reduced word; the identity is the empty word.

    The constructor accepts any raw sequence of signed integers,
    validates indices against ``rank``, and reduces.
    """

    __slots__ = ("rank", "letters")
    _mismatch = (RankMismatchError, "cannot concatenate words of ranks {} and {}")

    @staticmethod
    def _checked(rank: int, raw: tuple[int, ...]) -> tuple[int, ...]:
        if rank < 0:
            raise MalformedWordError(f"rank must be >= 0, got {rank}")
        if raw and (0 in raw or min(raw) < -rank or max(raw) > rank):
            bad = next(x for x in raw if x == 0 or abs(x) > rank)
            raise MalformedWordError(f"letter {bad} is outside the alphabet of rank {rank}")
        return _kernels.reduce_letters(raw)

    def is_identity(self) -> bool:
        return not self.letters

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


def token_index(token: str) -> int:
    """The positive decimal index after a token's first character, else 0.

    The index is ASCII digits with no leading zero, so ``a1`` gives 1 and
    ``a01``, ``a+1`` and ``a`` give 0.  It is exact at any length, also
    past the digits ``int`` reads from a string
    (``sys.get_int_max_str_digits()``).
    """
    digits = token[1:]
    if digits.isascii() and digits.isdigit() and digits[0] != "0":
        return _decimal(digits)
    return 0


def _decimal(digits: str) -> int:
    """The value of ASCII decimal ``digits``; a run longer than ``int``
    reads (never fewer than 640 digits) is read in two halves."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _decimal(digits[:half]) * 10 ** (len(digits) - half) + _decimal(digits[half:])


def signed_index(token: str) -> int:
    """A signed index token, ASCII ``-?[1-9][0-9]*``, as its value, else 0:
    ``-3`` gives -3, and ``+3``, ``03``, ``1_0`` and ``٣`` give 0."""
    index = token_index(token if token[0] == "-" else "+" + token)  # skips the sign
    return -index if token[0] == "-" else index


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse a word as ``FreeWord.__str__`` writes it.

    At even rank 2g the tokens are ``a1 B2 ...``: lowercase tokens are
    generators, uppercase their inverses.  An odd rank has no a/b
    naming, so there the tokens are signed indices such as ``1 -3``.
    The empty string is the identity.  Tokens split on Python whitespace
    (``str.split``); an error's position is the bad token's character
    offset.
    """
    tokens = text.split()
    if not tokens:
        return FreeWord.identity(rank)
    odd = rank % 2
    g = rank // 2
    codes = []
    for i, token in enumerate(tokens):
        name = token[0]
        if odd:
            index = abs(signed_index(token))
        else:
            index = token_index(token) if name in "abAB" else 0
        if not index:
            raise WordSyntaxError.at_token(f"bad token {token!r}", text, i)
        if index > (rank if odd else g):
            limit = f"rank {rank}" if odd else f"genus {g} (rank {rank})"
            digits = token.lstrip("-abAB")  # as written: str() of a long index fails
            raise WordSyntaxError.at_token(f"index {digits} in {token!r} exceeds {limit}", text, i)
        code = index if odd or name in "aA" else g + index
        codes.append(-code if name in "-AB" else code)
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
