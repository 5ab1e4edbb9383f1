"""Braid words, the Artin action on a free group, and exact braid equality.

A braid word on n strands is a freely reduced sequence of signed
generator indices (``+i`` for the i-th elementary crossing, ``-i`` for
its inverse).  Free reduction alone does not solve the word problem;
``braids_equal`` decides equality through the classical faithful Artin
action on F_n,

    x_i -> x_i x_{i+1} x_i^{-1},   x_{i+1} -> x_i,   others fixed,

so two braid words are equal iff their actions agree on every generator.
Each crossing is handed to the fold table as these two moves and their
inverses; the table checks each pair once, when it is built.
This oracle is exact and fast for the word lengths that occur here; no
Garside machinery is involved.

Note ``==`` on BraidWord is structural (same reduced letters); use
``braids_equal`` for equality in the group.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import _kernels
from ._value import GroupWord
from .errors import MalformedWordError, StrandMismatchError, WordSyntaxError
from .endo import Automorphism, GeneratorTable
from .words import signed_index


def _in_range(letters: tuple[int, ...], strands: int) -> bool:
    """True iff every letter is a crossing of B_strands: 0 < |x| < strands."""
    return not letters or (
        0 not in letters and min(letters) > -strands and max(letters) < strands
    )


class BraidWord(GroupWord):
    """A word in the braid group B_strands, stored freely reduced."""

    __slots__ = ("strands", "letters")
    _mismatch = (StrandMismatchError, "cannot concatenate braids on {} and {} strands")

    @staticmethod
    def _checked(strands: int, raw: tuple[int, ...]) -> tuple[int, ...]:
        if strands < 2:
            raise MalformedWordError(f"need at least 2 strands, got {strands}")
        if not _in_range(raw, strands):
            bad = next(x for x in raw if x == 0 or abs(x) >= strands)
            raise MalformedWordError(f"crossing {bad} is out of range for {strands} strands")
        return _kernels.reduce_letters(raw)

    def conjugated_by(self, c: "BraidWord") -> "BraidWord":
        """c * self * c^-1."""
        return c * self * c.inverse()

    def __str__(self) -> str:
        return format_braid(self)


def _artin_generator(index: int) -> tuple[tuple, tuple]:
    """The (forward, backward) moves of the Artin automorphism of one
    crossing: x_i -> x_i x_{i+1} x_i^{-1}, x_{i+1} -> x_i, and back
    x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^{-1} x_i x_{i+1}."""
    i = index
    return ((i - 1, (i, i + 1, -i)), (i, (i,))), ((i - 1, (i + 1,)), (i, (-(i + 1), i, i + 1)))


@lru_cache(maxsize=None)
def _artin_table(strands: int) -> GeneratorTable:
    return GeneratorTable(strands, [_artin_generator(i) for i in range(1, strands)])


def artin_action(braid: BraidWord) -> Automorphism:
    """The automorphism of F_strands carried by a braid word.

    Homomorphic for the composition convention of the endo module: the
    rightmost crossing of the word acts first.
    """
    return _artin_table(braid.strands).automorphism(braid.letters)


def braids_equal(b1: BraidWord, b2: BraidWord) -> bool:
    """Exact equality in the braid group, via faithfulness of the Artin action."""
    if b1.strands != b2.strands:
        raise StrandMismatchError(
            f"cannot compare braids on {b1.strands} and {b2.strands} strands"
        )
    if b1.letters == b2.letters:
        return True
    return artin_action(b1) == artin_action(b2)


def artin_relations(
    strands: int, symbol: str = "s"
) -> tuple[tuple[str, str, tuple[int, ...], tuple[int, ...]], ...]:
    """The defining relations of B_strands as (name, description, left, right).

    For crossings i < j: ``commute.i-j`` (i j = j i) when |i - j| > 1 and
    ``braid.i-j`` (i j i = j i j) when they are adjacent.  The
    description spells both sides with ``symbol`` before each index.
    """
    spell = lambda letters: " ".join(f"{symbol}{x}" for x in letters)
    rows = []
    for i in range(1, strands):
        for j in range(i + 1, strands):
            kind, left, right = (
                ("braid", (i, j, i), (j, i, j)) if j == i + 1 else ("commute", (i, j), (j, i))
            )
            rows.append((f"{kind}.{i}-{j}", f"{spell(left)} = {spell(right)}", left, right))
    return tuple(rows)


def half_twist(strands: int) -> BraidWord:
    """The positive half twist: (s_1..s_{n-1})(s_1..s_{n-2})...(s_1)."""
    letters = []
    for top in range(strands - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return BraidWord(strands, tuple(letters))


def full_twist(strands: int) -> BraidWord:
    """(s_1..s_{n-1})^n, the generator of the center of B_n for n >= 3."""
    return BraidWord(strands, tuple(range(1, strands))) ** strands


def full_twist_center_check(strands: int) -> bool:
    """Mechanically confirm that the full twist commutes with every generator."""
    if strands < 3:
        raise MalformedWordError(f"center check needs at least 3 strands, got {strands}")
    ft = full_twist(strands)
    return all(
        braids_equal(ft * BraidWord.generator(strands, i), BraidWord.generator(strands, i) * ft)
        for i in range(1, strands)
    )


# The named 6-strand braids, as crossing letters: the one definition the
# parser expands on six strands and ``sp4`` builds its braids from.
NAMED_B6: dict[str, tuple[int, ...]] = {
    "DELTA6": half_twist(6).letters,
    "ALPHA": (4, 5) * 3,
    "BETA": (-3, 1, 2, 1, 2, 1, 2, 3),
    "GAMMA": (1, -3, 5),
}


# A 0 that starts a digit run: ``int`` reads ``03`` but the token rule does not.
# (Matching the 0 first lets the search skip to each 0 in the text.)
_LEADING_ZERO = re.compile(r"0(?<![0-9]0)")


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed crossing indices.

    ``k`` is the k-th generator, ``-k`` its inverse, each an ASCII
    ``-?[1-9][0-9]*`` as ``words.signed_index`` reads it.  On six strands
    the tokens DELTA6, ALPHA, BETA and GAMMA expand to the corresponding
    named braids.  Tokens split on Python whitespace (``str.split``); an
    error's position is the bad token's character offset.
    """
    tokens = text.split()
    # The whole-text path: on ASCII text with no ``+``, ``_`` or leading
    # zero, ``int`` accepts exactly the tokens the token rule does.
    plain = text.isascii() and "+" not in text and "_" not in text
    try:
        letters = tuple(map(int, tokens)) if plain and not _LEADING_ZERO.search(text) else None
    except ValueError:  # a named braid or a bad token
        letters = None
    if letters is None or not _in_range(letters, strands):
        letters = _crossings(text, tokens, strands)
    if not letters:
        return BraidWord(strands)  # the identity, if strands >= 2
    return BraidWord._wrap(strands, _kernels.reduce_letters(letters))


def _crossings(text: str, tokens: list[str], strands: int) -> tuple[int, ...]:
    """The crossings of ``tokens``, token by token: named braids expand,
    and the first bad token raises WordSyntaxError."""
    letters: list[int] = []
    for i, token in enumerate(tokens):
        if token in NAMED_B6:
            if strands != 6:
                raise WordSyntaxError.at_token(
                    f"named braid {token} is only defined on 6 strands", text, i
                )
            letters += NAMED_B6[token]
            continue
        value = signed_index(token)
        if not value:
            raise WordSyntaxError.at_token(f"bad token {token!r}", text, i)
        if abs(value) >= strands:
            raise WordSyntaxError.at_token(
                f"crossing {value} is out of range for {strands} strands", text, i
            )
        letters.append(value)
    return tuple(letters)


def format_braid(braid: BraidWord) -> str:
    """Space-joined signed indices; the identity formats as ""."""
    return " ".join(str(x) for x in braid.letters)
