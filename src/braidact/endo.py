"""Maps of a free group, given by generator images.

Composition follows standard function-composition order: ``e1 * e2``
applies ``e2`` first, then ``e1``, so the images of the product are
``e1(e2(x_k))``.  A map is its generator images, which word reduction
makes equal exactly when the maps are, and only ``fold.WordImages``
evaluates a word over them: in ``apply``, ``*`` and the fold that
builds an automorphism.

There is one map type.  An ``Automorphism`` is an ``Endomorphism`` that
also knows its letter sequence over a ``GeneratorTable``, and its
constructor is the one way to build one: the sparse forward-only fold
of ``braidact.fold`` of the letters over the table, which touches only
the images each letter moves.  A generator is its (forward, backward)
moves, the images each direction moves, and the table is the one place
that checks each pair to be mutually inverse, once; a hand-made pair is
checked as the one generator of its own table.  General inversion in
Aut(F_n) is out of scope; the inverse of a word is the inverted word.

Callers spell the construction ``table.automorphism(letters)``.  ``**``
and ``inverse`` keep the letters; ``*`` always composes the images, so
a product of automorphisms is an ``Endomorphism``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Sequence

from . import _kernels
from .errors import NotInverseError, RankMismatchError
from .fold import WordImages, fold
from .matrices import IntMatrix
from .words import FreeWord

DEFAULT_LENGTH_CAP = 10**6


class Endomorphism:
    """A map of F_rank determined by the images of the generators.

    The map is its images, kept as reduced letter tuples; ``apply`` and
    ``*`` evaluate words over them with ``fold.WordImages``, which inverts
    an image only when a word reads it inverted.
    """

    __slots__ = ("rank", "_pos")

    def __init__(self, rank: int, images: Sequence[FreeWord]):
        images = tuple(images)
        if len(images) != rank:
            raise RankMismatchError(f"need {rank} images, got {len(images)}")
        for w in images:
            if w.rank != rank:
                raise RankMismatchError(
                    f"image {w!r} has rank {w.rank}, expected {rank}"
                )
        self.rank = rank
        self._pos = tuple(w.letters for w in images)

    @classmethod
    def _adopt(cls, rank: int, pos: Sequence[tuple[int, ...]]) -> "Endomorphism":
        """Internal: adopt reduced, validated image letters."""
        e = object.__new__(cls)
        e.rank = rank
        e._pos = tuple(pos)
        return e

    @classmethod
    def identity(cls, rank: int) -> "Endomorphism":
        return cls(rank, tuple(FreeWord.generator(rank, k) for k in range(1, rank + 1)))

    @property
    def images(self) -> tuple[FreeWord, ...]:
        return tuple(FreeWord._wrap(self.rank, w) for w in self._pos)

    def apply(self, word: FreeWord, cap: int = DEFAULT_LENGTH_CAP) -> FreeWord:
        """Image of ``word``; ResourceLimitError if a reduced intermediate
        exceeds ``cap`` letters."""
        if word.rank != self.rank:
            raise RankMismatchError(
                f"cannot apply rank-{self.rank} map to rank-{word.rank} word"
            )
        images = WordImages.of(self._pos, cap)
        return FreeWord._wrap(self.rank, images.evaluate(word.letters))

    def __mul__(self, other: "Endomorphism") -> "Endomorphism":
        if not isinstance(other, Endomorphism):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatchError(
                f"cannot compose maps of ranks {self.rank} and {other.rank}"
            )
        evaluate = WordImages.of(self._pos, DEFAULT_LENGTH_CAP).evaluate
        return Endomorphism._adopt(self.rank, tuple(map(evaluate, other._pos)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.rank == other.rank and self._pos == other._pos

    def __hash__(self) -> int:
        return hash((self.rank, self._pos))

    def is_identity(self) -> bool:
        return all(w == (k,) for k, w in enumerate(self._pos, 1))

    def fixes(self, generator: int) -> bool:
        return self._pos[generator - 1] == (generator,)

    def abelianization_matrix(self) -> IntMatrix:
        """Induced matrix on Z^rank; column k is the abelianized image of x_k.

        The columns are int count vectors of length rank, so their
        transpose is adopted unchecked.
        """
        return IntMatrix._wrap(tuple(zip(*(w.abelianized() for w in self.images))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rank}, {list(self.images)!r})"

    def __str__(self) -> str:
        return format_endomorphism(self)


class Automorphism(Endomorphism):
    """An endomorphism that knows its word over a table of verified generators.

    ``letters`` name generators of ``table`` (``-i`` the inverse of the
    i-th) and the images are their fold from the identity, computed here,
    so every automorphism comes from checked moves.  ResourceLimitError
    if an image grows past ``cap`` letters at any step.
    """

    __slots__ = ("table", "letters")

    def __init__(
        self, table: GeneratorTable, letters: tuple[int, ...], cap: int = DEFAULT_LENGTH_CAP
    ):
        images = fold(WordImages(table.rank, cap), table.moves, letters)
        self.rank = table.rank
        self._pos = tuple(images.pos)
        self.table = table
        self.letters = letters

    def inverse(self) -> "Automorphism":
        return self ** -1

    def __pow__(self, exponent: int) -> "Automorphism":
        letters = self.letters if exponent >= 0 else _kernels.invert_reduced(self.letters)
        return self.table.automorphism(letters * abs(exponent))


class GeneratorTable:
    """A list of verified generator automorphisms, kept sparsely for the fold.

    Generator i is given as its (forward, backward) moves, each the
    ``(k, reduced image)`` entries of the generators it moves, k 0-based
    and increasing.  Letter ``+i`` names it and ``-i`` its inverse; a
    letter sequence evaluates to the product, the rightmost acting first.
    The fold of ``i -i`` must fix every generator either direction
    moves, else NotInverseError names the first it does not.  One fold
    is enough: forward o backward = id makes forward onto, and a free
    group of finite rank is Hopfian, so forward is an automorphism and
    backward is its inverse.  ``moves``, letter -> moves, is read-only,
    and so are the table's attributes, since cached tables are shared by
    every caller; ``__init__`` sets them with ``object.__setattr__``.
    """

    __slots__ = ("rank", "moves")

    def __init__(self, rank: int, pairs: Sequence[tuple[tuple, tuple]]):
        object.__setattr__(self, "rank", rank)
        moves = {}
        for i, (forward, backward) in enumerate(pairs, 1):
            moves[i] = forward
            moves[-i] = backward
            images = fold(WordImages(rank, DEFAULT_LENGTH_CAP), moves, (i, -i)).pos
            for k in sorted({k for k, _ in forward + backward}):
                if images[k] != (k + 1,):
                    raise NotInverseError(
                        f"forward o backward does not fix generator {k + 1}", generator=k + 1
                    )
        object.__setattr__(self, "moves", MappingProxyType(moves))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to table attribute {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete table attribute {name!r}")

    def automorphism(
        self, letters: tuple[int, ...], cap: int = DEFAULT_LENGTH_CAP
    ) -> Automorphism:
        """The product of the named generators, the word ``letters`` over
        this table."""
        return Automorphism(self, letters, cap)


def format_endomorphism(e: Endomorphism) -> str:
    """One ``name -> image`` line per generator, each word written as
    ``FreeWord.__str__`` writes it: in the a/b grammar at even rank, as
    signed integers at odd rank."""
    return "\n".join(
        f"{FreeWord.generator(e.rank, k)} -> {image}" for k, image in enumerate(e.images, 1)
    )

