"""One sparse, forward-only fold of a signed letter sequence.

Every evaluation in this package has the same shape: a word in some
generators (a braid word, an omega word) names a product of generator
actions, and the product is wanted as the images of a basis.  Folding
the letters left to right, the current map ``phi`` becomes
``phi * g`` for the next generator ``g``, and

    (phi * g)(x_k) = phi(g(x_k)),

which differs from ``phi(x_k)`` only for the few ``x_k`` that ``g``
moves.  So a generator table keeps, for each signed letter, just the
moved generators and their images; a step recomputes those images from
the current ones and leaves the rest alone.  Nothing is composed
backwards and nothing unchanged is recomputed.

The same loop serves two kinds of image:

- ``WordImages``: free-group words, where a step substitutes the
  current images into the generator's image (the twist and Artin
  actions, on F_n).  An action of one letter, such as every Artin
  crossing's x_{i+1} -> x_i, has nothing to substitute: it is read as
  the current image, with its cap still checked.  An image is inverted
  on first read: only when a later step's action reads its generator
  inverted.  ``Endomorphism`` evaluates ``apply`` and ``*`` on one too;
- ``ColumnImages``: integer column vectors, where a step replaces the
  moved columns with the sum of the current columns its word's letters
  name (the matrix shadow).  It reads the same table as ``WordImages``:
  a word's abelianization is that signed sum of columns.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg, sub
from typing import Mapping, Sequence

from . import _kernels
from .errors import ResourceLimitError

# A table maps a signed letter to the (0-based index, reduced letter
# word) pairs of the generators it moves.
Moves = Mapping[int, tuple[tuple[int, tuple[int, ...]], ...]]


def fold(images, moves: Moves, letters: Sequence[int]):
    """Compose the actions of ``letters`` left to right into ``images``.

    ``images.evaluate(action)`` computes a moved generator's new image
    from the current images and ``images[k] = image`` installs it.  All
    images of one step are computed before any is installed.  Every
    twist, Artin and transvection letter moves one or two generators, so
    those steps are unrolled: one image is evaluated and installed, or
    two are evaluated and then both installed.  A step that moves more
    goes through a list of updates.  Returns ``images``, updated in
    place.
    """
    evaluate = images.evaluate
    for x in letters:
        step = moves[x]
        if len(step) == 1:
            ((k, action),) = step
            images[k] = evaluate(action)
        elif len(step) == 2:
            (k, action), (j, other) = step
            image, other = evaluate(action), evaluate(other)
            images[k] = image
            images[j] = other
        else:
            updates = [(k, evaluate(action)) for k, action in step]
            for k, image in updates:
                images[k] = image
    return images


class WordImages:
    """Reduced free-group images of the generators, inverted on first read.

    The one evaluator of a word over images: it starts from the identity,
    or from a copy of given images (``of``).  An action is a reduced
    letter tuple over the generators; evaluating it substitutes the
    current images, and a word longer than ``cap`` raises
    ResourceLimitError.  An action of one letter is read, not
    substituted: it returns that letter's current image, the same tuple,
    after the same cap check.  ``neg[k]`` is the inverse of ``pos[k]``,
    or None until an action reads generator k+1 inverted: installing an
    image only marks its inverse as not yet computed.
    """

    __slots__ = ("pos", "neg", "cap")

    def __init__(self, rank: int, cap: int):
        self.pos = [(k,) for k in range(1, rank + 1)]
        self.neg = [(-k,) for k in range(1, rank + 1)]
        self.cap = cap

    @classmethod
    def of(cls, pos: Sequence[tuple[int, ...]], cap: int) -> "WordImages":
        images = object.__new__(cls)
        images.pos, images.neg, images.cap = list(pos), [None] * len(pos), cap
        return images

    def evaluate(self, word: tuple[int, ...]) -> tuple[int, ...]:
        pos, neg = self.pos, self.neg
        for x in word:
            if x < 0 and neg[-x - 1] is None:
                neg[-x - 1] = _kernels.invert_reduced(pos[-x - 1])
        if len(word) != 1:
            return _kernels.substitute(pos, neg, word, self.cap)
        image = pos[x - 1] if x > 0 else neg[-x - 1]  # x is the one letter
        if len(image) > self.cap:
            raise ResourceLimitError(self.cap)
        return image

    def __setitem__(self, k: int, letters: tuple[int, ...]) -> None:
        self.pos[k] = letters
        self.neg[k] = None


@lru_cache(maxsize=None)
def _identity_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """The columns of the n x n identity, built once per size."""
    return tuple(tuple(int(i == k) for i in range(n)) for k in range(n))


class ColumnImages:
    """Integer column vectors, one per basis vector, from the identity.

    An action is a reduced letter word, as ``WordImages`` reads it;
    evaluating it gives its abelianization over the current columns, so
    every entry is an ``int``.  The first letter's column, negated for an
    inverse letter, starts the sum; each further letter +k adds column k
    and -k subtracts it, with one C-level ``map``.  The empty word is the
    zero column.
    """

    __slots__ = ("columns",)

    def __init__(self, n: int):
        self.columns = list(_identity_columns(n))

    def evaluate(self, word: tuple[int, ...]) -> tuple[int, ...]:
        columns = self.columns
        if not word:
            return (0,) * len(columns)
        x = word[0]
        acc = columns[x - 1] if x > 0 else tuple(map(neg, columns[-x - 1]))
        for x in word[1:]:
            if x > 0:
                acc = tuple(map(add, acc, columns[x - 1]))
            else:
                acc = tuple(map(sub, acc, columns[-x - 1]))
        return acc

    def __setitem__(self, k: int, column: tuple[int, ...]) -> None:
        self.columns[k] = column
