"""The symplectic shadow of the braid action.

Abelianizing the action on F_2g gives integer matrices acting on Z^2g
in the basis (a_1.., b_1..).  Every such matrix preserves the standard
alternating form <a_i, b_i> = -<b_i, a_i> = 1, i.e. lands in Sp_2g(Z):
``braid_matrix`` computes that image for a braid word (a homomorphism
into Sp_2g(Z)) and ``is_symplectic`` is the exact membership test
M^T J M = J for the block form J = [[0, I], [-I, 0]].

Every matrix word goes through one fold (``braidact.fold``) over one
table per genus, the moves of ``twist_table`` abelianized (transvections
moving one or two columns); ``fold_matrix`` recomputes only the columns
each letter moves.  Recorded matrices, such as the genus-1 pair (A, B)
that ``checked_sl2_matrices`` returns, are checked by ``check_images``
to be the images of their braids before anything reads them, and their
words are then folded as braid words.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

from . import _kernels
from .action import GenusContext, twist_table
from .braids import BraidWord
from .errors import BraidactError, DimensionMismatchError
from .fold import ColumnImages, fold, moved_columns
from .matrices import IntMatrix
from .report import VerificationReport, equal, over_cases, run_checks
from .words import FreeWord


@lru_cache(maxsize=None)
def standard_form(g: int) -> IntMatrix:
    """The 2g x 2g alternating-form matrix [[0, I_g], [-I_g, 0]].

    Built once per genus, as J times the identity, and cached;
    ``IntMatrix`` is immutable, so every caller can share it.  g = 0 gives the 0 x 0
    form of Sp_0; a negative g raises DimensionMismatchError.
    """
    if g < 0:
        raise DimensionMismatchError(f"the standard form needs genus >= 0, got {g}")
    return _form_times(IntMatrix.identity(2 * g), g)


def _form_times(m: IntMatrix, g: int) -> IntMatrix:
    """J m for the standard form J of genus g, a signed row permutation:
    (J m)[i] = m[g+i] for i < g and -m[i-g] for i >= g."""
    rows = m.rows
    return IntMatrix._wrap(rows[g:] + tuple(tuple(-x for x in row) for row in rows[:g]))


def is_symplectic(m: IntMatrix, g: int) -> bool:
    """True iff  m^T J m = J  for the standard alternating form of genus g;
    a matrix not of size 2g raises DimensionMismatchError.  J m is a row
    permutation, so only m^T (J m) is a real product."""
    if m.dim != 2 * g:
        raise DimensionMismatchError(f"expected size {2 * g}, got {m.dim}")
    return m.transpose() * _form_times(m, g) == standard_form(g)


def fold_matrix(table: dict, n: int, letters: Sequence[int]) -> IntMatrix:
    """The n x n product of the table's matrices named by ``letters``.

    The fold's columns are integer combinations of identity columns, so
    the matrix adopts them unchecked.
    """
    images = fold(ColumnImages(n), table, letters)
    return IntMatrix._wrap(tuple(zip(*images.columns)))


@lru_cache(maxsize=None)
def _twist_columns(g: int) -> dict:
    """Fold table of the abelianized twists: each forward and backward
    move of ``twist_table(g)``, its image word abelianized to a column."""
    return {
        x: moved_columns((k, FreeWord(2 * g, word).abelianized()) for k, word in moves)
        for x, moves in twist_table(g).moves.items()
    }


def braid_matrix(ctx: GenusContext, braid: BraidWord) -> IntMatrix:
    """Abelianized image of a braid word: a matrix in Sp_2g(Z).

    Functorially equal to abelianizing the braid's automorphism, and to
    the product of the generator matrices, folded over the twist table.
    """
    return fold_matrix(_twist_columns(ctx.g), ctx.rank, ctx.crossings(braid))


def check_images(
    ctx: GenusContext, matrices: Sequence[IntMatrix], braids: Sequence[BraidWord]
) -> None:
    """Raise BraidactError naming matrix i unless it is the image of braid i."""
    for i, (m, braid) in enumerate(zip(matrices, braids), 1):
        if braid_matrix(ctx, braid) != m:
            raise BraidactError(f"matrix {i} is not the image of braid {i} at genus {ctx.g}")


def sl2_matrices() -> tuple[IntMatrix, IntMatrix]:
    """The genus-1 generator matrices [[1,1],[0,1]] and [[1,0],[1,1]]."""
    return IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, 0), (1, 1)))


def checked_sl2_matrices() -> tuple[IntMatrix, IntMatrix]:
    """``sl2_matrices()``, once ``check_images`` finds A and B to be the
    images of s1 and s2^-1 at genus 1 (else BraidactError)."""
    pair = sl2_matrices()
    check_images(GenusContext(1), pair, (BraidWord(4, (1,)), BraidWord(4, (-2,))))
    return pair


def verify_symplectic_generators(genus_range=(1, 2, 3, 4)) -> VerificationReport:
    """Check that every twist matrix satisfies the symplectic relation."""
    return run_checks("symplectic-generators", (
        (
            f"symplectic.g{g}.twist-{i}",
            f"abelianized twist {i} satisfies M^T J M = J (genus {g})",
            is_symplectic(m, g),
            m,
        )
        for g in genus_range
        for i in range(1, 2 * g + 2)
        for m in (fold_matrix(_twist_columns(g), 2 * g, (i,)),)
    ))


def random_braid(rng: random.Random, strands: int, length: int) -> BraidWord:
    """A uniformly random braid word, freely reduced from the given length.

    Its letters are crossings of B_strands by construction, so the word
    skips the range check of ``BraidWord``.
    """
    letters = []
    for _ in range(length):
        i = rng.randrange(1, strands)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord._wrap(strands, _kernels.reduce_letters(tuple(letters)))


# The seed of the random suite, and of `verify --seed` unless given.
DEFAULT_SEED = 20260809
# The random suite draws each braid's length up to this bound.
RANDOM_MAX_LENGTH = 40


def verify_symplectic_random(
    ctx: GenusContext, count: int = 500, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Symplectic membership and determinant 1 for random braid images."""
    rng = random.Random(seed)
    bad_sympl = None
    bad_det = None
    for _ in range(count):
        b = random_braid(rng, ctx.strands, rng.randrange(RANDOM_MAX_LENGTH + 1))
        m = braid_matrix(ctx, b)
        if bad_sympl is None and not is_symplectic(m, ctx.g):
            bad_sympl = b
        if bad_det is None and m.det() != 1:
            bad_det = b
    return run_checks(f"symplectic-random(g={ctx.g})", (
        (
            f"symplectic.g{ctx.g}.random-membership",
            f"{count} random braid images at genus {ctx.g} all satisfy M^T J M = J"
            f" (seed {seed})",
            *over_cases(count, "braids checked", bad_sympl),
        ),
        (
            f"symplectic.g{ctx.g}.random-determinant",
            f"{count} random braid images at genus {ctx.g} all have determinant 1"
            f" (seed {seed})",
            *over_cases(count, "braids checked", bad_det),
        ),
    ))


# t1 t2 t1 = t2 t1 t2 at genus 1, where t1 abelianizes to A and t2 to B^-1.
SL2_BRAID_RELATION = ((1, 2, 1), (2, 1, 2))


def verify_sl2_braid_relation() -> VerificationReport:
    """The genus-1 matrices satisfy A B^{-1} A = B^{-1} A B^{-1}: A and B
    are checked to be the images of s1 and s2^-1, and the word pair
    ``SL2_BRAID_RELATION`` is folded as braids over the genus-1 twist table."""
    checked_sl2_matrices()
    ctx = GenusContext(1)
    left, right = (braid_matrix(ctx, BraidWord(4, word)) for word in SL2_BRAID_RELATION)
    return run_checks("sl2-braid-relation", (
        (
            "symplectic.g1.sl2-braid-relation",
            "A B^-1 A = B^-1 A B^-1 for the genus-1 matrices",
            *equal(left, right),
        ),
    ))
