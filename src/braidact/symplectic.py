"""The symplectic shadow of the braid action.

Abelianizing the action on F_2g gives integer matrices acting on Z^2g
in the basis (a_1.., b_1..).  Every such matrix preserves the standard
alternating form <a_i, b_i> = -<b_i, a_i> = 1, i.e. lands in Sp_2g(Z):
``braid_matrix`` computes that image for a braid word (a homomorphism
into Sp_2g(Z)) and ``is_symplectic`` is the exact membership test
M^T J M = J for the block form J = [[0, I], [-I, 0]].

Every matrix word goes through one fold (``braidact.fold``), and
``fold_matrix`` recomputes only the columns each letter moves.
``braid_matrix`` folds over the moves of ``twist_table``, abelianized
(transvections moving one or two columns).  ``column_table`` checks
dense matrices, such as the genus-1 pair (A, B), symplectic and keeps
the columns each one, or its inverse (``IntMatrix.inverse``, the exact
adjugate), moves.
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
from .report import VerificationReport, equal, run_checks
from .words import FreeWord


@lru_cache(maxsize=None)
def standard_form(g: int) -> IntMatrix:
    """The 2g x 2g alternating-form matrix [[0, I_g], [-I_g, 0]].

    Built and checked once per genus and cached; ``IntMatrix`` is
    immutable, so every caller can share it.  g = 0 gives the 0 x 0
    form of Sp_0; a negative g raises DimensionMismatchError.
    """
    if g < 0:
        raise DimensionMismatchError(f"the standard form needs genus >= 0, got {g}")
    n = 2 * g
    rows = []
    for i in range(n):
        row = [0] * n
        if i < g:
            row[g + i] = 1
        else:
            row[i - g] = -1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


def _check_size(m: IntMatrix, g: int | None) -> int:
    if g is None:
        if m.dim % 2:
            raise DimensionMismatchError(f"symplectic matrices have even size, got {m.dim}")
        return m.dim // 2
    if m.dim != 2 * g:
        raise DimensionMismatchError(f"expected size {2 * g}, got {m.dim}")
    return g


def is_symplectic(m: IntMatrix, g: int | None = None) -> bool:
    """True iff  m^T J m = J  for the standard alternating form.

    J is a signed row permutation, (J m)[i] = m[g+i] for i < g and
    -m[i-g] for i >= g, so only m^T (J m) is a real product.
    """
    g = _check_size(m, g)
    rows = m.rows
    form_m = IntMatrix._wrap(rows[g:] + tuple(tuple(-x for x in row) for row in rows[:g]))
    return m.transpose() * form_m == standard_form(g)


def column_table(matrices: Sequence[IntMatrix]) -> dict:
    """Fold table: letter i moves the columns ``matrices[i - 1]`` moves, -i
    those of its adjugate inverse; a matrix not in Sp_2g(Z) raises BraidactError."""
    moves = {}
    for i, m in enumerate(matrices, 1):
        if not is_symplectic(m):
            raise BraidactError(f"matrix {i} is not symplectic:\n{m}")
        moves[i] = moved_columns(enumerate(zip(*m.rows)))
        moves[-i] = moved_columns(enumerate(zip(*m.inverse().rows)))
    return moves


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


def sl2_matrices() -> tuple[IntMatrix, IntMatrix]:
    """The genus-1 generator matrices [[1,1],[0,1]] and [[1,0],[1,1]]."""
    return IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, 0), (1, 1)))


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


def _random_witness(count: int, bad: BraidWord | None) -> BraidWord | str | None:
    # A check over no braids proves nothing, so it fails too.
    return "no braids checked" if count <= 0 else bad


def verify_symplectic_random(
    ctx: GenusContext, count: int = 500, max_length: int = 40, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Symplectic membership and determinant 1 for random braid images."""
    rng = random.Random(seed)
    bad_sympl = None
    bad_det = None
    for _ in range(count):
        b = random_braid(rng, ctx.strands, rng.randrange(max_length + 1))
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
            count > 0 and bad_sympl is None,
            _random_witness(count, bad_sympl),
        ),
        (
            f"symplectic.g{ctx.g}.random-determinant",
            f"{count} random braid images at genus {ctx.g} all have determinant 1"
            f" (seed {seed})",
            count > 0 and bad_det is None,
            _random_witness(count, bad_det),
        ),
    ))


SL2_BRAID_RELATION = ((1, -2, 1), (-2, 1, -2))


def verify_sl2_braid_relation() -> VerificationReport:
    """The genus-1 matrices satisfy A B^{-1} A = B^{-1} A B^{-1}, the word
    pair ``SL2_BRAID_RELATION`` folded over (A, B)."""
    table = column_table(sl2_matrices())
    left, right = SL2_BRAID_RELATION
    return run_checks("sl2-braid-relation", (
        (
            "symplectic.g1.sl2-braid-relation",
            "A B^-1 A = B^-1 A B^-1 for the genus-1 matrices",
            *equal(fold_matrix(table, 2, left), fold_matrix(table, 2, right)),
        ),
    ))
