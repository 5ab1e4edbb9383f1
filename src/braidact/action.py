"""The braid action on a free group of even rank.

For a genus g >= 1, the braid group on 2g+2 strands acts on the free
group F_2g with basis a_1..a_g, b_1..b_g through the 2g+1 twist
automorphisms below (each crossing of the braid group maps to one of
them):

    t_1:       b_1 -> a_1 b_1
    t_{2g+1}:  b_g -> b_g a_g
    t_{2i}:    a_i -> b_i^{-1} a_i                       (1 <= i <= g)
    t_{2i+1}:  b_i -> b_i a_i a_{i+1}^{-1},
               b_{i+1} -> a_{i+1} a_i^{-1} b_{i+1}       (1 <= i <= g-1)

with all unnamed generators fixed.  ``_twist`` spells each twist once,
as its sparse moves and their inverses, and ``twist_table`` hands them
to a ``GeneratorTable``, which checks each pair once.  The twists
satisfy the braid relations (``verify_u_braid_relations`` folds both
sides of every row of ``braids.artin_relations`` over ``twist_table``),
so the assignment extends to a homomorphism from the braid group into
Aut(F_2g); ``braid_automorphism`` evaluates it on braid words.  The
kernel contains the center of the braid group, which the verification
suite confirms mechanically via closed forms for the image of the
descending cycle s_1 s_2 ... s_{2g+1} and of its square.

At genus 1 the three twists reduce to classical Sturmian morphisms of
the rank-2 free group; see ``sturmian_g1``.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import Value, exact_int
from .braids import BraidWord, artin_relations
from .endo import Automorphism, Endomorphism, GeneratorTable
from .errors import MalformedWordError, StrandMismatchError
from .report import VerificationReport, equal, run_checks
from .words import FreeWord


class GenusContext(Value):
    """Fixes a genus g >= 1 and the derived rank and strand count."""

    __slots__ = ("g",)

    def __init__(self, g: int):
        g = exact_int(g, "genus must be an integer")
        if g < 1:
            raise MalformedWordError(f"genus must be >= 1, got {g}")
        object.__setattr__(self, "g", g)

    @property
    def rank(self) -> int:
        return 2 * self.g

    @property
    def strands(self) -> int:
        return 2 * self.g + 2

    def a(self, i: int, sign: int = 1) -> FreeWord:
        """The generator a_i (index i)."""
        if not 1 <= i <= self.g:
            raise MalformedWordError(f"a_{i} does not exist at genus {self.g}")
        return FreeWord.generator(self.rank, i, sign)

    def b(self, i: int, sign: int = 1) -> FreeWord:
        """The generator b_i (index g+i)."""
        if not 1 <= i <= self.g:
            raise MalformedWordError(f"b_{i} does not exist at genus {self.g}")
        return FreeWord.generator(self.rank, self.g + i, sign)

    def word(self, *codes: int) -> FreeWord:
        return FreeWord(self.rank, codes)


def _twist(g: int, index: int) -> tuple[tuple, tuple]:
    """The (forward, backward) moves of t_index at genus g: the 0-based
    index and image of each generator it moves, as in the formulas above."""
    a = lambda i: i
    b = lambda i: g + i
    move = lambda k, *image: (k - 1, image)
    if index == 1:
        return (move(b(1), a(1), b(1)),), (move(b(1), -a(1), b(1)),)
    if index == 2 * g + 1:
        return (move(b(g), b(g), a(g)),), (move(b(g), b(g), -a(g)),)
    if index % 2 == 0:
        i = index // 2
        return (move(a(i), -b(i), a(i)),), (move(a(i), b(i), a(i)),)
    i = (index - 1) // 2
    return (
        (move(b(i), b(i), a(i), -a(i + 1)), move(b(i + 1), a(i + 1), -a(i), b(i + 1))),
        (move(b(i), b(i), a(i + 1), -a(i)), move(b(i + 1), a(i), -a(i + 1), b(i + 1))),
    )


def twist_automorphism(ctx: GenusContext, index: int) -> Automorphism:
    """The i-th twist automorphism of F_2g, for 1 <= i <= 2g+1."""
    if not 1 <= index <= 2 * ctx.g + 1:
        raise MalformedWordError(
            f"twist index {index} out of range 1..{2 * ctx.g + 1}"
        )
    return twist_table(ctx.g).automorphism((index,))


@lru_cache(maxsize=None)
def twist_table(g: int) -> GeneratorTable:
    """The 2g+1 twists of genus g as a fold table (letter i is t_i)."""
    rank = GenusContext(g).rank
    return GeneratorTable(rank, [_twist(g, i) for i in range(1, rank + 2)])


def braid_automorphism(ctx: GenusContext, braid: BraidWord) -> Automorphism:
    """Image of a braid word under the action homomorphism.

    The rightmost crossing acts first, matching the endo composition
    convention; this is the unique order under which the image of the
    descending cycle matches its closed form.
    """
    if braid.strands != ctx.strands:
        raise StrandMismatchError(
            f"braid on {braid.strands} strands does not act at genus {ctx.g}"
            f" (need {ctx.strands})"
        )
    return twist_table(ctx.g).automorphism(braid.letters)


def descending_cycle(ctx: GenusContext) -> BraidWord:
    """The braid s_1 s_2 ... s_{2g+1} whose (2g+2)-nd power generates the center."""
    return BraidWord(ctx.strands, tuple(range(1, ctx.strands)))


def sturmian_g1() -> dict[str, Automorphism]:
    """The four classical genus-1 morphisms G, D, G~, D~ of the rank-2 free group.

    G: (a,b) -> (a,ab),  D: (a,b) -> (ba,b),
    G~: (a,b) -> (a,ba), D~: (a,b) -> (ab,b).
    The genus-1 twists are t_1 = G, t_2 = D^{-1}, t_3 = G~.
    """
    a, b = 0, 1  # the 0-based index of the generator each one moves
    table = GeneratorTable(2, [
        (((b, (1, 2)),), ((b, (-1, 2)),)),  # G
        (((a, (2, 1)),), ((a, (-2, 1)),)),  # D
        (((b, (2, 1)),), ((b, (2, -1)),)),  # G~
        (((a, (1, 2)),), ((a, (1, -2)),)),  # D~
    ])
    return {name: table.automorphism((i,)) for i, name in enumerate(("G", "D", "Gt", "Dt"), 1)}


# The relations suite's wording of each kind of row of ``artin_relations``.
_RELATION_TEXT = {
    "commute": "twists {} and {} commute (genus {})",
    "braid": "twists {},{} satisfy the braid relation (genus {})",
}


def verify_u_braid_relations(ctx: GenusContext) -> VerificationReport:
    """Check every braid relation among the twist automorphisms.

    Both sides of each row of ``artin_relations`` fold over the twist
    table, and their generator images must agree exactly.
    """
    g = ctx.g
    table = twist_table(g)
    return run_checks(f"relations(g={g})", (
        (
            f"relations.g{g}.{name}",
            _RELATION_TEXT[name.split(".")[0]].format(*left[:2], g),
            *equal(table.automorphism(left), table.automorphism(right)),
        )
        for name, _, left, right in artin_relations(ctx.strands)
    ))


def _cycle_image_closed_form(ctx: GenusContext) -> Endomorphism:
    """Closed form of the action of the descending cycle.

    a_i -> (b_1 ... b_i)^{-1};  b_i -> a_i a_{i+1}^{-1} for i < g, a_g for i = g.
    """
    g = ctx.g
    images = {}
    for i in range(1, g + 1):
        images[i] = FreeWord(ctx.rank, tuple(g + k for k in range(1, i + 1))).inverse()
        if i != g:
            images[g + i] = ctx.word(i, -(i + 1))
        else:
            images[g + i] = ctx.a(g)
    return Endomorphism.from_image_map(ctx.rank, images)


def _cycle_square_closed_form(ctx: GenusContext) -> Endomorphism:
    """Closed form of the squared action of the descending cycle.

    a_i -> a_{i+1} a_1^{-1} for i < g, a_1^{-1} for i = g;
    b_i -> b_{i+1} for i < g, (b_1 ... b_g)^{-1} for i = g.
    """
    g = ctx.g
    images = {}
    for i in range(1, g + 1):
        if i != g:
            images[i] = ctx.word(i + 1, -1)
            images[g + i] = ctx.b(i + 1)
        else:
            images[i] = ctx.a(1, -1)
            images[g + i] = FreeWord(ctx.rank, tuple(range(g + 1, 2 * g + 1))).inverse()
    return Endomorphism.from_image_map(ctx.rank, images)


def verify_center_vanishes(ctx: GenusContext) -> VerificationReport:
    """Confirm the action kills the center of the braid group.

    Checks the closed forms for the image of the descending cycle and of
    its square, then that the (2g+2)-nd power is the identity map.
    """
    g = ctx.g
    cycle = braid_automorphism(ctx, descending_cycle(ctx))
    return run_checks(f"center(g={g})", (
        (
            f"center.g{g}.cycle-closed-form",
            f"descending-cycle action matches its closed form (genus {g})",
            *equal(cycle, _cycle_image_closed_form(ctx)),
        ),
        (
            f"center.g{g}.cycle-square-closed-form",
            f"squared descending-cycle action matches its closed form (genus {g})",
            *equal(cycle * cycle, _cycle_square_closed_form(ctx)),
        ),
        (
            f"center.g{g}.full-twist-trivial",
            f"the (2g+2)-nd power of the cycle acts as the identity (genus {g})",
            *equal(cycle ** (2 * g + 2), Endomorphism.identity(ctx.rank)),
        ),
    ))
