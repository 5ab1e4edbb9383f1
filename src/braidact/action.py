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

with all unnamed generators fixed.  ``_twist`` writes each twist once,
as its sparse moves and their inverses in the a/b grammar of
``parse_word`` (``("b1", "a1 b1")`` for t_1), and ``twist_table`` hands
them to a ``GeneratorTable``, which checks each pair once.  The twists
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
from .words import parse_word


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

    def crossings(self, braid: BraidWord) -> tuple[int, ...]:
        """The letters of a braid that acts at this genus, one on 2g+2
        strands; StrandMismatchError for any other strand count."""
        if braid.strands != self.strands:
            raise StrandMismatchError(
                f"braid on {braid.strands} strands does not act at genus {self.g}"
                f" (need {self.strands})"
            )
        return braid.letters


def _moves(rank: int, *moves: tuple[str, str]) -> tuple:
    """Each ``(generator, image)`` move, both written in the a/b grammar,
    as the (0-based index, reduced letters) pair a ``GeneratorTable`` reads."""
    return tuple(
        (parse_word(x, rank).letters[0] - 1, parse_word(image, rank).letters)
        for x, image in moves
    )


def _twist(g: int, index: int) -> tuple[tuple, tuple]:
    """The (forward, backward) moves of t_index at genus g, written as in
    the formulas above."""
    rank = 2 * g
    if index == 1:
        return _moves(rank, ("b1", "a1 b1")), _moves(rank, ("b1", "A1 b1"))
    if index == rank + 1:
        return _moves(rank, (f"b{g}", f"b{g} a{g}")), _moves(rank, (f"b{g}", f"b{g} A{g}"))
    if index % 2 == 0:
        i = index // 2
        return _moves(rank, (f"a{i}", f"B{i} a{i}")), _moves(rank, (f"a{i}", f"b{i} a{i}"))
    i, j = index // 2, index // 2 + 1
    return (
        _moves(rank, (f"b{i}", f"b{i} a{i} A{j}"), (f"b{j}", f"a{j} A{i} b{j}")),
        _moves(rank, (f"b{i}", f"b{i} a{j} A{i}"), (f"b{j}", f"a{i} A{j} b{j}")),
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
    return twist_table(ctx.g).automorphism(ctx.crossings(braid))


def descending_cycle(ctx: GenusContext) -> BraidWord:
    """The braid s_1 s_2 ... s_{2g+1} whose (2g+2)-nd power generates the center."""
    return BraidWord(ctx.strands, tuple(range(1, ctx.strands)))


def sturmian_g1() -> dict[str, Automorphism]:
    """The four classical genus-1 morphisms G, D, G~, D~ of the rank-2 free group.

    G: (a,b) -> (a,ab),  D: (a,b) -> (ba,b),
    G~: (a,b) -> (a,ba), D~: (a,b) -> (ab,b).
    The genus-1 twists are t_1 = G, t_2 = D^{-1}, t_3 = G~.
    """
    table = GeneratorTable(2, [
        (_moves(2, ("b1", "a1 b1")), _moves(2, ("b1", "A1 b1"))),  # G
        (_moves(2, ("a1", "b1 a1")), _moves(2, ("a1", "B1 a1"))),  # D
        (_moves(2, ("b1", "b1 a1")), _moves(2, ("b1", "b1 A1"))),  # G~
        (_moves(2, ("a1", "a1 b1")), _moves(2, ("a1", "a1 B1"))),  # D~
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
    a = [" ".join(f"B{k}" for k in range(i, 0, -1)) for i in range(1, g + 1)]
    b = [f"a{i} A{i + 1}" for i in range(1, g)] + [f"a{g}"]
    return Endomorphism(ctx.rank, [parse_word(w, ctx.rank) for w in a + b])


def _cycle_square_closed_form(ctx: GenusContext) -> Endomorphism:
    """Closed form of the squared action of the descending cycle.

    a_i -> a_{i+1} a_1^{-1} for i < g, a_1^{-1} for i = g;
    b_i -> b_{i+1} for i < g, (b_1 ... b_g)^{-1} for i = g.
    """
    g = ctx.g
    a = [f"a{i + 1} A1" for i in range(1, g)] + ["A1"]
    b = [f"b{i + 1}" for i in range(1, g)] + [" ".join(f"B{k}" for k in range(g, 0, -1))]
    return Endomorphism(ctx.rank, [parse_word(w, ctx.rank) for w in a + b])


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
