import random

import pytest

from braidact import (
    BraidWord,
    FreeWord,
    GenusContext,
    MalformedWordError,
    StrandMismatchError,
    braid_automorphism,
    braid_matrix,
    descending_cycle,
    sturmian_g1,
    twist_automorphism,
    verify_center_vanishes,
    verify_u_braid_relations,
)
from braidact import action, symplectic
from braidact.action import twist_table
from braidact.endo import GeneratorTable
from braidact.symplectic import random_braid

SEED = 0xAC7104


def test_genus_context():
    ctx = GenusContext(2)
    assert ctx.rank == 4
    assert ctx.strands == 6
    with pytest.raises(MalformedWordError):
        GenusContext(0)


def twist_formula(ctx, index):
    """The generators t_index moves, each with its forward and backward
    image, as the action module's docstring states them.  The words are
    built from indices (a_i is i, b_i is g+i), not parsed from the a/b
    grammar the module spells them in."""
    g, rank = ctx.g, ctx.rank
    a = lambda i, sign=1: FreeWord(rank, (sign * i,))
    b = lambda i, sign=1: FreeWord(rank, (sign * (g + i),))
    if index == 1:  # b_1 -> a_1 b_1
        return {b(1): (a(1) * b(1), a(1, -1) * b(1))}
    if index == 2 * g + 1:  # b_g -> b_g a_g
        return {b(g): (b(g) * a(g), b(g) * a(g, -1))}
    if index % 2 == 0:  # a_i -> b_i^{-1} a_i
        i = index // 2
        return {a(i): (b(i, -1) * a(i), b(i) * a(i))}
    i = (index - 1) // 2  # b_i -> b_i a_i a_{i+1}^{-1}, b_{i+1} -> a_{i+1} a_i^{-1} b_{i+1}
    return {
        b(i): (b(i) * a(i) * a(i + 1, -1), b(i) * a(i + 1) * a(i, -1)),
        b(i + 1): (a(i + 1) * a(i, -1) * b(i + 1), a(i) * a(i + 1, -1) * b(i + 1)),
    }


def test_twist_images_match_their_defining_formulas():
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        basis = [FreeWord.generator(ctx.rank, k) for k in range(1, ctx.rank + 1)]
        for index in range(1, 2 * g + 2):
            t = twist_automorphism(ctx, index)
            moved = twist_formula(ctx, index)
            # everything not named is fixed
            assert t.images == tuple(moved.get(x, (x,))[0] for x in basis)
            assert t.inverse().images == tuple(moved.get(x, (x, x))[1] for x in basis)
    with pytest.raises(MalformedWordError):
        twist_automorphism(GenusContext(2), 6)


def test_twist_inverses_fix_generators():
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        for i in range(1, 2 * g + 2):
            t = twist_automorphism(ctx, i)
            assert (t * t.inverse()).is_identity()
            assert (t.inverse() * t).is_identity()


def test_braid_action_at_genus_one_is_the_classic_triple():
    ctx = GenusContext(1)
    classic = sturmian_g1()
    assert braid_automorphism(ctx, BraidWord(4, (1,))) == classic["G"]
    assert braid_automorphism(ctx, BraidWord(4, (2,))) == classic["D"].inverse()
    assert braid_automorphism(ctx, BraidWord(4, (3,))) == classic["Gt"]


def test_cycle_action_closed_form():
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        cycle = braid_automorphism(ctx, descending_cycle(ctx))
        for i in range(1, g + 1):
            expected = FreeWord(ctx.rank, tuple(g + k for k in range(1, i + 1))).inverse()
            assert cycle.apply(FreeWord.generator(ctx.rank, i)) == expected
        a_g, b_g = (FreeWord.generator(ctx.rank, k) for k in (g, 2 * g))
        assert cycle.apply(b_g) == a_g
        assert (cycle ** (2 * g + 2)).is_identity()


def test_braid_action_is_a_homomorphism():
    rng = random.Random(SEED)
    ctx = GenusContext(2)
    for _ in range(200):
        b1 = random_braid(rng, 6, rng.randrange(16))
        b2 = random_braid(rng, 6, rng.randrange(16))
        assert braid_automorphism(ctx, b1 * b2) == braid_automorphism(ctx, b1) * braid_automorphism(ctx, b2)
        assert braid_automorphism(ctx, b1.inverse()) == braid_automorphism(ctx, b1).inverse()


def test_braid_action_kills_inserted_relators():
    rng = random.Random(SEED)
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        n = ctx.strands
        for _ in range(40):
            letters = list(random_braid(rng, n, rng.randrange(31)).letters)
            i = rng.randrange(1, n - 1)
            if rng.random() < 0.5 and i + 1 < n - 1:
                j = rng.randrange(i + 2, n)
                relator = [i, j, -i, -j]
            else:
                j = i + 1
                relator = [i, j, i, -j, -i, -j]
            pos = rng.randrange(len(letters) + 1)
            spliced = letters[:pos] + relator + letters[pos:]
            assert braid_automorphism(ctx, BraidWord(n, tuple(spliced))) == braid_automorphism(
                ctx, BraidWord(n, tuple(letters))
            )


def test_strand_mismatch():
    for act in (braid_automorphism, braid_matrix):
        with pytest.raises(StrandMismatchError) as exc:
            act(GenusContext(2), BraidWord(4, (1,)))
        assert str(exc.value) == "braid on 4 strands does not act at genus 2 (need 6)"


def test_relation_report_is_exhaustive_and_green():
    for g in (1, 2, 3, 10, 12):
        report = verify_u_braid_relations(GenusContext(g))
        count = 2 * g + 1
        assert len(report.checks) == count * (count - 1) // 2
        assert report.all_passed()


def test_center_report_is_green():
    for g in (1, 2, 3, 10, 12):
        report = verify_center_vanishes(GenusContext(g))
        assert report.all_passed()
        assert len(report.checks) == 3


def one_letter_mutants(g):
    """Every table made from ``twist_table(g)`` by one added letter.

    Each move of a twist has the form x -> u x v with u and v words in the
    generators the twist fixes, and its backward move is u^-1 x v^-1.  A
    letter y or y^-1 of a fixed generator y, put at the left end of u or
    the right end of v, gives u' and v'; x -> u' x v' with the backward
    move u'^-1 x v'^-1 is still an inverse pair.
    """
    rank = 2 * g
    moves = twist_table(g).moves
    reduced = lambda word: FreeWord(rank, word).letters
    inverse = lambda word: FreeWord(rank, word).inverse().letters
    for i in range(1, rank + 2):
        forward, backward = moves[i], moves[-i]
        fixed = sorted(set(range(1, rank + 1)) - {k + 1 for k, _ in forward})
        for m, (k, image) in enumerate(forward):
            x = image.index(k + 1)
            u, v = image[:x], image[x + 1:]
            assert backward[m] == (k, inverse(u) + (k + 1,) + inverse(v))
            for letter in [sign * y for y in fixed for sign in (1, -1)]:
                for u2, v2 in (((letter,) + u, v), (u, v + (letter,))):
                    pairs = [(moves[j], moves[-j]) for j in range(1, rank + 2)]
                    pairs[i - 1] = (
                        forward[:m] + ((k, reduced(u2 + (k + 1,) + v2)),) + forward[m + 1:],
                        backward[:m] + ((k, reduced(inverse(u2) + (k + 1,) + inverse(v2))),)
                        + backward[m + 1:],
                    )
                    yield GeneratorTable(rank, pairs)


@pytest.mark.parametrize("g, count", [(2, 64), (3, 164)])
def test_every_one_letter_mutant_of_the_twist_table_fails_both_suites(g, count, monkeypatch):
    """The relations suite and the centre suite each catch every table that
    one added letter makes from the twists, though each is a table of
    verified automorphisms.  Both shadows fold the one table they are
    given: the matrix of each crossing abelianizes its mutant twist."""
    ctx = GenusContext(g)
    tables = list(one_letter_mutants(g))
    assert len(tables) == count
    for table in tables:
        for module in (action, symplectic):
            monkeypatch.setattr(module, "twist_table", lambda _g: table)
        assert not verify_u_braid_relations(ctx).all_passed()
        assert not verify_center_vanishes(ctx).all_passed()
        for i in range(1, ctx.strands):
            m = twist_automorphism(ctx, i).abelianization_matrix()
            assert braid_matrix(ctx, BraidWord(ctx.strands, (i,))) == m
