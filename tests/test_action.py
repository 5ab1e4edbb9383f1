import random

import pytest

from braidact import (
    BraidWord,
    FreeWord,
    GenusContext,
    MalformedWordError,
    StrandMismatchError,
    braid_automorphism,
    descending_cycle,
    sturmian_g1,
    twist_automorphism,
    verify_center_vanishes,
    verify_u_braid_relations,
)
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
    image, as the action module's docstring states them."""
    g, a, b = ctx.g, ctx.a, ctx.b
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
        basis = [ctx.a(i) for i in range(1, g + 1)] + [ctx.b(i) for i in range(1, g + 1)]
        for index in range(1, 2 * g + 2):
            t = twist_automorphism(ctx, index)
            moved = twist_formula(ctx, index)
            # everything not named is fixed
            assert t.forward.images == tuple(moved.get(x, (x,))[0] for x in basis)
            assert t.backward.images == tuple(moved.get(x, (x, x))[1] for x in basis)
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
            assert cycle.apply(ctx.a(i)) == expected
        assert cycle.apply(ctx.b(g)) == ctx.a(g)
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
    with pytest.raises(StrandMismatchError):
        braid_automorphism(GenusContext(2), BraidWord(4, (1,)))


def test_relation_report_is_exhaustive_and_green():
    for g in (1, 2, 3):
        report = verify_u_braid_relations(GenusContext(g))
        count = 2 * g + 1
        assert len(report.checks) == count * (count - 1) // 2
        assert report.all_passed()


def test_center_report_is_green():
    for g in (1, 2, 3):
        report = verify_center_vanishes(GenusContext(g))
        assert report.all_passed()
        assert len(report.checks) == 3
