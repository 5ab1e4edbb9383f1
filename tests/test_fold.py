"""Parity of the sparse forward-only fold with plain dense composition.

Each reference composes whole maps left to right from generators that
are verified (twists) or built here from their defining formulas
(Artin crossings), so the fold is checked against code that shares
nothing with it but the generators.
"""

import random
from functools import lru_cache

import pytest

from braidact import (
    Endomorphism,
    FreeWord,
    GenusContext,
    IntMatrix,
    ResourceLimitError,
    artin_action,
    braid_automorphism,
    braid_matrix,
    standard_form,
    twist_automorphism,
)
from braidact import _kernels, monoid
from braidact.action import twist_table
from braidact.braids import _artin_generator, _artin_table
from braidact.endo import DEFAULT_LENGTH_CAP, GeneratorTable
from braidact.fold import ColumnImages, WordImages, fold
from braidact.symplectic import random_braid

SEED = 0xF01D


def dense_word_composite(generator, rank, letters):
    """Left-to-right Endomorphism composition of the letters' generators."""
    out = Endomorphism.identity(rank)
    for x in letters:
        gen = generator(abs(x))
        out = out * (gen if x > 0 else gen.inverse())
    return out


def moved_words(images):
    """The ``(k, image)`` entries of the images that move x_{k+1}."""
    return tuple((k, w) for k, w in enumerate(images) if w != (k + 1,))


def artin_generator(n, i):
    """x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i, with its inverse."""
    def moves(moved):
        return moved_words([moved.get(k, (k,)) for k in range(1, n + 1)])

    pair = (
        moves({i: (i, i + 1, -i), i + 1: (i,)}),
        moves({i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}),
    )
    return GeneratorTable(n, [pair]).automorphism((1,))


@lru_cache(maxsize=None)
def twist_matrices(g):
    """The twist matrices and their adjugate inverses."""
    ctx = GenusContext(g)
    pos = [twist_automorphism(ctx, i).abelianization_matrix() for i in range(1, 2 * g + 2)]
    return pos, [m.inverse() for m in pos]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_twist_fold_matches_dense_composition(g):
    rng = random.Random(SEED + g)
    ctx = GenusContext(g)
    generator = lambda i: twist_automorphism(ctx, i)
    for _ in range(40):
        braid = random_braid(rng, ctx.strands, rng.randrange(25))
        action = braid_automorphism(ctx, braid)
        assert action == dense_word_composite(generator, ctx.rank, braid.letters)
        assert action.inverse() == dense_word_composite(
            generator, ctx.rank, braid.inverse().letters
        )
        assert (action * action.inverse()).is_identity()


@pytest.mark.parametrize("strands", [3, 4, 5, 6, 7])
def test_artin_fold_matches_dense_composition(strands):
    rng = random.Random(SEED + strands)
    generator = lambda i: artin_generator(strands, i)
    for _ in range(40):
        braid = random_braid(rng, strands, rng.randrange(25))
        action = artin_action(braid)
        assert action == dense_word_composite(generator, strands, braid.letters)
        assert action.inverse() == artin_action(braid.inverse())


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 8])
def test_braid_matrix_matches_dense_product_and_word_fold(g):
    rng = random.Random(SEED + 10 * g)
    ctx = GenusContext(g)
    pos, neg = twist_matrices(g)
    for _ in range(12):
        braid = random_braid(rng, ctx.strands, rng.randrange(16))
        dense = IntMatrix.identity(ctx.rank)
        for x in braid.letters:
            dense = dense * (pos[x - 1] if x > 0 else neg[-x - 1])
        m = braid_matrix(ctx, braid)
        assert m == dense
        assert m == braid_automorphism(ctx, braid).abelianization_matrix()


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 8])
def test_symplectic_inverse_equals_adjugate_inverse(g):
    """The adjugate inverse of a symplectic matrix M is -J M^T J."""
    j = standard_form(g)
    minus_j = IntMatrix([[-x for x in row] for row in j.rows])
    pos, neg = twist_matrices(g)
    for m, adjugate in zip(pos, neg):
        assert minus_j * m.transpose() * j == adjugate
        assert adjugate * m == IntMatrix.identity(2 * g)


def test_fold_cap_trips_mid_fold():
    # t1^4 t1^-4 is the identity, but b1 -> a1^4 b1 on the way.
    table = twist_table(2)
    letters = (1,) * 4 + (-1,) * 4
    assert table.automorphism(letters, cap=5).is_identity()
    with pytest.raises(ResourceLimitError):
        table.automorphism(letters, cap=4)


def test_deferred_inverse_of_a_long_power():
    t = twist_automorphism(GenusContext(2), 3)
    power = t ** 600
    assert (power * power.inverse()).is_identity()
    assert (t ** -600) == power.inverse()


@pytest.fixture
def inversions(monkeypatch):
    """The words ``_kernels.invert_reduced`` is called on, in order."""
    calls = []
    invert = _kernels.invert_reduced
    monkeypatch.setattr(_kernels, "invert_reduced", lambda w: calls.append(w) or invert(w))
    return calls


def test_omega_ball_inverts_no_image(inversions):
    # Omega letters map generators to positive words, so no step reads an
    # image inverted.
    assert len(list(monoid.omega_ball(3, 3))) == 1 + 5 + 25 + 125
    assert inversions == []


def test_artin_fold_reads_images_the_previous_letter_installed(inversions):
    # Unreduced on purpose: -2, 2 and -1 each read x_2 inverted, whose
    # image the letter before them has just installed.
    letters = (1, -2, 2, -1, 3)
    table = _artin_table(4)
    generator = lambda i: artin_generator(4, i)
    for n in range(len(letters) + 1):
        assert table.automorphism(letters[:n]) == dense_word_composite(generator, 4, letters[:n])
    assert inversions


def test_artin_fold_substitutes_once_per_crossing(monkeypatch):
    # Each crossing moves two generators: one conjugation is substituted
    # and x_{i+1} -> x_i or x_i -> x_{i+1} is read as the current image.
    table = GeneratorTable(5, [_artin_generator(i) for i in range(1, 5)])
    calls = []
    substitute = _kernels.substitute
    monkeypatch.setattr(
        _kernels, "substitute", lambda *args: calls.append(args[2]) or substitute(*args)
    )
    braid = random_braid(random.Random(SEED), 5, 30)
    action = table.automorphism(braid.letters)
    assert len(braid.letters) > 20
    assert len(calls) == len(braid.letters)
    assert all(len(word) == 3 for word in calls)
    assert action == artin_action(braid)


def test_one_letter_action_inverts_its_image_once(inversions):
    images = WordImages.of([(1, 2), (2,)], cap=2)
    assert images.evaluate((-1,)) == images.evaluate((-1,)) == (-2, -1)
    assert inversions == [(1, 2)]
    images[0] = (1, 2, 1)
    with pytest.raises(ResourceLimitError):
        images.evaluate((-1,))
    assert inversions == [(1, 2), (1, 2, 1)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_folded_endomorphism_applies_like_eagerly_inverted_images(g):
    rng = random.Random(SEED + 100 * g)
    ctx = GenusContext(g)
    generator = lambda i: twist_automorphism(ctx, i)
    for _ in range(20):
        braid = random_braid(rng, ctx.strands, rng.randrange(12))
        letters = [-rng.randrange(1, ctx.rank + 1)]
        letters += [rng.choice((1, -1)) * rng.randrange(1, ctx.rank + 1) for _ in range(9)]
        word = FreeWord(ctx.rank, letters)
        assert any(x < 0 for x in word.letters)
        e = twist_table(g).automorphism(braid.letters)
        pos = [w.letters for w in e.images]
        neg = [w.inverse().letters for w in e.images]
        eager = _kernels.substitute(pos, neg, word.letters, DEFAULT_LENGTH_CAP)
        assert e.apply(word).letters == eager
        assert dense_word_composite(generator, ctx.rank, braid.letters).apply(word).letters == eager


# Hand-made column tables, by columns, and the letter words that move
# them.  Letters 1 and 2 move columns to sums of two and three terms with
# coefficients +-1, +-2 and 3, each a repeated letter, and letter 2's
# second word starts with an inverse letter; letter 3 is singular: it
# sends column 2 to zero, the empty word, and column 0 to column 1.
HAND_COLUMNS = {
    1: ((2, -1, 0, 1), (0, 1, 0, 0), (0, 1, -2, 1), (0, 0, 0, 1)),
    2: ((1, 0, 0, 0), (-2, 1, 1, 0), (0, 0, 1, 0), (1, 0, 3, -1)),
    3: ((0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (-1, 0, 2, 1)),
}
HAND_WORDS = {
    1: ((0, (1, 1, -2, 4)), (2, (2, -3, -3, 4))),
    2: ((1, (-1, -1, 2, 3)), (3, (1, 3, 3, 3, -4))),
    3: ((0, (2,)), (2, ()), (3, (-1, 3, 3, 4))),
}


@pytest.mark.parametrize("letters", [(1, 2), (1, 2, 3), (3,), (2, 3, 3, 1)])
def test_column_fold_matches_dense_product_of_hand_table(letters):
    rng = random.Random(SEED + len(letters))
    for x, moves in HAND_WORDS.items():
        columns = dict(enumerate(IntMatrix.identity(4).rows))
        columns.update((k, FreeWord(4, word).abelianized()) for k, word in moves)
        assert tuple(columns.values()) == HAND_COLUMNS[x]
    assert any(not word for _, word in HAND_WORDS[3])
    assert any(len(set(word)) < len(word) for _, word in HAND_WORDS[1])
    assert any(len(set(map(abs, word))) == 3 for _, word in HAND_WORDS[2])
    for word in [letters] + [tuple(rng.choice((1, 2, 3)) for _ in range(7)) for _ in range(20)]:
        dense = IntMatrix.identity(4)
        for x in word:
            dense = dense * IntMatrix(zip(*HAND_COLUMNS[x]))
        images = fold(ColumnImages(4), HAND_WORDS, word)
        assert IntMatrix(zip(*images.columns)) == dense


def test_empty_combination_is_the_zero_column():
    images = ColumnImages(3)
    assert images.evaluate(()) == (0, 0, 0)
    assert images.evaluate((2,)) == (0, 1, 0)
    assert images.evaluate((-1, 3, 3)) == (-1, 0, 2)


def test_two_move_step_evaluates_both_images_before_installing_either():
    # Letter 1 swaps the two generators, so each moved image reads the
    # other's: installing the first before evaluating the second would
    # copy one generator into both.
    table = {1: moved_words(((2,), (1,)))}
    assert len(table[1]) == 2
    assert fold(WordImages(2, 10), table, (1,)).pos == [(2,), (1,)]
    assert fold(WordImages(2, 10), table, (1, 1)).pos == [(1,), (2,)]
    assert fold(ColumnImages(2), table, (1,)).columns == [(0, 1), (1, 0)]
    assert fold(ColumnImages(2), table, (1, 1)).columns == [(1, 0), (0, 1)]
