import random

import pytest

from braidact import (
    Automorphism,
    BraidWord,
    Endomorphism,
    FreeWord,
    GenusContext,
    IntMatrix,
    NotInverseError,
    RankMismatchError,
    ResourceLimitError,
    artin_action,
    format_endomorphism,
    parse_word,
    sturmian_g1,
    twist_automorphism,
)
from braidact import _kernels
from braidact.action import twist_table
from braidact.braids import _artin_table
from braidact.endo import GeneratorTable

SEED = 0xBADCAFE


def w(rank, *codes):
    return FreeWord(rank, codes)


def random_twist_composite(rng, g, length):
    """The automorphism of ``length`` drawn twists or inverse twists, as a
    word over the twist table."""
    letters = []
    for _ in range(length):
        i = rng.randrange(1, 2 * g + 2)
        letters.append(i if rng.random() < 0.5 else -i)
    return twist_table(g).automorphism(tuple(letters))


def test_apply_on_twist_images():
    ctx = GenusContext(2)
    t1 = twist_automorphism(ctx, 1)
    assert t1.apply(w(4, 3)) == w(4, 1, 3)  # b1 -> a1 b1
    t4 = twist_automorphism(ctx, 4)
    assert t4.apply(w(4, 2)) == w(4, -4, 2)  # a2 -> b2^-1 a2
    t3 = twist_automorphism(ctx, 3)
    assert t3.apply(w(4, 3)) == w(4, 3, 1, -2)  # b1 -> b1 a1 a2^-1


def test_apply_distributes_and_respects_inverse():
    rng = random.Random(SEED)
    for _ in range(200):
        e = random_twist_composite(rng, 2, rng.randrange(1, 8))
        u = FreeWord(4, tuple(rng.choice([1, -1]) * rng.randrange(1, 5) for _ in range(rng.randrange(30))))
        v = FreeWord(4, tuple(rng.choice([1, -1]) * rng.randrange(1, 5) for _ in range(rng.randrange(30))))
        assert e.apply(u * v) == e.apply(u) * e.apply(v)
        assert e.apply(u.inverse()) == e.apply(u).inverse()


def test_apply_rank_mismatch():
    with pytest.raises(RankMismatchError):
        Endomorphism.identity(2).apply(FreeWord(4, (1,)))
    small, large = (twist_automorphism(GenusContext(g), 1) for g in (1, 2))
    for left, right in ((small, large), (large, small)):
        with pytest.raises(RankMismatchError):
            left * right


def test_compose_convention_right_acts_first():
    ctx = GenusContext(1)
    t1, t2, t3 = (twist_automorphism(ctx, i) for i in (1, 2, 3))
    composite = t1 * (t2 * t3)
    # the closed form of the descending-cycle action pins the convention
    assert composite.apply(w(2, 1)) == w(2, -2)  # a1 -> b1^-1
    assert composite.apply(w(2, 2)) == w(2, 1)  # b1 -> a1
    empty = twist_table(1).automorphism(())
    assert t1 * empty == t1
    assert empty * t1 == t1


def test_cycle_square_at_genus_two():
    ctx = GenusContext(2)
    cycle = twist_table(2).automorphism(())
    for i in range(1, 6):
        cycle = cycle * twist_automorphism(ctx, i)
    square = cycle * cycle
    assert square.apply(w(4, 3)) == w(4, 4)  # b1 -> b2
    assert square.apply(w(4, 4)) == w(4, -4, -3)  # b2 -> (b1 b2)^-1


def test_power():
    ctx = GenusContext(1)
    t1 = twist_automorphism(ctx, 1)
    identity = Endomorphism.identity(2)
    assert identity * t1 == t1 * identity == t1
    assert (t1 * t1).apply(w(2, 2)) == w(2, 1, 1, 2)  # b1 -> a1 a1 b1
    cycle = twist_table(1).automorphism((1, 2, 3))
    assert cycle == twist_automorphism(ctx, 1) * twist_automorphism(ctx, 2) * twist_automorphism(ctx, 3)
    assert (cycle ** 4).is_identity()
    for k in (1, 2, 5):
        assert cycle ** -k == (cycle ** k).inverse()
        assert (t1 ** -k).letters == (-1,) * k


def test_equality_of_endomorphisms():
    ctx = GenusContext(1)
    t1 = twist_automorphism(ctx, 1)
    assert t1 == twist_automorphism(ctx, 1)
    assert t1 != Endomorphism.identity(2) and not t1.is_identity()
    assert Endomorphism.identity(2).is_identity()
    for i in (1, 2, 3):
        t = twist_automorphism(ctx, i)
        product = t * t.inverse()
        # a product composes the images, even over one table
        assert type(product) is Endomorphism
        assert product.is_identity() and product == Endomorphism.identity(2)


def test_an_automorphism_is_the_endomorphism_of_its_images():
    assert issubclass(Automorphism, Endomorphism)
    rng = random.Random(SEED)
    for _ in range(20):
        auto = random_twist_composite(rng, 2, rng.randrange(6))
        endo = Endomorphism(4, auto.images)
        assert auto == endo and endo == auto
        assert hash(auto) == hash(endo)
        assert repr(auto) == "Automorphism" + repr(endo)[len("Endomorphism"):]


def test_products_over_one_table_compose_the_images():
    """``a * b`` over one table is an Endomorphism with the images of the
    word ``a.letters + b.letters`` over that table."""
    rng = random.Random(SEED + 3)
    for g in (1, 2, 3):
        table = twist_table(g)
        for _ in range(20):
            a, b = (random_twist_composite(rng, g, rng.randrange(6)) for _ in range(2))
            product = a * b
            assert type(product) is Endomorphism
            assert product.images == table.automorphism(a.letters + b.letters).images


def test_mixed_products_compose_the_images():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        auto = random_twist_composite(rng, 2, rng.randrange(1, 6))
        endo = Endomorphism(4, random_twist_composite(rng, 2, rng.randrange(1, 6)).images)
        for left, right in ((auto, endo), (endo, auto)):
            dense = Endomorphism(4, [left.apply(image) for image in right.images])
            product = left * right
            assert type(product) is Endomorphism
            assert product == dense


def test_apply_and_compose_invert_only_the_images_a_word_reads_inverted(monkeypatch):
    """A map is its images: ``apply`` and ``*`` evaluate over them and
    invert an image only when the word reads it inverted, never all 2g
    up front, and never write back into either operand."""
    inverted = []
    invert_reduced = _kernels.invert_reduced

    def counted(letters):
        inverted.append(letters)
        return invert_reduced(letters)

    monkeypatch.setattr(_kernels, "invert_reduced", counted)
    rng = random.Random(SEED + 2)

    def positive(length):
        return FreeWord(6, tuple(rng.randrange(1, 7) for _ in range(length)))

    for _ in range(20):
        left, right = (Endomorphism(6, [positive(rng.randrange(1, 5)) for _ in range(6)])
                       for _ in range(2))
        pos = left._pos, right._pos
        word = positive(rng.randrange(12))
        image, product = left.apply(word), left * right
        assert inverted == []
        assert (left._pos, right._pos) == pos
        assert image == FreeWord(6, tuple(x for k in word.letters for x in left._pos[k - 1]))
        assert product == Endomorphism(6, [left.apply(v) for v in right.images])
        # a word that reads x2 inverted, twice, inverts that one image once
        left.apply(w(6, 1, -2, -2, 6))
        assert inverted == [left._pos[1]]
        inverted.clear()


def test_apply_cap_bounds_every_intermediate_word():
    # x1 -> x3 x3 x3 x4 and x2 -> x4^-1 x3^-3 x2, so x1 x2 -> x2 through 4 letters
    e = Endomorphism(4, [w(4, 3, 3, 3, 4), w(4, -4, -3, -3, -3, 2), w(4, 3), w(4, 4)])
    assert e.apply(w(4, 1, 2), cap=4) == w(4, 2)
    with pytest.raises(ResourceLimitError):
        e.apply(w(4, 1, 2), cap=3)
    assert e.apply(w(4, 1), cap=4) == w(4, 3, 3, 3, 4)
    with pytest.raises(ResourceLimitError):
        e.apply(w(4, 1, 1), cap=7)
    # A one-letter word is read, not substituted, and its 4-letter image
    # or that image's inverse still trips the cap.
    with pytest.raises(ResourceLimitError):
        e.apply(w(4, 1), cap=3)
    with pytest.raises(ResourceLimitError):
        e.apply(w(4, -1), cap=3)


def test_constructor_accepts_closed_form_inverses():
    # b -> ab, inverted by b -> a^-1 b
    table = GeneratorTable(2, [(((1, (1, 2)),), ((1, (-1, 2)),))])
    assert Automorphism(table, (1,)).images == (w(2, 1), w(2, 1, 2))
    # a -> b^-1 a, inverted by a -> b a
    table = GeneratorTable(2, [(((0, (-2, 1)),), ((0, (2, 1)),))])
    assert Automorphism(table, (-1,)).images == (w(2, 2, 1), w(2, 2))


def test_constructor_rejects_non_inverse_with_witness():
    fwd = ((1, (1, 2)),)
    with pytest.raises(NotInverseError) as exc:
        GeneratorTable(2, [(fwd, fwd)])
    assert exc.value.generator == 2
    assert str(exc.value) == "forward o backward does not fix generator 2"


@pytest.mark.parametrize(
    "backward, backward_moves",
    [
        ([w(2, 1), w(2, 1, 2)], ((1, (1, 2)),)),  # b -> ab both ways
        ([w(2, 1), w(2, 2)], ()),  # only the forward direction moves b
        ([w(2, 2, 1), w(2, -1, 2)], ((0, (2, 1)), (1, (-1, 2)))),  # a -> ba is wrong
    ],
)
def test_table_rejects_a_non_inverse_pair_as_the_constructor_does(backward, backward_moves):
    """A bad pair fails its check alike as a table's only generator and
    as its second."""
    moved = tuple((k, v.letters) for k, v in enumerate(backward) if v.letters != (k + 1,))
    assert moved == backward_moves
    fwd = ((1, (1, 2)),)
    with pytest.raises(NotInverseError) as expected:
        GeneratorTable(2, [(fwd, backward_moves)])
    good = (fwd, ((1, (-1, 2)),))
    with pytest.raises(NotInverseError) as exc:
        GeneratorTable(2, [good, (fwd, backward_moves)])
    assert str(exc.value) == str(expected.value)
    assert exc.value.generator == expected.value.generator


def test_table_set_up_grows_with_the_moves(monkeypatch):
    """Checking a generator folds only the images it moves, so building a
    table substitutes a bounded number of times per generator at any rank
    (a dense check substitutes every image of the rank)."""
    calls = []
    substitute = _kernels.substitute

    def counted(*args):
        calls.append(1)
        return substitute(*args)

    monkeypatch.setattr(_kernels, "substitute", counted)
    for build, size, generators in ((_artin_table, 64, 63), (twist_table, 16, 33)):
        calls.clear()
        table = build.__wrapped__(size)  # a fresh table, past the cache
        assert len(table.moves) == 2 * generators
        assert 0 < len(calls) <= 4 * generators


def test_abelianization_matrix_examples():
    classic = sturmian_g1()
    a = IntMatrix(((1, 1), (0, 1)))
    b = IntMatrix(((1, 0), (1, 1)))
    assert classic["G"].abelianization_matrix() == a
    assert classic["Gt"].abelianization_matrix() == a
    assert classic["D"].abelianization_matrix() == b
    assert classic["Dt"].abelianization_matrix() == b
    m1 = twist_automorphism(GenusContext(2), 1).abelianization_matrix()
    assert m1 == IntMatrix(((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_abelianization_matrix_is_functorial():
    rng = random.Random(SEED)
    for _ in range(200):
        e1 = random_twist_composite(rng, 2, rng.randrange(1, 6))
        e2 = random_twist_composite(rng, 2, rng.randrange(1, 6))
        assert (e1 * e2).abelianization_matrix() == e1.abelianization_matrix() * e2.abelianization_matrix()


def test_automorphism_pairs_abelianize_to_inverse_matrices():
    rng = random.Random(SEED)
    for _ in range(50):
        a = random_twist_composite(rng, 3, rng.randrange(1, 8))
        prod = a.abelianization_matrix() * a.inverse().abelianization_matrix()
        assert prod == IntMatrix.identity(6)


def test_genus_one_twists_are_the_sturmian_morphisms():
    ctx = GenusContext(1)
    classic = sturmian_g1()
    assert twist_automorphism(ctx, 1) == classic["G"]
    assert twist_automorphism(ctx, 2) == classic["D"].inverse()
    assert twist_automorphism(ctx, 3) == classic["Gt"]
    # factors over different tables compose their images
    t2 = twist_automorphism(ctx, 2)
    product = classic["G"] * t2
    assert type(product) is Endomorphism
    assert product == Endomorphism(2, classic["G"].images) * Endomorphism(2, t2.images)


def parse_lines(text, rank):
    """The map of format_endomorphism's lines, each image read by parse_word."""
    return Endomorphism(rank, [parse_word(line.split(" -> ")[1], rank) for line in text.splitlines()])


def test_endomorphism_text_roundtrip():
    ctx = GenusContext(2)
    t3 = twist_automorphism(ctx, 3)
    text = format_endomorphism(t3)
    assert "b1 -> b1 a1 A2" in text.splitlines()
    assert parse_lines(text, 4) == t3


def test_odd_rank_maps_are_written_in_signed_integers():
    action = artin_action(BraidWord(3, (1,)))
    assert str(action) == "1 -> 1 2 -1\n2 -> 1\n3 -> 3"
    assert parse_lines(str(action), 3) == action
    assert str(Endomorphism.identity(3)) == "1 -> 1\n2 -> 2\n3 -> 3"
