import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidact import (
    BraidWord,
    FreeWord,
    GenusContext,
    IntMatrix,
    MalformedWordError,
    RankMismatchError,
    WordSyntaxError,
    format_word,
    parse_word,
)
from braidact.monoid import OmegaWord

SEED = 0xC0FFEE


def oracle_reduce(letters, rng):
    """Independent reduction oracle: cancel adjacent inverse pairs in a
    random order until none remain."""
    word = list(letters)
    while True:
        sites = [i for i in range(len(word) - 1) if word[i] == -word[i + 1]]
        if not sites:
            return tuple(word)
        i = rng.choice(sites)
        del word[i : i + 2]


def random_raw_word(rng, rank, max_len):
    return [rng.choice([1, -1]) * rng.randrange(1, rank + 1) for _ in range(rng.randrange(max_len + 1))]


def test_reduce_examples():
    assert FreeWord(2, (1, 2, -2, -1)).letters == ()
    assert FreeWord(2, (1, -1, 2)).letters == (2,)
    # hand oracle: only the a2^-1 a2 pair cancels
    assert FreeWord(4, (3, 1, -2, 2, 1)).letters == (3, 1, 1)


def test_reduce_is_idempotent_and_validates():
    w = FreeWord(4, (3, 1, -2, 2, 1))
    assert FreeWord(4, w.letters) == w
    with pytest.raises(MalformedWordError):
        FreeWord(2, (3,))
    with pytest.raises(MalformedWordError):
        FreeWord(2, (0,))
    with pytest.raises(MalformedWordError):
        FreeWord(-1, ())


def test_reduction_matches_random_order_oracle():
    rng = random.Random(SEED)
    for _ in range(300):
        raw = random_raw_word(rng, 4, 64)
        assert FreeWord(4, tuple(raw)).letters == oracle_reduce(raw, rng)


def test_concat_examples():
    a1b1 = FreeWord(2, (1, 2))
    assert (a1b1 * FreeWord(2, (-2,))).letters == (1,)
    w = FreeWord(2, (2, 1))
    assert FreeWord.identity(2) * w == w
    assert w * FreeWord(2, (-1, -2)) == FreeWord.identity(2)


def test_concat_rank_mismatch():
    with pytest.raises(RankMismatchError):
        FreeWord(2, (1,)) * FreeWord(4, (1,))


def test_invert_examples():
    assert FreeWord(2, (1, 2)).inverse().letters == (-2, -1)
    assert FreeWord.identity(2).inverse() == FreeWord.identity(2)
    assert FreeWord(4, (3, 1, -2)).inverse().letters == (2, -1, -3)


def test_is_positive():
    assert FreeWord(2, (1, 2)).is_positive()
    assert not FreeWord(2, (-2, 1)).is_positive()
    assert FreeWord.identity(2).is_positive()


def test_abelianized():
    assert FreeWord(2, (1, 2)).abelianized() == (1, 1)
    assert FreeWord(2, (-2, 1)).abelianized() == (1, -1)
    assert FreeWord(4, (3, 1, -2)).abelianized() == (1, -1, 1, 0)


def test_parse_format_examples():
    assert parse_word("a1 b1", 2).letters == (1, 2)
    assert parse_word("A1 a1", 2).is_identity()
    assert parse_word("b1 a1 A2", 4).letters == (3, 1, -2)
    assert format_word(parse_word("b1 a1 A2", 4)) == "b1 a1 A2"
    assert parse_word("", 4).is_identity()
    assert format_word(FreeWord.identity(4)) == ""


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("a1 q2", 4)
    assert exc.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse_word("a3", 4)  # index exceeds the genus
    with pytest.raises(WordSyntaxError):
        parse_word("a1", 3)  # odd rank has no a/b naming


def test_odd_rank_words_parse_as_str_writes_them():
    w = FreeWord(3, (1, -3, 2))
    assert str(w) == "1 -3 2"
    assert parse_word(str(w), 3) == w
    for text, position in (("1 x 2", 2), ("1  +2", 3), ("-1 01", 3), ("2 -4", 2)):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text, 3)
        assert exc.value.position == position


words_strategy = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.sampled_from([k, -k])
    ),
    max_size=40,
)


@settings(max_examples=200)
@given(words_strategy, words_strategy)
def test_concat_reduces_to_sequential_reduction(u, v):
    # Reducing the concatenation of raw sequences equals concatenating
    # the reduced words: confluence at the seam.
    assert FreeWord(4, tuple(u + v)) == FreeWord(4, tuple(u)) * FreeWord(4, tuple(v))


@settings(max_examples=200)
@given(words_strategy)
def test_inverse_is_involution_and_cancels(u):
    w = FreeWord(4, tuple(u))
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity()


@settings(max_examples=200)
@given(words_strategy, words_strategy)
def test_inverse_antihomomorphism(u, v):
    wu, wv = FreeWord(4, tuple(u)), FreeWord(4, tuple(v))
    assert (wu * wv).inverse() == wv.inverse() * wu.inverse()


@settings(max_examples=200)
@given(words_strategy, words_strategy)
def test_abelianization_is_a_homomorphism(u, v):
    wu, wv = FreeWord(4, tuple(u)), FreeWord(4, tuple(v))
    combined = (wu * wv).abelianized()
    assert combined == tuple(x + y for x, y in zip(wu.abelianized(), wv.abelianized()))


def test_positive_words_compose_without_cancellation():
    rng = random.Random(SEED)
    for _ in range(200):
        u = FreeWord(4, tuple(rng.randrange(1, 5) for _ in range(rng.randrange(10))))
        v = FreeWord(4, tuple(rng.randrange(1, 5) for _ in range(rng.randrange(10))))
        assert (u * v).is_positive() == (u.is_positive() and v.is_positive())
        assert len(u * v) == len(u) + len(v)


def test_pow_matches_repeated_concat():
    # (1, 2, -1) cancels at every seam between copies; (1, 2) at none.
    for w in (FreeWord(2, (1, 2)), FreeWord(2, (1, 2, -1)), FreeWord(2, ())):
        for k in range(-3, 4):
            base = w if k >= 0 else w.inverse()
            product = FreeWord.identity(2)
            for _ in range(abs(k)):
                product = product * base
            assert w ** k == product
    assert (FreeWord(2, (1, 2, -1)) ** 3).letters == (1, 2, 2, 2, -1)


def test_values_are_immutable_hashable_and_picklable():
    for value in (FreeWord(4, (1, -1, 2)), BraidWord(6, (1, -3)), GenusContext(2), IntMatrix.identity(2)):
        assert pickle.loads(pickle.dumps(value)) == value
        assert hash(value) == hash(pickle.loads(pickle.dumps(value)))
        with pytest.raises(AttributeError):
            value.rank = 0
    assert FreeWord(2, (1,)) != BraidWord(2, (1,))
    assert repr(GenusContext(3)) == "GenusContext(g=3)"


@pytest.mark.parametrize("bad", [1.0, 2.5, "2"], ids=["integral-float", "float", "str"])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda bad: FreeWord(4, (1, bad)), "letters must be integers"),
        (lambda bad: FreeWord(bad, ()), "rank must be an integer"),
        (lambda bad: BraidWord(6, (bad, 2)), "letters must be integers"),
        (lambda bad: BraidWord(bad, (1,)), "strands must be an integer"),
        (lambda bad: OmegaWord(2, (1, bad)), "letters must be integers"),
        (lambda bad: OmegaWord(bad, ()), "g must be an integer"),
        (lambda bad: GenusContext(bad), "genus must be an integer"),
    ],
    ids=["free-letter", "free-rank", "braid-letter", "braid-strands", "omega-letter",
         "omega-genus", "genus"],
)
def test_words_and_sizes_from_outside_are_exact_ints(build, message, bad):
    """A float is not truncated and a string is not parsed: each raises
    TypeError naming the value, as a matrix entry does."""
    with pytest.raises(TypeError, match=f"^{message}, got {bad!r}$"):
        build(bad)


def test_bool_letters_and_sizes_count_as_ints():
    """As in ``IntMatrix``, a bool is the int 0 or 1, stored as an int."""
    word = FreeWord(True, (True, True))
    assert word == FreeWord(1, (1, 1))
    assert type(word.rank) is int and all(type(x) is int for x in word.letters)
    assert BraidWord(3, (True, 2)).letters == (1, 2)
    assert type(BraidWord(3, (True,)).letters[0]) is int
    assert GenusContext(True) == GenusContext(1)
    assert type(GenusContext(True).g) is int
