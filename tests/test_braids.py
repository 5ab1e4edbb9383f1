import itertools
import math
import random

import pytest

from braidact import (
    BraidWord,
    FreeWord,
    MalformedWordError,
    ResourceLimitError,
    StrandMismatchError,
    WordSyntaxError,
    artin_action,
    braids_equal,
    format_braid,
    half_twist,
    parse_braid,
)
from braidact.braids import NAMED_B6, artin_relations
from braidact.symplectic import random_braid

SEED = 0x5EED


def b6(*letters):
    return BraidWord(6, letters)


def test_free_reduction_and_validation():
    assert BraidWord(6, (1, -1, 2)).letters == (2,)
    with pytest.raises(MalformedWordError):
        BraidWord(6, (6,))
    with pytest.raises(MalformedWordError):
        BraidWord(1, ())


def test_group_operations():
    assert (b6(1) * b6(-1)).letters == ()
    assert b6(1, 2).inverse().letters == (-2, -1)
    assert (b6(4, 5) ** 3).letters == (4, 5) * 3
    assert ((b6(4, 5) ** 3) * (b6(4, 5) ** 3)).letters == (4, 5) * 6
    # Copies cancel at each seam; a negative power repeats the inverse.
    assert (b6(1, 2, -1) ** 3).letters == (1, 2, 2, 2, -1)
    assert (b6(1, 2, -1) ** -2).letters == (1, -2, -2, -1)
    assert (b6(3) ** 0).letters == ()
    with pytest.raises(StrandMismatchError):
        b6(1) * BraidWord(4, (1,))


def test_artin_action_on_generators():
    sigma = artin_action(BraidWord(2, (1,)))
    assert sigma.apply(FreeWord(2, (1,))) == FreeWord(2, (1, 2, -1))
    assert sigma.apply(FreeWord(2, (2,))) == FreeWord(2, (1,))
    assert artin_action(BraidWord(2, ())).is_identity()


def test_artin_action_is_a_homomorphism():
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randrange(3, 9)
        b1 = random_braid(rng, n, rng.randrange(21))
        b2 = random_braid(rng, n, rng.randrange(21))
        assert artin_action(b1 * b2) == artin_action(b1) * artin_action(b2)
        assert artin_action(b1.inverse()) == artin_action(b1).inverse()


def test_braid_relations_hold_exhaustively():
    for n in range(3, 9):
        for i in range(1, n - 1):
            si, sj = BraidWord(n, (i,)), BraidWord(n, (i + 1,))
            assert braids_equal(si * sj * si, sj * si * sj)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                si, sj = BraidWord(n, (i,)), BraidWord(n, (j,))
                assert braids_equal(si * sj, sj * si)


@pytest.mark.parametrize("n", range(2, 9))
def test_artin_relations_spell_each_relation_once(n):
    rows = artin_relations(n)
    adjacent = [(i, i + 1) for i in range(1, n - 1)]
    expected = [
        (f"braid.{i}-{j}", (i, j, i), (j, i, j))
        if (i, j) in adjacent
        else (f"commute.{i}-{j}", (i, j), (j, i))
        for i, j in itertools.combinations(range(1, n), 2)
    ]
    assert [(name, left, right) for name, _, left, right in rows] == expected
    assert len(rows) == math.comb(n - 1, 2)
    braid_rows = [name for name, *_ in rows if name.startswith("braid.")]
    assert braid_rows == [f"braid.{i}-{j}" for i, j in adjacent] and len(braid_rows) == n - 2
    for name, _, left, right in rows:
        assert braids_equal(BraidWord(n, left), BraidWord(n, right)), name
    assert n > 2 or rows == ()


def test_artin_relations_spell_both_sides_in_the_description():
    assert artin_relations(4)[:2] == (
        ("braid.1-2", "s1 s2 s1 = s2 s1 s2", (1, 2, 1), (2, 1, 2)),
        ("commute.1-3", "s1 s3 = s3 s1", (1, 3), (3, 1)),
    )
    assert artin_relations(4, "M")[1][1] == "M1 M3 = M3 M1"


def test_braids_equal_examples():
    assert braids_equal(b6(1, 2, 1), b6(2, 1, 2))
    assert braids_equal(b6(1, 3), b6(3, 1))
    assert not braids_equal(b6(1), b6(2))
    with pytest.raises(StrandMismatchError):
        braids_equal(b6(1), BraidWord(4, (1,)))


def test_braids_equal_is_a_congruence():
    rng = random.Random(SEED)
    for _ in range(60):
        c = random_braid(rng, 6, rng.randrange(12))
        # multiply two presentations of the same element by the same word
        left = b6(1, 2, 1) * c
        right = b6(2, 1, 2) * c
        assert braids_equal(left, right)


def test_half_twist():
    assert half_twist(2).letters == (1,)
    assert half_twist(6).letters == (1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1)
    delta = half_twist(6)
    for i in range(1, 6):
        assert braids_equal(delta * b6(i), b6(6 - i) * delta)


def test_named_braids_are_read_only():
    with pytest.raises(TypeError):
        NAMED_B6["ALPHA"] = (1,)
    assert parse_braid("ALPHA", 6) == BraidWord(6, (4, 5) * 3)


def test_full_twist_is_central():
    for n in (3, 4, 6, 8):
        full = half_twist(n) ** 2
        assert braids_equal(full, BraidWord(n, range(1, n)) ** n), n
        for i in range(1, n):
            s = BraidWord.generator(n, i)
            assert braids_equal(full * s, s * full), (n, i)


def test_parse_and_format():
    assert parse_braid("1 -2 3", 6).letters == (1, -2, 3)
    assert parse_braid("4 5 4 5 4 5", 6).letters == (4, 5) * 3
    assert parse_braid("DELTA6", 6) == half_twist(6)
    assert parse_braid("ALPHA", 6).letters == (4, 5) * 3
    assert parse_braid("BETA", 6).letters == (-3, 1, 2, 1, 2, 1, 2, 3)
    assert parse_braid("GAMMA", 6).letters == (1, -3, 5)
    assert format_braid(parse_braid("1 -2 3", 6)) == "1 -2 3"
    assert parse_braid("", 6).letters == ()


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_braid("1 x", 6)
    with pytest.raises(WordSyntaxError):
        parse_braid("0", 6)
    with pytest.raises(WordSyntaxError):
        parse_braid("6", 6)
    with pytest.raises(WordSyntaxError):
        parse_braid("DELTA6", 4)  # named tokens are 6-strand only


def test_length_cap_triggers_resource_error():
    # (s1 s2^-1)^k images grow exponentially; a tight cap must trip cleanly.
    pseudo_anosov = BraidWord(3, (1, -2)) ** 12
    action = artin_action(pseudo_anosov)
    with pytest.raises(ResourceLimitError):
        action.apply(FreeWord(3, (1,)), cap=1000)
    assert len(action.apply(FreeWord(3, (1,)))) > 1000
