"""The word kernels of ``braidact._kernels`` against naive definitions."""

import random

import pytest

from braidact import _kernels, kernel_backend
from braidact.errors import ResourceLimitError

SEED = 0xFA57

implementations = [pytest.param(_kernels, id=kernel_backend())]


def random_raw(rng, rank, n):
    return tuple(rng.choice([1, -1]) * rng.randrange(1, rank + 1) for _ in range(n))


def naive_reduce(letters):
    """Cancel the first adjacent inverse pair, repeated until none is left."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


@pytest.mark.parametrize("impl", implementations)
def test_reduce_matches_repeated_cancellation(impl):
    rng = random.Random(SEED)
    for _ in range(300):
        raw = random_raw(rng, 5, rng.randrange(60))
        assert impl.reduce_letters(raw) == naive_reduce(raw)


@pytest.mark.parametrize("impl", implementations)
def test_concat_and_invert_match_their_definitions(impl):
    rng = random.Random(SEED)
    for _ in range(300):
        w1 = naive_reduce(random_raw(rng, 5, rng.randrange(40)))
        w2 = naive_reduce(random_raw(rng, 5, rng.randrange(40)))
        assert impl.concat_reduced(w1, w2) == naive_reduce(w1 + w2)
        inv = impl.invert_reduced(w1)
        assert len(inv) == len(w1) and naive_reduce(inv) == inv
        assert naive_reduce(w1 + inv) == () and naive_reduce(inv + w1) == ()


def naive_substitute(pos, neg, word):
    """Push the image letters one at a time, cancelling against the top.

    Returns the reduced result and the peak length after any push, the
    least cap under which the substitution must succeed.
    """
    stack = []
    peak = 0
    for x in word:
        for y in pos[x - 1] if x > 0 else neg[-x - 1]:
            if stack and stack[-1] == -y:
                stack.pop()
            else:
                stack.append(y)
                peak = max(peak, len(stack))
    return tuple(stack), peak


def assert_substitute_exact(impl, pos, neg, word):
    expected, peak = naive_substitute(pos, neg, word)
    assert impl.substitute(pos, neg, word, peak) == expected
    if peak > 0:
        with pytest.raises(ResourceLimitError):
            impl.substitute(pos, neg, word, peak - 1)
    return expected


@pytest.mark.parametrize("impl", implementations)
def test_substitute_matches_reduced_concatenated_images(impl):
    rng = random.Random(SEED)
    for i in range(200):
        rank = rng.randrange(2, 6)
        pos = tuple(
            naive_reduce(random_raw(rng, rank, rng.randrange(1, 6))) for _ in range(rank)
        )
        neg = tuple(tuple(-x for x in reversed(img)) for img in pos)
        word = random_raw(rng, rank, rng.randrange(50))
        if i % 2:
            word = naive_reduce(word)
        images = [pos[x - 1] if x > 0 else neg[-x - 1] for x in word]
        expected = naive_reduce(letter for image in images for letter in image)
        assert impl.substitute(pos, neg, word, 10**6) == expected
        assert assert_substitute_exact(impl, pos, neg, word) == expected


@pytest.mark.parametrize("impl", implementations)
def test_substitute_enforces_the_cap(impl):
    pos = ((1, 2),)
    neg = ((-2, -1),)
    word = (1,) * 50
    with pytest.raises(ResourceLimitError):
        impl.substitute(pos, neg, word, 30)

    # The cap holds exactly at the peak even when an image first cancels
    # into the stack: x2 -> x2^-1 x1^-1 x2 x2 x2 cancels the whole of
    # image(x1) = x1 x2 before it grows the stack.
    pos = ((1, 2), (-2, -1, 2, 2, 2))
    neg = ((-2, -1), (-2, -2, -2, 1, 2))
    # The whole stack cancels, then the image continues: peak 3.
    assert assert_substitute_exact(impl, pos, neg, (1, 2)) == (2, 2, 2)
    # The image cancels two letters, then grows past cap = 4: peak 5.
    assert naive_substitute(pos, neg, (1, 1, 2))[1] == 5
    assert assert_substitute_exact(impl, pos, neg, (1, 1, 2)) == (1, 2, 2, 2, 2)
    # An unreduced input word: x1 x1^-1 cancels through the seam.
    assert assert_substitute_exact(impl, pos, neg, (1, -1, 2)) == pos[1]
    assert assert_substitute_exact(impl, pos, neg, (2, -2, 1, -1)) == ()

