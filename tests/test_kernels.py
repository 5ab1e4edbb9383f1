"""The word kernels against naive definitions.

Each implementation is checked on its own: the pure twin always, the
compiled extension when it was built.  The kernels bound in
``braidact._kernels`` must be those of the implementation it names.
"""

import random

import pytest

from braidact import _kernels
from braidact._kernels import _pure
from braidact.errors import ResourceLimitError

try:
    from braidact._kernels import _core
except ImportError:
    _core = None

SEED = 0xFA57

implementations = [
    pytest.param(_pure, id="pure"),
    pytest.param(
        _core,
        id="compiled",
        marks=pytest.mark.skipif(_core is None, reason="compiled kernels not built"),
    ),
]


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


@pytest.mark.parametrize("impl", implementations)
def test_substitute_matches_reduced_concatenated_images(impl):
    rng = random.Random(SEED)
    for _ in range(200):
        rank = rng.randrange(2, 6)
        pos = tuple(
            naive_reduce(random_raw(rng, rank, rng.randrange(1, 6))) for _ in range(rank)
        )
        neg = tuple(tuple(-x for x in reversed(img)) for img in pos)
        word = naive_reduce(random_raw(rng, rank, rng.randrange(50)))
        images = [pos[x - 1] if x > 0 else neg[-x - 1] for x in word]
        expected = naive_reduce(letter for image in images for letter in image)
        assert impl.substitute(pos, neg, word, 10**6) == expected


@pytest.mark.parametrize("impl", implementations)
def test_substitute_enforces_the_cap(impl):
    pos = ((1, 2),)
    neg = ((-2, -1),)
    word = (1,) * 50
    with pytest.raises(ResourceLimitError):
        impl.substitute(pos, neg, word, 30)


def test_backend_selection_reports_a_name():
    bound = {"pure": _pure, "compiled": _core}[_kernels.backend_name()]
    assert bound is (_pure if _core is None else _core)
    for name in ("reduce_letters", "concat_reduced", "invert_reduced", "substitute"):
        assert getattr(_kernels, name) is getattr(bound, name)
