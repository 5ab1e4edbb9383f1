import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidact import (
    BraidWord,
    DimensionMismatchError,
    GenusContext,
    IntMatrix,
    NonUnimodularError,
    braid_matrix,
)


def test_identity_and_multiplication():
    a = IntMatrix(((1, 1), (0, 1)))
    assert IntMatrix.identity(2) * a == a
    assert a * IntMatrix.identity(2) == a
    with pytest.raises(DimensionMismatchError):
        a * IntMatrix.identity(3)


def test_must_be_square():
    with pytest.raises(DimensionMismatchError):
        IntMatrix(((1, 2, 3), (4, 5, 6)))


def test_inverse_of_unimodular():
    a = IntMatrix(((1, 1), (0, 1)))
    assert a * a.inverse() == IntMatrix.identity(2)
    m4 = IntMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -1, 0, 1)))
    m5 = IntMatrix(((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)))
    w = m4 * m5 * m4
    assert w * w.inverse() == IntMatrix.identity(4)
    assert w.inverse() * w == IntMatrix.identity(4)


def test_inverse_rejects_non_unimodular():
    with pytest.raises(NonUnimodularError) as exc:
        IntMatrix(((2, 0), (0, 1))).inverse()
    assert exc.value.determinant == 2


def test_transpose_involution():
    m = IntMatrix(((1, 2), (3, 4)))
    assert m.transpose().transpose() == m
    assert m.transpose() == IntMatrix(((1, 3), (2, 4)))


def test_determinant_bareiss():
    assert IntMatrix(((1, 2), (3, 4))).det() == -2
    assert IntMatrix(((0, 1), (1, 0))).det() == -1
    assert IntMatrix.identity(5).det() == 1
    assert IntMatrix(((2, 0), (0, 2))).det() == 4
    singular = IntMatrix(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    assert singular.det() == 0


def test_large_entries_stay_exact():
    a = IntMatrix(((1, 1), (0, 1)))
    b = IntMatrix(((1, 0), (1, 1)))
    m = IntMatrix.identity(2)
    for _ in range(120):
        m = m * a * b
    assert m.det() == 1  # Fibonacci-sized entries, no overflow
    assert m[0, 0] > 10**45


def test_repr_writes_entries_of_any_length_as_str_does():
    small = IntMatrix(((1, -2), (0, 10)))
    assert repr(small) == "IntMatrix([[1, -2], [0, 10]])"
    assert small.to_json() == json.dumps(small.to_lists())
    m = braid_matrix(GenusContext(1), BraidWord(4, (1, -2) * 11000))
    assert max(abs(x) for row in m.rows for x in row).bit_length() > 4300 * 10 // 3
    text = repr(m)
    assert text.startswith("IntMatrix([[") and text.endswith("]])")
    assert re.findall(r"-?\d+", text) == re.findall(r"-?\d+", str(m))


def test_identity_rejects_a_negative_size():
    assert IntMatrix.identity(0).dim == 0
    for n in (-1, -2):
        with pytest.raises(DimensionMismatchError):
            IntMatrix.identity(n)


@pytest.mark.parametrize(
    "rows",
    [
        ((1.9, 0), (0, 1)),
        ((1.5, 0), (0, 1)),
        (("1", 0), (0, 1)),
        ((1, 0), (0, None)),
        ((1.0, 0), (0, 1)),  # an integral float is still a float
    ],
)
def test_non_integer_entries_raise(rows):
    with pytest.raises(TypeError, match="matrix entries must be integers"):
        IntMatrix(rows)


# -- det against exact rational elimination -------------------------------


def fraction_det(rows):
    """Gaussian elimination over the rationals, swapping in the first nonzero pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert out.denominator == 1
    return int(out)


DENSE = st.integers(-9, 9)
SPARSE = st.sampled_from((0,) * 7 + (1, -1, 2))

# Each shape with the entries it is drawn from.
SHAPES = {
    "dense": DENSE,
    "sparse": SPARSE,
    "large": st.integers(-(10**30), 10**30),
    "permuted": SPARSE,
    "zero-row": DENSE,
    "repeated-row": DENSE,
}


@st.composite
def square_rows(draw):
    """Square integer rows of size 0-7 in one of the ``SHAPES``.

    ``sparse`` and ``permuted`` (a signed permutation with sparse noise)
    put zeros under and on the pivots, so elimination meets zero
    multipliers, equal consecutive pivots and pivot swaps; ``zero-row``
    and ``repeated-row`` are singular.
    """
    n = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    entry = SHAPES[shape]
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "permuted":
        perm = draw(st.permutations(range(n)))
        for i, j in enumerate(perm):
            rows[i][j] = draw(st.sampled_from((1, -1)))
    elif shape == "zero-row" and n:
        rows[draw(st.integers(0, n - 1))] = [0] * n
    elif shape == "repeated-row" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
    if n and draw(st.booleans()):
        rows[0][0] = 0  # the first pivot needs a swap, or the column is zero
    return rows


@settings(max_examples=600, deadline=None)
@given(square_rows())
def test_det_matches_fraction_elimination(rows):
    assert IntMatrix(rows).det() == fraction_det(rows)


def test_det_of_a_sparse_matrix_that_swaps_and_rescales():
    # The zero first pivot is swapped; both rows below it then have a zero
    # multiplier and are rescaled (p = 2, prev = 1).
    rows = ((0, 1, 0), (2, 0, 1), (0, 3, 1))
    assert IntMatrix(rows).det() == fraction_det(rows) == -2


# -- computed results are adopted exactly -----------------------------------


def assert_exact(m):
    """m's rows are a tuple of tuples of exact ints that the checking
    constructor accepts unchanged."""
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    assert all(type(x) is int for row in m.rows for x in row)
    assert IntMatrix(m.rows) == m


UNIMODULAR = IntMatrix(((1, 0, 2), (0, 1, 0), (-1, 3, -3)))  # det -1


@pytest.mark.parametrize(
    "compute",
    [
        lambda m: m * m,
        lambda m: m * IntMatrix.identity(3),
        lambda m: m.transpose(),
        lambda m: IntMatrix.identity(m.dim),
        lambda m: IntMatrix.identity(0),
        lambda m: m.inverse(),
        lambda m: m._minor(1, 2),
    ],
    ids=["mul", "mul-identity", "transpose", "identity", "identity-0", "inverse", "minor"],
)
def test_computed_matrices_are_exact(compute):
    assert UNIMODULAR.det() == -1
    assert_exact(compute(UNIMODULAR))


def naive_product(x, y):
    n = len(x)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += x[i][k] * y[k][j]
    return out


SIGNED = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))


@st.composite
def square_pairs(draw):
    n = draw(st.integers(0, 6))
    return tuple([[draw(SIGNED) for _ in range(n)] for _ in range(n)] for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(square_pairs())
def test_mul_matches_a_naive_triple_loop(pair):
    x, y = pair
    product = IntMatrix(x) * IntMatrix(y)
    assert product.to_lists() == naive_product(x, y)
    assert_exact(product)
