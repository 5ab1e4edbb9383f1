import random

import pytest

from braidact import (
    BraidWord,
    DimensionMismatchError,
    GenusContext,
    IntMatrix,
    braid_automorphism,
    braid_matrix,
    half_twist,
    is_symplectic,
    sl2_matrices,
    standard_form,
    twist_automorphism,
    verify_symplectic_generators,
)
from braidact import cli, symplectic
from braidact.endo import Endomorphism
from braidact.fold import ColumnImages, fold, moved_columns
from braidact.symplectic import (
    _twist_columns,
    fold_matrix,
    random_braid,
    verify_sl2_braid_relation,
    verify_symplectic_random,
)

SEED = 0x51AB


def negated(m):
    return IntMatrix([[-x for x in row] for row in m.rows])


def test_standard_form_properties():
    for g in (1, 2, 3):
        j = standard_form(g)
        assert j.transpose() == negated(j)
        assert j * j == negated(IntMatrix.identity(2 * g))


def test_is_symplectic_examples():
    assert is_symplectic(IntMatrix.identity(4), 2)
    assert not is_symplectic(IntMatrix(((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), 2)
    assert is_symplectic(IntMatrix.identity(0), 0)
    for m, g in ((IntMatrix.identity(3), 1), (IntMatrix.identity(3), 2), (IntMatrix.identity(4), 3)):
        with pytest.raises(DimensionMismatchError, match=f"^expected size {2 * g}, got {m.dim}$"):
            is_symplectic(m, g)
    with pytest.raises(TypeError):
        is_symplectic(IntMatrix.identity(4))


def test_all_twist_matrices_are_symplectic():
    report = verify_symplectic_generators()
    assert report.all_passed()
    assert len(report.checks) == sum(2 * g + 1 for g in (1, 2, 3, 4))


def test_sl2_matrices_and_braid_relation():
    a, b = sl2_matrices()
    assert a == IntMatrix(((1, 1), (0, 1)))
    assert b == IntMatrix(((1, 0), (1, 1)))
    assert a.det() == b.det() == 1
    assert verify_sl2_braid_relation().all_passed()
    binv = b.inverse()
    assert a * binv * a == binv * a * binv
    g1 = GenusContext(1)
    assert braid_matrix(g1, BraidWord(4, (1,))) == a
    assert braid_matrix(g1, BraidWord(4, (2,))) == binv


def test_a_swapped_sl2_pair_stops_verify_symplectic(monkeypatch, capsys):
    """(B, A) is symplectic and satisfies the relation too, but A is
    not the image of s1."""
    a, b = sl2_matrices()
    assert b * a.inverse() * b == a.inverse() * b * a.inverse()
    monkeypatch.setattr(symplectic, "sl2_matrices", lambda: (b, a))
    assert cli.main(["verify", "symplectic"]) == 2
    assert capsys.readouterr().err == "error: matrix 1 is not the image of braid 1 at genus 1\n"


def test_braid_matrix_identity_and_golden_values():
    ctx = GenusContext(2)
    assert braid_matrix(ctx, BraidWord(6, ())) == IntMatrix.identity(4)
    m1 = braid_matrix(ctx, BraidWord(6, (1,)))
    assert m1 == IntMatrix(((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    mdelta = braid_matrix(ctx, half_twist(6))
    assert mdelta == IntMatrix(((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))


def test_braid_matrix_is_a_homomorphism_and_matches_the_action():
    rng = random.Random(SEED)
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        for _ in range(70):
            b1 = random_braid(rng, ctx.strands, rng.randrange(16))
            b2 = random_braid(rng, ctx.strands, rng.randrange(16))
            assert braid_matrix(ctx, b1 * b2) == braid_matrix(ctx, b1) * braid_matrix(ctx, b2)
            assert braid_matrix(ctx, b1.inverse()) == braid_matrix(ctx, b1).inverse()
            # functoriality: abelianizing the action gives the same matrix
            assert braid_matrix(ctx, b1) == braid_automorphism(ctx, b1).abelianization_matrix()


def test_braid_images_land_in_the_symplectic_group():
    rng = random.Random(SEED)
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        for _ in range(70):
            m = braid_matrix(ctx, random_braid(rng, ctx.strands, rng.randrange(41)))
            assert is_symplectic(m, g)
            assert m.det() == 1


def test_random_membership_suite():
    report = verify_symplectic_random(GenusContext(2), count=100, seed=7)
    assert report.all_passed()


def test_genus_one_symplectic_is_determinant_one():
    ctx = GenusContext(1)
    for i in (1, 2, 3):
        m = twist_automorphism(ctx, i).abelianization_matrix()
        assert is_symplectic(m, 1)
        assert m.det() == 1


def test_is_symplectic_matches_the_dense_definition():
    rng = random.Random(SEED)
    for g in range(1, 9):
        ctx = GenusContext(g)
        j = standard_form(g)
        answers = set()
        for _ in range(40):
            m = braid_matrix(ctx, random_braid(rng, ctx.strands, rng.randrange(12)))
            kind = rng.randrange(5)
            if kind == 1:
                # perturb one entry, which leaves Sp_2g(Z)
                rows = [list(row) for row in m.rows]
                rows[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice([1, -1, 2])
                m = IntMatrix(rows)
            elif kind == 2:
                # right-multiply by the transvection I + E_{i,i+g}, which stays in Sp_2g(Z)
                i = rng.randrange(g)
                rows = [[int(r == c) for c in range(2 * g)] for r in range(2 * g)]
                rows[i][i + g] = 1
                m = m * IntMatrix(rows)
            elif kind == 3:
                # right-multiply by diag(I_g, -I_g): M^T J M = -J, and at
                # even g the determinant is still 1
                m = m * IntMatrix(
                    [[(1 if r < g else -1) * int(r == c) for c in range(2 * g)] for r in range(2 * g)]
                )
            elif kind == 4:
                # the transpose of a symplectic matrix is symplectic
                m = m.transpose()
            dense = m.transpose() * j * m == j
            assert is_symplectic(m, g) == dense
            answers.add(dense)
        assert answers == {True, False}


@pytest.mark.parametrize("g", range(1, 9))
def test_braid_matrix_adopts_the_fold_columns_as_exact_ints(g):
    rng = random.Random(SEED + g)
    ctx = GenusContext(g)
    for _ in range(10):
        braid = random_braid(rng, ctx.strands, rng.randrange(30))
        m = braid_matrix(ctx, braid)
        columns = fold(ColumnImages(ctx.rank), _twist_columns(g), braid.letters).columns
        assert m == IntMatrix(zip(*columns))
        assert_exact(m)


@pytest.mark.parametrize("g", range(1, 9))
def test_twist_columns_match_the_dense_twist_matrices(g):
    """The table abelianizes the twist moves; it equals the one read off
    each abelianized twist automorphism and its adjugate inverse."""
    ctx = GenusContext(g)
    dense = {}
    for i in range(1, ctx.strands):
        m = twist_automorphism(ctx, i).abelianization_matrix()
        dense[i] = moved_columns(enumerate(zip(*m.rows)))
        dense[-i] = moved_columns(enumerate(zip(*m.inverse().rows)))
    assert _twist_columns(g) == dense
    assert all(1 <= len(moves) <= 2 for moves in dense.values())


@pytest.mark.parametrize("g", range(1, 9))
def test_each_twist_column_step_is_undone_by_its_inverse(g):
    table, n, count = _twist_columns(g), 2 * g, 2 * g + 1
    assert set(table) == {s * i for i in range(1, count + 1) for s in (1, -1)}
    for i in range(1, count + 1):
        for letters in ((i, -i), (-i, i)):
            assert fold_matrix(table, n, letters) == IntMatrix.identity(n), letters


def test_twist_columns_are_built_without_a_dense_matrix(monkeypatch):
    def dense(*args):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(Endomorphism, "abelianization_matrix", dense)
    monkeypatch.setattr(IntMatrix, "inverse", dense)
    assert _twist_columns.__wrapped__(5) == _twist_columns(5)


def assert_exact(m):
    """m's rows are a tuple of tuples of exact ints that the checking
    constructor accepts unchanged."""
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    assert all(type(x) is int for row in m.rows for x in row)
    assert IntMatrix(m.rows) == m


@pytest.mark.parametrize("g", range(0, 9))
def test_standard_form_is_exact_and_cached(g):
    j = standard_form(g)
    assert j.dim == 2 * g
    assert_exact(j)
    assert standard_form(g) is j
    with pytest.raises(AttributeError):
        j.rows = ((1,),)
    assert standard_form(g).dim == 2 * g


@pytest.mark.parametrize("g", [-1, -3])
def test_standard_form_rejects_a_negative_genus(g):
    with pytest.raises(DimensionMismatchError, match="genus >= 0"):
        standard_form(g)


@pytest.mark.parametrize("g", range(1, 9))
def test_symplectic_results_are_exact(g):
    rng = random.Random(SEED - g)
    ctx = GenusContext(g)
    m = braid_matrix(ctx, random_braid(rng, ctx.strands, 30))
    inverse = m.inverse()
    assert_exact(inverse)
    assert m * inverse == IntMatrix.identity(2 * g)
    for i in range(1, ctx.strands):
        assert_exact(twist_automorphism(ctx, i).abelianization_matrix())


def test_random_suite_over_no_braids_fails():
    report = verify_symplectic_random(GenusContext(2), count=0, seed=7)
    assert [c.passed for c in report.checks] == [False, False]
    assert all(c.witness["left"] == "no braids checked" for c in report.checks)
