"""Genus-2 campaign tests.

Three of the recorded identities are mechanically false (all traceable
to one reversed conjugate in the recorded jump rewriting of the 17th
lifted relator); the suites report them as failures with witnesses, and
the corrected form of the jump is verified as a supplementary check.
These tests pin the exact verdicts either way.
"""

import pytest

from braidact import (
    BraidactError,
    BraidWord,
    GenusContext,
    IntMatrix,
    braid_matrix,
    braids_equal,
    is_symplectic,
    sl2_matrices,
)
from braidact import sp4
from braidact.symplectic import SL2_BRAID_RELATION, column_table, fold_matrix


G2 = GenusContext(2)
I4 = IntMatrix.identity(4)


def test_behr_generators_are_symplectic_and_exact():
    xg = sp4.behr_generators()
    assert xg.x_two_alpha_plus_beta == IntMatrix(
        ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    assert xg.w_beta == IntMatrix(((1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0)))
    for m in xg._asdict().values():
        assert is_symplectic(m, 2)


def test_special_braids():
    assert sp4.DELTA.letters == (1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1)
    assert sp4.ALPHA.letters == (4, 5) * 3
    assert sp4.BETA.letters == (-3, 1, 2, 1, 2, 1, 2, 3)
    assert sp4.GAMMA.letters == (1, -3, 5)


def test_verify_all_is_the_six_suites_in_order():
    parts = (
        sp4.verify_surjectivity_witnesses(),
        sp4.verify_lift_consistency(),
        sp4.verify_gamma_identities(),
        sp4.verify_kernel_generators(),
        sp4.verify_presentation(),
        sp4.verify_gamma17_quotient(),
    )
    report = sp4.verify_all()
    assert report.suite == "sp4"
    assert report.checks == tuple(c for part in parts for c in part.checks)


def test_surjectivity_witnesses_all_pass():
    report = sp4.verify_surjectivity_witnesses()
    assert report.all_passed()
    assert len(report.checks) == 6


def test_lift_table_commutes_with_the_matrix_map():
    report = sp4.verify_lift_consistency()
    assert report.all_passed()
    table = sp4.lift_table()
    assert braid_matrix(G2, table["x_beta"]) == sp4.behr_generators().x_beta
    assert table["w_beta"].letters == (-4, -5, -4)


def test_gamma_identities_all_pass():
    report = sp4.verify_gamma_identities()
    assert report.all_passed(), [c.check_id for c in report.failures()]


def test_gamma10_is_alpha_squared():
    ge = sp4.gamma_elements()
    alpha = BraidWord(6, (4, 5)) ** 3
    assert braids_equal(ge.gamma10, alpha ** 2)


def test_gamma_elements_all_die_in_the_matrix_group():
    ge = sp4.gamma_elements()
    for name in ("gamma1", "gamma2", "gamma7", "gamma10", "gamma13", "gamma14", "gamma17"):
        assert braid_matrix(G2, getattr(ge, name)) == I4, name


def test_half_twist_matrix_is_an_involution_and_flips_crossings():
    m = (None,) + sp4.crossing_matrices()
    md = sp4.half_twist_matrix()
    assert md * md == I4
    for i in range(1, 6):
        assert md * m[i] * md == m[6 - i]


def test_kernel_report_flags_exactly_the_alpha_beta_defect():
    report = sp4.verify_kernel_generators()
    failed = [c.check_id for c in report.failures()]
    assert failed == ["sp4.kernel.matrix.alpha-beta"]
    witness = report.failures()[0].witness
    assert witness is not None and witness["left"] != witness["right"]


def test_alpha_beta_image_is_visibly_not_the_identity():
    m = braid_matrix(G2, sp4.ALPHA * sp4.BETA)
    assert m != I4
    assert is_symplectic(m, 2)
    assert m == IntMatrix(((-1, 0, 0, 2), (0, -1, 2, 0), (0, 0, -1, 0), (0, 0, 0, -1)))


def test_presentation_report_flags_exactly_the_cube_conjugation_defect():
    report = sp4.verify_presentation()
    assert len(report.checks) == 14
    failed = [c.check_id for c in report.failures()]
    assert failed == ["sp4.presentation.cube-conjugation"]


def test_gamma17_jump_as_recorded_fails_but_corrected_form_passes():
    report = sp4.verify_gamma17_quotient()
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["sp4.gamma17.jump"].status == "fail"
    assert by_id["sp4.gamma17.jump-corrected"].status == "pass"
    assert by_id["sp4.gamma17.matrix.self"].status == "quotient-level-pass"
    assert by_id["sp4.gamma17.matrix.post-jump-corrected"].status == "quotient-level-pass"


def test_each_exact_identity_is_one_named_row():
    gamma, gamma17 = sp4.gamma_identities(), sp4.gamma17_identities()
    assert len(gamma) == 21 and len(gamma17) == 3
    names = [name for name, *_ in gamma + gamma17]
    assert len(set(names)) == len(names)
    assert all(name.startswith("sp4.gamma.") for name, *_ in gamma)
    assert all(name.startswith("sp4.gamma17.") for name, *_ in gamma17)
    # Every gamma check but the scope note comes from a row.
    gamma_ids = {c.check_id for c in sp4.verify_gamma_identities().checks}
    assert gamma_ids == {name for name, *_ in gamma} | {"sp4.gamma.trivial-lifts-scope-note"}
    matrix_ids = [c.check_id for c in sp4.verify_all().checks if ".matrix." in c.check_id]
    assert len(matrix_ids) == len(set(matrix_ids)) == 4 + 11


def test_gamma17_jump_witness_spells_both_braids():
    by_id = {c.check_id: c for c in sp4.verify_gamma17_quotient().checks}
    assert by_id["sp4.gamma17.jump"].witness == {
        "left": str(sp4.gamma_elements().gamma17),
        "right": str(sp4._gamma17_chain_words()["post-jump"]),
    }


def test_alpha_square_action_matches_the_recorded_automorphism():
    act = sp4.alpha_square_action()
    assert act.fixes(1) and act.fixes(3)
    assert not act.is_identity()
    report = sp4.verify_kernel_generators()
    by_id = {c.check_id: c.status for c in report.checks}
    assert by_id["sp4.kernel.alpha-square-image-a2"] == "pass"
    assert by_id["sp4.kernel.alpha-square-image-b2"] == "pass"
    assert by_id["sp4.kernel.alpha-square-non-inner"] == "pass"
    assert by_id["sp4.kernel.full-twist-acts-trivially"] == "pass"


def dense_product(matrices, word):
    """Left-to-right product of the matrices a word names, inverting
    negative letters through the adjugate."""
    out = IntMatrix.identity(matrices[0].dim)
    for x in word:
        m = matrices[abs(x) - 1]
        out = out * (m if x > 0 else m.inverse())
    return out


def test_folded_words_equal_the_dense_golden_products():
    golden = sp4.crossing_matrices() + (sp4.half_twist_matrix(),)
    xg = sp4.behr_generators()._asdict()
    for name, (_, word) in sp4.BEHR_WORDS.items():
        assert sp4.golden_product(word) == dense_product(golden, word) == xg[name], name
    relations = sp4.presentation_relations()
    checks = sp4.verify_presentation().checks
    assert len(relations) == len(checks) == 14
    for (name, _, left, right), check in zip(relations, checks):
        assert max(map(abs, left + right)) <= 5, name
        dense_left, dense_right = dense_product(golden, left), dense_product(golden, right)
        assert sp4.golden_product(left) == dense_left, name
        assert sp4.golden_product(right) == dense_right, name
        assert check.check_id == f"sp4.presentation.{name}"
        if check.status == "fail":
            assert check.witness == {"left": str(dense_left), "right": str(dense_right)}
    a, b = sl2_matrices()
    left, right = SL2_BRAID_RELATION
    sl2_table = column_table((a, b))
    assert fold_matrix(sl2_table, 2, left) == dense_product((a, b), left) == a * b.inverse() * a
    assert fold_matrix(sl2_table, 2, right) == dense_product((a, b), right) == b.inverse() * a * b.inverse()


def test_each_witness_and_its_lift_read_the_same_word():
    lifts = sp4.lift_table()
    assert list(lifts) == list(sp4.BEHR_WORDS) == list(sp4.BehrGenerators._fields)
    delta = sp4.DELTA.letters
    for name, (_, word) in sp4.BEHR_WORDS.items():
        expanded = []
        for x in word:
            expanded.extend(delta if x == 6 else (x,))
        assert lifts[name] == BraidWord(6, expanded), name
        assert braid_matrix(G2, lifts[name]) == sp4.golden_product(word), name
    assert sp4.X_ALPHA.letters == sp4.BEHR_WORDS["x_alpha"][1]


def test_golden_table_rejects_a_non_symplectic_matrix():
    crossings = sp4.crossing_matrices()
    assert sp4.golden_columns(crossings)
    doubled = IntMatrix(((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert not is_symplectic(doubled, 2)
    with pytest.raises(BraidactError, match="golden matrix 3 is not symplectic"):
        sp4.golden_columns(crossings[:2] + (doubled,))


def test_constant_braid_tables_are_built_once_and_read_only():
    assert sp4.gamma_elements() is sp4.gamma_elements()
    chain = sp4._gamma17_chain_words()
    assert chain is sp4._gamma17_chain_words()
    with pytest.raises(TypeError):
        chain["post-jump"] = chain["derived"]
