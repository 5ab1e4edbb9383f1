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
from braidact import cli, sp4
from braidact.symplectic import SL2_BRAID_RELATION


G2 = GenusContext(2)
I4 = IntMatrix.identity(4)


def test_behr_generators_are_symplectic_and_exact():
    assert list(sp4.BEHR) == [
        "x_beta", "x_alpha_plus_beta", "x_two_alpha_plus_beta", "x_alpha", "w_alpha", "w_beta",
    ]
    assert sp4.BEHR["x_two_alpha_plus_beta"][2] == IntMatrix(
        ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    assert sp4.BEHR["w_beta"] == (
        "(M4 M5 M4)^-1",
        BraidWord(6, (-4, -5, -4)),
        IntMatrix(((1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0))),
    )
    for _, _, m in sp4.BEHR.values():
        assert is_symplectic(m, 2)


def test_special_braids():
    assert sp4.DELTA.letters == (1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1)
    assert sp4.ALPHA.letters == (4, 5) * 3
    assert sp4.BETA.letters == (-3, 1, 2, 1, 2, 1, 2, 3)
    assert sp4.GAMMA.letters == (1, -3, 5)
    assert sp4.FULL_TWIST.letters == sp4.DELTA.letters * 2
    assert braids_equal(sp4.FULL_TWIST, BraidWord(6, range(1, 6)) ** 6)


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
    assert braid_matrix(G2, sp4.BEHR["x_beta"][1]) == sp4.BEHR["x_beta"][2]
    assert sp4.BEHR["w_beta"][1].letters == (-4, -5, -4)


def test_gamma_identities_all_pass():
    report = sp4.verify_gamma_identities()
    assert report.all_passed(), [c.check_id for c in report.failures()]


def test_gamma10_is_alpha_squared():
    ge = sp4.gamma_elements()
    alpha = BraidWord(6, (4, 5)) ** 3
    assert braids_equal(ge["gamma10"], alpha ** 2)


def test_gamma_elements_all_die_in_the_matrix_group():
    ge = sp4.gamma_elements()
    assert list(ge) == ["gamma1", "gamma2", "gamma7", "gamma10", "gamma13", "gamma14", "gamma17"]
    for name, braid in ge.items():
        assert braid_matrix(G2, braid) == I4, name


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
        "left": str(sp4.gamma_elements()["gamma17"]),
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
    golden = sp4.crossing_matrices()
    for name, (_, braid, matrix) in sp4.BEHR.items():
        assert braid_matrix(G2, braid) == dense_product(golden, braid.letters) == matrix, name
    relations = sp4.presentation_relations()
    checks = sp4.verify_presentation().checks
    assert len(relations) == len(checks) == 14
    for (name, _, left, right), check in zip(relations, checks):
        assert max(map(abs, left.letters + right.letters)) <= 5, name
        dense_left = dense_product(golden, left.letters)
        dense_right = dense_product(golden, right.letters)
        assert braid_matrix(G2, left) == dense_left, name
        assert braid_matrix(G2, right) == dense_right, name
        assert check.check_id == f"sp4.presentation.{name}"
        if check.status == "fail":
            assert check.witness == {"left": str(dense_left), "right": str(dense_right)}
    # Over the genus-1 twists, letter 1 is A and letter 2 is B^-1.
    a, b = sl2_matrices()
    twists = (a, b.inverse())
    g1 = GenusContext(1)
    left, right = SL2_BRAID_RELATION
    assert braid_matrix(g1, BraidWord(4, left)) == dense_product(twists, left) == a * b.inverse() * a
    assert (
        braid_matrix(g1, BraidWord(4, right)) == dense_product(twists, right)
        == b.inverse() * a * b.inverse()
    )


def test_the_half_twist_witness_and_x_alpha_read_behrs_braids():
    assert sp4.BEHR["w_alpha"][1] == sp4.ALPHA * sp4.DELTA
    assert sp4.X_ALPHA is sp4.BEHR["x_alpha"][1]


def test_every_sp4_table_holds_six_strand_braids():
    braids = [braid for _, braid, _ in sp4.BEHR.values()]
    for rows in (sp4.presentation_relations(), sp4.gamma_identities(), sp4.gamma17_identities()):
        braids += [side for _, _, left, right in rows for side in (left, right)]
    braids += [*sp4.gamma_elements().values(), *sp4._gamma17_chain_words().values()]
    assert len(braids) == 6 + 2 * (14 + 21 + 3) + 7 + 9
    for braid in braids:
        assert type(braid) is BraidWord and braid.strands == 6, braid


def test_a_golden_matrix_that_is_not_its_braids_image_stops_verify_sp4(monkeypatch, capsys):
    golden = sp4.crossing_matrices()
    m2_inverse = golden[1].inverse()
    doubled = IntMatrix(((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert is_symplectic(m2_inverse, 2) and not is_symplectic(doubled, 2)
    for i, bad in ((2, m2_inverse), (3, doubled)):
        recorded = golden[:i - 1] + (bad,) + golden[i:]
        monkeypatch.setattr(sp4, "crossing_matrices", lambda recorded=recorded: recorded)
        assert cli.main(["verify", "sp4"]) == 2
        message = f"error: matrix {i} is not the image of braid {i} at genus 2\n"
        assert capsys.readouterr() == ("", message)
        for suite in (sp4.verify_presentation, sp4.verify_surjectivity_witnesses):
            with pytest.raises(BraidactError, match=f"^matrix {i} is not the image"):
                suite()


def test_a_wrong_golden_matrix_stops_verify_sp4_after_a_clean_run(monkeypatch, capsys):
    """The golden matrices are checked on every run, not once per process."""
    assert cli.main(["verify", "sp4"]) == 1
    capsys.readouterr()
    golden = sp4.crossing_matrices()
    recorded = golden[:1] + (golden[1].inverse(),) + golden[2:]
    monkeypatch.setattr(sp4, "crossing_matrices", lambda: recorded)
    assert cli.main(["verify", "sp4"]) == 2
    assert capsys.readouterr() == ("", "error: matrix 2 is not the image of braid 2 at genus 2\n")


def test_constant_braid_tables_are_built_once_and_read_only():
    ge = sp4.gamma_elements()
    assert ge is sp4.gamma_elements()
    chain = sp4._gamma17_chain_words()
    assert chain is sp4._gamma17_chain_words()
    with pytest.raises(TypeError):
        chain["post-jump"] = chain["derived"]
    with pytest.raises(TypeError):
        ge["gamma1"] = ge["gamma2"]
    with pytest.raises(TypeError):
        sp4.BEHR["x_beta"] = sp4.BEHR["w_beta"]
