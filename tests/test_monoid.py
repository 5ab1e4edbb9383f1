import itertools
import random

import pytest

from braidact import GenusContext, IntMatrix, MalformedWordError, WordSyntaxError, twist_automorphism
from braidact import cli, endo, monoid, symplectic
from braidact.action import twist_table
from braidact.errors import BraidactError, ResourceLimitError
from braidact.monoid import OmegaWord, format_omega, omega_normal_form, parse_omega


def test_positivity_of_individual_twists():
    ctx = GenusContext(2)
    assert monoid.preserves_positive_monoid(twist_automorphism(ctx, 1))
    assert monoid.preserves_positive_monoid(twist_automorphism(ctx, 2).inverse())
    assert not monoid.preserves_positive_monoid(twist_automorphism(ctx, 3))
    assert not monoid.preserves_positive_monoid(twist_automorphism(ctx, 3).inverse())
    assert monoid.preserves_positive_monoid(twist_automorphism(ctx, 5))


def test_alphabet_report_at_small_genera():
    for g, expected_checks in ((1, 6), (2, 10), (3, 14)):
        report = monoid.check_omega_alphabet(GenusContext(g))
        assert report.all_passed(), [c.check_id for c in report.failures()]
        assert len(report.checks) == expected_checks


def test_alphabet_report_formats_only_the_failing_map(monkeypatch):
    moves = twist_table(2).moves
    monkeypatch.setitem(moves, 1, moves[3])  # t_1 now acts as t_3, which is not positive
    formatted = []
    format_endomorphism = endo.format_endomorphism
    monkeypatch.setattr(
        endo, "format_endomorphism", lambda e: formatted.append(e) or format_endomorphism(e)
    )
    (failure,) = monoid.check_omega_alphabet(GenusContext(2)).failures()
    assert failure.check_id == "monoid.g2.positivity.twist-1-forward"
    assert failure.witness == {
        "left": "a1 -> a1\na2 -> a2\nb1 -> b1 a1 A2\nb2 -> a2 A1 b2",
        "right": "",
    }
    assert len(formatted) == 1  # the nine passing rows format nothing


def test_omega_alphabet_letters():
    assert monoid.omega_alphabet(2) == (1, 5, -2, -4)
    assert monoid.omega_alphabet(3) == (1, 7, -2, -4, -6)
    with pytest.raises(MalformedWordError):
        OmegaWord(2, (3,))
    for _ in range(2):  # the per-genus letter set must not cache the error away
        with pytest.raises(MalformedWordError, match="genus must be >= 1"):
            OmegaWord(0, ())
        with pytest.raises(MalformedWordError, match="genus must be >= 1"):
            parse_omega("u1", 0)


def test_parse_and_format_omega():
    w = parse_omega("u1 U2 u5", 2)
    assert w.letters == (1, -2, 5)
    assert format_omega(w) == "u1 U2 u5"
    with pytest.raises(WordSyntaxError):
        parse_omega("u3", 2)  # interior odd twist is not in the alphabet
    with pytest.raises(WordSyntaxError):
        parse_omega("w1", 2)


def test_normal_form_examples():
    # all three letters commute pairwise: one letter per block
    form = omega_normal_form(OmegaWord(3, (7, -4, 1)))
    assert type(form) is OmegaWord
    assert form == OmegaWord(3, (1, -4, 7))

    form = omega_normal_form(OmegaWord(2, (5, 1)))
    assert form.letters == (1, 5)

    # one block: the order within it is kept
    form = omega_normal_form(OmegaWord(2, (1, -2, 1)))
    assert form.letters == (1, -2, 1)

    # blocks 0, 2 and 3 at genus 3, each keeping its input order
    form = omega_normal_form(OmegaWord(3, (-6, -4, 1, 7, -2, -4, 1)))
    assert form.letters == (1, -2, 1, -4, -4, -6, 7)


def test_normal_form_requires_genus_two():
    with pytest.raises(MalformedWordError):
        omega_normal_form(OmegaWord(1, (1,)))


def test_normal_form_preserves_the_automorphism_exhaustively():
    for g in (2, 3):
        report = monoid.verify_normal_form_sweep(GenusContext(g), 3)
        assert report.all_passed()


def test_normal_form_uniqueness_at_genus_two():
    """Words agree under the action iff they have the same normal form
    (exhaustively to length 4)."""
    by_form = {}
    by_auto = {}
    for letters in monoid.omega_words(2, 4):
        word = OmegaWord(2, letters)
        key = omega_normal_form(word).letters
        images = tuple(image.letters for image in word.automorphism().images)
        if key in by_form:
            assert by_form[key] == images
        by_form[key] = images
        if images in by_auto:
            assert by_auto[images] == key
        by_auto[images] = key
    assert len(by_form) == len(by_auto)


def test_positivity_is_closed_under_composition():
    ctx = GenusContext(2)
    for combo in itertools.product(monoid.omega_alphabet(2), repeat=3):
        e = OmegaWord(2, combo).automorphism()
        assert monoid.preserves_positive_monoid(e)


def test_free_monoid_oracle_counts():
    report = monoid.free_monoid_oracle(10, distinct_len=8)
    assert report.all_passed()
    descriptions = " ".join(c.description for c in report.checks)
    assert "2046" in descriptions
    assert "510" in descriptions


def test_oracle_product_matches_the_matrix_product():
    rng = random.Random(0x2B2)
    for _ in range(200):
        m, x = (tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(2))
        product = IntMatrix([m[:2], m[2:]]) * IntMatrix([x[:2], x[2:]])
        assert monoid._times(m, x) == product.rows[0] + product.rows[1]


def test_free_monoid_oracle_minimal():
    assert monoid.free_monoid_oracle(1).all_passed()
    with pytest.raises(ValueError):
        monoid.free_monoid_oracle(0)


def test_a_wrong_sl2_pair_stops_verify_monoid(monkeypatch, capsys):
    """A = [[1,2],[0,1]] spans a free monoid with B too, but it is not the
    image of s1, so the oracle refuses it before taking any product."""
    wrong = (IntMatrix(((1, 2), (0, 1))), symplectic.sl2_matrices()[1])
    monkeypatch.setattr(symplectic, "sl2_matrices", lambda: wrong)
    # Patch monoid's name as well, so a direct read there cannot escape.
    monkeypatch.setattr(monoid, "sl2_matrices", lambda: wrong, raising=False)
    assert cli.main(["verify", "monoid", "--genus", "2"]) == 2
    assert capsys.readouterr() == ("", "error: matrix 1 is not the image of braid 1 at genus 1\n")


def test_free_monoid_oracle_over_no_products_fails():
    report = monoid.free_monoid_oracle(3, distinct_len=0)
    no_identity, distinct = report.checks
    assert no_identity.passed
    assert not distinct.passed
    assert distinct.witness["left"] == "no products compared"


def test_section_exhaustive_at_genus_two():
    report = monoid.verify_section(GenusContext(2), 4)
    assert report.all_passed()
    assert "341" in report.checks[0].description


def test_section_single_letters_at_genus_three():
    report = monoid.verify_section(GenusContext(3), 1)
    assert report.all_passed()


def test_ball_images_match_the_word_automorphisms():
    """The prefix-shared fold and runs against a fresh fold and sort of
    every word."""
    for g, max_len in ((2, 5), (3, 4), (4, 3)):
        words = 0
        for letters, images, runs in monoid.omega_ball(g, max_len):
            words += 1
            automorphism = twist_table(g).automorphism(letters)
            assert images == tuple(w.letters for w in automorphism.images), letters
            assert tuple(itertools.chain.from_iterable(runs)) == monoid._normal_letters(g, letters)
        assert words == sum((g + 2) ** n for n in range(max_len + 1))


def test_sweep_builds_no_omega_word(monkeypatch):
    built = []

    def counted(original):
        return lambda *args: built.append(args) or original(*args)

    monkeypatch.setattr(OmegaWord, "_wrap", classmethod(counted(OmegaWord._wrap.__func__)))
    monkeypatch.setattr(OmegaWord, "__init__", counted(OmegaWord.__init__))
    assert OmegaWord(2, (1,)) == parse_omega("u1", 2) and len(built) == 2
    built.clear()
    assert monoid.verify_normal_form_sweep(GenusContext(4), 5).all_passed()
    assert built == []


def test_ball_fold_trips_the_length_cap():
    with pytest.raises(ResourceLimitError):
        list(monoid.omega_ball(2, 3, cap=1))


def test_section_fails_when_two_forms_act_alike(monkeypatch):
    moves = twist_table(2).moves
    monkeypatch.setitem(moves, -4, moves[-2])  # t_4^-1 now acts as t_2^-1
    (check,) = monoid.verify_section(GenusContext(2), 2).checks
    assert check.status == "fail"
    assert "U2 = U4" in check.witness["left"].split("; ")


def test_block_table_rejects_non_commuting_blocks(monkeypatch):
    # t_3^-1 would sit in another block than its neighbour t_2^-1
    monkeypatch.setattr(monoid, "omega_alphabet", lambda g: (1, 7, -2, -3, -6))
    with pytest.raises(BraidactError, match="non-commuting swap"):
        monoid._blocks.__wrapped__(3)


def test_sweeps_over_no_words_fail():
    ctx = GenusContext(2)
    for report in (
        monoid.verify_normal_form_sweep(ctx, -1),
        monoid.verify_section(ctx, -1),
    ):
        (check,) = report.checks
        assert check.status == "fail"
        assert "all 0 words" in check.description
        assert check.witness["left"] == "no words enumerated"
    assert monoid.verify_normal_form_sweep(ctx, 0).all_passed()


def test_generated_omega_words_equal_checked_ones():
    words = list(monoid.omega_words(3, 3))
    assert len(words) == 1 + 5 + 25 + 125
    for letters in words:
        form = omega_normal_form(OmegaWord(3, letters))
        assert type(form) is OmegaWord and form.g == 3
        assert form.letters == monoid._normal_letters(3, letters)
    # The checked constructor still rejects a letter outside the alphabet:
    # test_omega_alphabet_letters pins OmegaWord(2, (3,)).


def sorted_normal_forms(g, max_len):
    """The sweep by sorting every word: ``omega_ball`` builds each
    word's runs from its prefix instead."""
    forms = {}
    total = mismatches = 0
    for letters, images, _ in monoid.omega_ball(g, max_len):
        total += 1
        mismatches += forms.setdefault(monoid._normal_letters(g, letters), images) != images
    return total, mismatches, forms


def in_order(total, mismatches, forms):
    return total, mismatches, list(forms.items())


@pytest.mark.parametrize("g, max_len", [(2, 5), (3, 4), (4, 3)])
def test_normal_forms_match_a_sort_of_every_word(g, max_len):
    expected = in_order(*sorted_normal_forms(g, max_len))
    assert in_order(*monoid._normal_forms(g, max_len)) == expected


def test_normal_forms_match_a_sort_of_every_word_under_a_collision(monkeypatch):
    moves = twist_table(2).moves
    monkeypatch.setitem(moves, -4, moves[-2])  # as in the section's failing case
    expected = in_order(*sorted_normal_forms(2, 4))
    assert expected[1] > 0
    assert in_order(*monoid._normal_forms(2, 4)) == expected


@pytest.mark.parametrize("g, cap", [(2, 3), (3, 4)])
def test_ball_trips_the_cap_on_the_first_word_whose_fold_does(g, cap):
    def trips(letters):
        try:
            twist_table(g).automorphism(letters, cap)
        except ResourceLimitError:
            return True
        return False

    words = list(monoid.omega_words(g, 4))
    first = next(i for i, word in enumerate(words) if trips(word))
    assert len(words[first]) > 1
    yielded = []
    with pytest.raises(ResourceLimitError):
        for letters, _, _ in monoid.omega_ball(g, 4, cap):
            yielded.append(letters)
    assert yielded == words[:first]


def test_ball_rejects_a_non_positive_action(monkeypatch):
    moves = twist_table(2).moves
    monkeypatch.setitem(moves, -4, moves[3])  # the interior odd twist t_3
    with pytest.raises(BraidactError, match="non-positive"):
        list(monoid.omega_ball(2, 2))
