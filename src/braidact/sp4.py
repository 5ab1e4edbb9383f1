"""The genus-2 campaign: a braid-type presentation of Sp_4(Z).

At genus 2 the abelianized braid action maps the 6-strand braid group
onto Sp_4(Z).  Surjectivity is witnessed by expressing the six
generators of Behr's classical presentation of Sp_4(Z) as explicit words
in the images of the crossings.  Walking Behr's relations through those
witness lifts produces seven braids in the kernel; a recorded chain of
braid-word identities and, in two places, congruences modulo a normal
closure reduces them to a four-element normal generating set.
Everything exactly checkable is decided by the Artin-action word
problem; congruence steps are verified in the quotient (abelianized
image = identity matrix) and flagged as quotient-level.

The suites re-derive this chain mechanically, and three recorded items
fail: the block conjugated by the half twist in the rewriting of the
17th lifted relator appears reversed, which invalidates the recorded
reduction of that relator to alpha*beta (whose abelianized image is
visibly not the identity) and, equivalently, one relation of the
recorded 14-relation presentation.  The corrected conjugate verifies as
a supplementary check.  What stands verified: the kernel is normally
generated by Delta^2, alpha^2, (alpha gamma)^2 and the 17th lifted
relator.

Every identity is a row of a table, and each oracle has one evaluator.
``gamma_identities`` (21 rows) and ``gamma17_identities`` (3 rows) hold
the exact braid identities as (name, description, left, right), decided
by ``braids_equal``.  The braids that must die in Sp_4(Z) are (name,
description, braid) rows of the kernel and gamma17 suites, decided by
their abelianized image being the identity matrix; a gamma17 death
passes only at quotient level (``QUOTIENT_PASS``).  Each suite turns its
tables into check rows and hands them to ``report.run_checks``, which
applies the pass and witness rules.  Matrix words go
through the one fold of ``symplectic``: the golden matrices (M1..M5 of
the crossings, MDelta of the half twist), checked symplectic once, form
one fold table.  ``BEHR`` holds each Behr generator as one row (its
spelling, its word over that table, its matrix), ``presentation_relations``
the 14 relations as word pairs over it: the ten of
``braids.artin_relations(6)`` and four extra ones.  ``gamma_elements``
maps the seven lifted relators, gamma1 to gamma17, by name to braids.

Braid-word conventions here: Delta is the positive half twist of the
6-strand group and ``FULL_TWIST`` = Delta^2, alpha = (s4 s5)^3,
beta = s3^-1 (s1 s2)^3 s3, and gamma = s1 s3^-1 s5.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .action import GenusContext, braid_automorphism
from .braids import NAMED_B6, BraidWord, artin_relations, braids_equal
from .endo import Automorphism, Endomorphism
from .matrices import IntMatrix
from .report import PASS, QUOTIENT_PASS, VerificationReport, equal, merge_reports, run_checks
from .symplectic import braid_matrix, column_table, fold_matrix, is_symplectic
from .words import FreeWord, parse_word

G2 = GenusContext(2)


def _b6(*letters: int) -> BraidWord:
    return BraidWord(6, letters)


# The recurring 6-strand words, each spelled once.  BraidWord is
# immutable, so sharing them is safe.
DELTA = BraidWord(6, NAMED_B6["DELTA6"])
ALPHA = BraidWord(6, NAMED_B6["ALPHA"])
BETA = BraidWord(6, NAMED_B6["BETA"])
GAMMA = BraidWord(6, NAMED_B6["GAMMA"])
FULL_TWIST = DELTA ** 2

# Behr's generators, one row each: name -> (spelling, word, matrix), the
# word over the golden letters (1-5 are M1..M5, 6 is MDelta).  The
# witnesses fold it over the golden matrices; the lifts read it as a
# braid, with letter 6 expanded to DELTA.
HALF_TWIST_LETTER = 6
BEHR: Mapping[str, tuple[str, tuple[int, ...], IntMatrix]] = MappingProxyType({
    "x_beta": (
        "M5", (5,), IntMatrix(((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))),
    ),
    "x_alpha_plus_beta": (
        "M1 M3^-1 M5", NAMED_B6["GAMMA"],
        IntMatrix(((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ),
    "x_two_alpha_plus_beta": (
        "M1", (1,), IntMatrix(((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ),
    "x_alpha": (
        "M5^-1 M4^-1 M1^-1 M3 M5^-1 M4 M5", (-5, -4, -1, 3, -5, 4, 5),
        IntMatrix(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1))),
    ),
    "w_alpha": (
        "(M4 M5)^3 MDelta", NAMED_B6["ALPHA"] + (HALF_TWIST_LETTER,),
        IntMatrix(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))),
    ),
    "w_beta": (
        "(M4 M5 M4)^-1", (-4, -5, -4),
        IntMatrix(((1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0))),
    ),
})

X_ALPHA = BraidWord(6, BEHR["x_alpha"][1])
CORE454 = _b6(4, 5, 4)
# Conjugates gamma' in the w-jump of the 17th lifted relator.
W_JUMP_CONJUGATOR = _b6(1, 2, 1, -3, -2, -4)
GAMMA_PRIME = ALPHA * _b6(-3) * _b6(1, 2, 5, 4, 5) * ALPHA * GAMMA * _b6(3, 4, 5, 2, 1, 2) * _b6(3)
# The closed form the chain rewrites gamma' into.
GAMMA_PRIME_CLOSED = ALPHA * _b6(-3) * _b6(1, 2) * ALPHA ** 2 * _b6(1, 2) ** 2 * _b6(3)


def crossing_matrices() -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """The golden images M_1..M_5 of the five crossings at genus 2."""
    return (
        IntMatrix(((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
        IntMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 1, 0), (0, 0, 0, 1))),
        IntMatrix(((1, 0, 1, -1), (0, 1, -1, 1), (0, 0, 1, 0), (0, 0, 0, 1))),
        IntMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -1, 0, 1))),
        IntMatrix(((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))),
    )


def half_twist_matrix() -> IntMatrix:
    """The golden image of the half twist at genus 2."""
    return IntMatrix(((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))


@lru_cache(maxsize=None)
def _golden_table() -> dict:
    return column_table(crossing_matrices() + (half_twist_matrix(),))


def golden_product(letters: Sequence[int]) -> IntMatrix:
    """A word over the golden letters, folded over the golden matrices."""
    return fold_matrix(_golden_table(), 4, letters)


def lift_table() -> dict[str, BraidWord]:
    """Braid lifts of Behr's generators (abelianizing a lift recovers its matrix)."""
    expand = {HALF_TWIST_LETTER: DELTA.letters}
    return {
        name: BraidWord(6, tuple(y for x in word for y in expand.get(x, (x,))))
        for name, (_, word, _) in BEHR.items()
    }


@lru_cache(maxsize=None)
def gamma_elements() -> Mapping[str, BraidWord]:
    """The seven lifted relators by name, each in its recorded word form,
    built once as a read-only mapping."""
    gamma_shifted = GAMMA.conjugated_by(_b6(-5, -4))
    # s1^-1 s3 s5^-1: gamma^-1 with its commuting letters in another order.
    gamma_inv_commuted = _b6(-1, 3, -5)
    return MappingProxyType({
        "gamma1": _b6(-1) * GAMMA.inverse() * X_ALPHA * _b6(5) * gamma_shifted * _b6(-5),
        "gamma2": _b6(-1, -1) * X_ALPHA * GAMMA * gamma_shifted * gamma_inv_commuted,
        "gamma7": ALPHA * DELTA * CORE454 ** -2 * ALPHA * DELTA * CORE454 ** 2,
        "gamma10": CORE454 ** 4,
        "gamma13": ALPHA * DELTA * GAMMA * DELTA.inverse() * ALPHA.inverse() * GAMMA,
        "gamma14": X_ALPHA * CORE454 * gamma_inv_commuted * CORE454.inverse(),
        "gamma17": (
            ALPHA * DELTA * X_ALPHA * DELTA.inverse() * ALPHA.inverse()
            * X_ALPHA
            * ALPHA * DELTA * X_ALPHA
        ),
    })


def verify_surjectivity_witnesses() -> VerificationReport:
    """Behr's six generators as words in the crossing matrices."""
    return run_checks("sp4-surjectivity", (
        (f"sp4.witness.{name}", f"{name} = {spelling}", *equal(matrix, golden_product(word)))
        for name, (spelling, word, matrix) in BEHR.items()
    ))


def verify_lift_consistency() -> VerificationReport:
    """Each Behr generator equals the abelianized image of its braid lift."""
    rows = []
    for name, braid in lift_table().items():
        matrix = BEHR[name][2]
        rows.append((f"sp4.lift.{name}", f"abelianized lift of {name} reproduces the matrix",
                     *equal(braid_matrix(G2, braid), matrix)))
        rows.append((f"sp4.lift.{name}.symplectic", f"{name} satisfies M^T J M = J",
                     is_symplectic(matrix, 2), matrix))
    return run_checks("sp4-lifts", rows)


def _identity_rows(rows: Sequence[tuple[str, str, BraidWord, BraidWord]]) -> list[tuple]:
    """Each (name, description, left, right) row, decided exactly by ``braids_equal``."""
    return [
        (name, description, braids_equal(left, right), left, right)
        for name, description, left, right in rows
    ]


def _death_rows(rows: Sequence[tuple[str, str, BraidWord]], status: str) -> list[tuple]:
    """Each (name, description, braid) row: the braid abelianizes to the
    identity, a pass reported with ``status``."""
    identity4 = IntMatrix.identity(4)
    return [
        (name, description, *equal(braid_matrix(G2, braid), identity4), status)
        for name, description, braid in rows
    ]


def gamma_identities() -> tuple[tuple[str, str, BraidWord, BraidWord], ...]:
    """The exact braid-word identities used to reduce the lifted relators,
    as (name, description, left, right)."""
    ge = gamma_elements()
    # The chain rewriting gamma' into alpha beta: the two block identities
    # and the resulting closed form.
    middle_left = _b6(1, 2, 5, 4, 5) * ALPHA * _b6(5) * _b6(1, -3) * _b6(3, 4, 5, 2, 1, 2)
    middle_right = _b6(1, 2) * (_b6(5, 4, 5) * ALPHA * _b6(5, 4, 5)) * _b6(1, 2) ** 2
    return (
        ("sp4.gamma.1-conjugate-2", "gamma1 = s3 gamma2 s3^-1",
         ge["gamma1"], ge["gamma2"].conjugated_by(_b6(3))),
        ("sp4.gamma.7-pre-commute",
         "gamma7: (s4 s5)^3 Delta (s4s5s4)^2 commutes into (s4s5s4)^2 Delta (s4 s5)^3",
         ge["gamma7"], ALPHA * DELTA * CORE454 ** -2 * CORE454 ** 2 * DELTA * ALPHA),
        ("sp4.gamma.7-central-form", "gamma7 = (s4 s5)^6 Delta^2",
         ge["gamma7"], ALPHA ** 2 * FULL_TWIST),
        ("sp4.gamma.10-power-identity", "(s4 s5 s4)^4 = (s4 s5)^6", ge["gamma10"], ALPHA ** 2),
        ("sp4.gamma.13-delta-free-form", "gamma13 = (s4 s5)^3 gamma (s4 s5)^-3 gamma",
         ge["gamma13"], ALPHA * GAMMA * ALPHA.inverse() * GAMMA),
        ("sp4.gamma.13-inverse-of-2", "gamma13 = gamma2^-1", ge["gamma13"], ge["gamma2"].inverse()),
        ("sp4.gamma.14-equals-2", "gamma14 = gamma2", ge["gamma14"], ge["gamma2"]),
        ("sp4.gamma.w-jump",
         "alpha^-1 s2^-1 s1^-1 Delta = s3 s4 s5 s2 s1 s2 s3 (s1 s2 s1 s3^-1 s2^-1 s4^-1)^-1",
         ALPHA.inverse() * _b6(-2, -1) * DELTA,
         _b6(3, 4, 5, 2, 1, 2, 3) * W_JUMP_CONJUGATOR.inverse()),
        *(
            (f"sp4.gamma.half-twist-flip-{i}", f"Delta s{i} = s{6 - i} Delta",
             DELTA * _b6(i), _b6(6 - i) * DELTA)
            for i in range(1, 6)
        ),
        *(
            (f"sp4.gamma.full-twist-central-{i}", f"Delta^2 commutes with s{i}",
             FULL_TWIST * _b6(i), _b6(i) * FULL_TWIST)
            for i in range(1, 6)
        ),
        ("sp4.gamma.prime-block",
         "s1 s2 s5 s4 s5 alpha s5 s1 s3^-1 s3 s4 s5 s2 s1 s2 = (s1 s2)(s5 s4 s5 alpha s5 s4 s5)(s1 s2)^2",
         middle_left, middle_right),
        ("sp4.gamma.prime-alpha-square", "s5 s4 s5 alpha s5 s4 s5 = alpha^2",
         _b6(5, 4, 5) * ALPHA * _b6(5, 4, 5), ALPHA ** 2),
        ("sp4.gamma.prime-closed-form", "gamma' = alpha s3^-1 (s1 s2) alpha^2 (s1 s2)^2 s3",
         GAMMA_PRIME, GAMMA_PRIME_CLOSED),
    )


def verify_gamma_identities() -> VerificationReport:
    """The rows of ``gamma_identities``, all decided exactly by the
    Artin-action word problem, and the scope note on the other lifts."""
    return run_checks("sp4-gamma-identities", _identity_rows(gamma_identities()) + [(
        "sp4.gamma.trivial-lifts-scope-note",
        "the other eleven lifted relators reduce to the trivial braid;"
        " their source words are not recorded here, so they are out of"
        " scope for re-derivation",
        True,
    )])


def alpha_square_action() -> Automorphism:
    """The free-group automorphism carried by (s4 s5)^6."""
    return braid_automorphism(G2, ALPHA ** 2)


def _alpha_square_reference_images() -> dict[str, FreeWord]:
    """Reference images of a2 and b2 under the alpha^2 action.

    a2 -> (a2^-1 b2 a2 b2^-1) a2 (a2^-1 b2 a2 b2^-1)^-1
    b2 -> (a2^-1 b2 a2) b2 (a2^-1 b2 a2)^-1
    """
    conjugators = {"a2": parse_word("A2 b2 a2 B2", 4), "b2": parse_word("A2 b2 a2", 4)}
    return {x: c * parse_word(x, 4) * c.inverse() for x, c in conjugators.items()}


def verify_kernel_generators() -> VerificationReport:
    """The four normal generators of the kernel, and what survives in Aut(F_4).

    All four abelianize to the identity matrix.  The full twist already
    acts trivially on F_4; the alpha^2 braid acts by a recorded
    non-trivial automorphism that fixes a1 and b1, which certifies it is
    not inner: a conjugating element would have to centralize both a1
    and b1, and only the trivial element does.
    """
    kernel_words = {
        "full-twist": FULL_TWIST,
        "alpha-square": ALPHA ** 2,
        "alpha-beta": ALPHA * BETA,
        "alpha-gamma-square": (ALPHA * GAMMA) ** 2,
    }
    deaths = [
        (f"sp4.kernel.matrix.{name}", f"abelianized image of {name} is the identity matrix", braid)
        for name, braid in kernel_words.items()
    ]
    full_twist_action = braid_automorphism(G2, kernel_words["full-twist"])
    act = alpha_square_action()
    reference = _alpha_square_reference_images()
    return run_checks("sp4-kernel", _death_rows(deaths, PASS) + [
        ("sp4.kernel.full-twist-acts-trivially", "the full twist acts as the identity on F_4",
         *equal(full_twist_action, Endomorphism.identity(4))),
        ("sp4.kernel.alpha-square-fixes-a1", "the alpha^2 action fixes a1",
         act.fixes(1), act.images[0]),
        ("sp4.kernel.alpha-square-fixes-b1", "the alpha^2 action fixes b1",
         act.fixes(3), act.images[2]),
        ("sp4.kernel.alpha-square-image-a2", "alpha^2 action on a2 matches the recorded conjugate",
         *equal(act.images[1], reference["a2"])),
        ("sp4.kernel.alpha-square-image-b2", "alpha^2 action on b2 matches the recorded conjugate",
         *equal(act.images[3], reference["b2"])),
        ("sp4.kernel.alpha-square-nontrivial", "the alpha^2 action is not the identity",
         not act.is_identity()),
        ("sp4.kernel.alpha-square-non-inner",
         "fixing a1 and b1 while acting non-trivially certifies a"
         " non-inner automorphism (the centralizer of {a1, b1} is trivial)",
         act.fixes(1) and act.fixes(3) and not act.is_identity()),
    ])


def presentation_relations() -> tuple[tuple[str, str, tuple[int, ...], tuple[int, ...]], ...]:
    """The 14 relations as (name, description, left word, right word).

    Ten braid relations among the crossings plus the four extra
    relations: the squared half twist, (M4 M5)^6, the conjugated cube
    identity, and the twisted inversion of M1 M3^-1 M5.
    """
    alpha, gamma = ALPHA.letters, GAMMA.letters
    return artin_relations(6, "M") + (
        (
            "half-twist-squared",
            "the 15-crossing half-twist word squares to the identity matrix",
            FULL_TWIST.letters,
            (),
        ),
        ("alpha-order", "(M4 M5)^6 = I", alpha * 2, ()),
        ("cube-conjugation", "(M1 M2)^3 = M3 (M4 M5)^3 M3^-1", (1, 2) * 3, (3, *alpha, -3)),
        (
            "gamma-inversion",
            "(M1 M3^-1 M5)^-1 = (M4 M5)^3 (M1 M3^-1 M5) (M4 M5)^-3",
            GAMMA.inverse().letters,
            alpha + gamma + ALPHA.inverse().letters,
        ),
    )


def verify_presentation() -> VerificationReport:
    """All 14 relations of the braid-type presentation of Sp_4(Z)."""
    return run_checks("sp4-presentation", (
        (f"sp4.presentation.{name}", description, *equal(golden_product(left), golden_product(right)))
        for name, description, left, right in presentation_relations()
    ))


@lru_cache(maxsize=None)
def _gamma17_chain_words() -> Mapping[str, BraidWord]:
    """Every recorded stage of the reduction of the 17th lifted relator,
    built once as a read-only mapping.

    The jump and derived entries are recorded as exact rewritings (the
    corrected-jump twin replaces the reversed conjugate); the lettered
    stages are only congruent to the relator modulo the normal closure
    of the kernel generators, so they are checked in the quotient.
    """
    gamma_inv = GAMMA.inverse()
    jump_block = _b6(1, 2, -1, 3, -5, -2, -1)
    # The conjugate the half twist actually produces (indices flipped in
    # place); the recorded jump_block above is its reversal.
    jump_block_flipped = _b6(-1, -2, -5, 3, -1, 2, 1)
    return MappingProxyType({
        "post-jump": (
            ALPHA * jump_block * ALPHA.inverse() * X_ALPHA * ALPHA * jump_block * DELTA
        ),
        "post-jump-corrected": (
            ALPHA * jump_block_flipped * ALPHA.inverse() * X_ALPHA
            * ALPHA * jump_block_flipped * DELTA
        ),
        "derived": (
            _b6(1, 2) * ALPHA * gamma_inv * _b6(-2, -1)
            * ALPHA.inverse() * _b6(-5, -4) * gamma_inv * _b6(4, 5)
            * ALPHA * _b6(1, 2) * gamma_inv * _b6(-2, -1) * DELTA
        ),
        "stage-a": (
            _b6(1, 2) * ALPHA ** 2 * GAMMA * ALPHA * _b6(-2, -1)
            * ALPHA.inverse() * _b6(-5, -4) * ALPHA * GAMMA * ALPHA * _b6(4, 5)
            * ALPHA * _b6(1, 2) * ALPHA * GAMMA * ALPHA.inverse() * ALPHA ** 2
            * _b6(-2, -1) * DELTA
        ),
        "stage-b": (
            _b6(1, 2, 1, -3, -2, -1) * _b6(5, -5, -4)
            * ALPHA * GAMMA * _b6(4, 5)
            * _b6(1, 2) * ALPHA * GAMMA * ALPHA.inverse() * _b6(-2, -1) * DELTA
        ),
        "stage-c": (
            _b6(1, 2, 1, -3, -2, -1, -4)
            * ALPHA * GAMMA * _b6(4, 5)
            * _b6(1, 2) * ALPHA * GAMMA * ALPHA.inverse() * _b6(-2, -1) * DELTA
        ),
        "stage-d": (
            W_JUMP_CONJUGATOR
            * ALPHA * _b6(-3) * _b6(1, 2, 5, 4, 5) * ALPHA * GAMMA
            * (ALPHA.inverse() * _b6(-2, -1) * DELTA)
        ),
        "gamma-prime": GAMMA_PRIME,
        "conjugated-closed-form": GAMMA_PRIME_CLOSED.conjugated_by(W_JUMP_CONJUGATOR),
    })


def gamma17_identities() -> tuple[tuple[str, str, BraidWord, BraidWord], ...]:
    """The exact rewritings of the 17th lifted relator, as (name,
    description, left, right)."""
    gamma17 = gamma_elements()["gamma17"]
    chain = _gamma17_chain_words()
    return (
        ("sp4.gamma17.jump", "pre-jump and post-jump forms of the 17th lifted relator agree",
         gamma17, chain["post-jump"]),
        ("sp4.gamma17.jump-corrected",
         "supplementary: the jump with the un-reversed conjugated block"
         " (half-twist conjugation flips indices without reversing the word)",
         gamma17, chain["post-jump-corrected"]),
        ("sp4.gamma17.derived-form", "the regrouped form of the 17th lifted relator agrees exactly",
         gamma17, chain["derived"]),
    )


def verify_gamma17_quotient() -> VerificationReport:
    """Check the recorded reduction of the 17th lifted relator to alpha beta.

    The rows of ``gamma17_identities`` are exact braid equalities; every
    other recorded stage of the chain, plus alpha beta itself, is
    checked to die in Sp_4(Z), the necessary condition a quotient can
    see.  As recorded the chain fails (reversed conjugate, see the
    module docstring); the corrected jump is verified alongside.
    """
    dying = {
        "self": ("the 17th lifted relator", gamma_elements()["gamma17"]),
        "alpha-beta": ("alpha beta", ALPHA * BETA),
        **{name: (f"chain stage {name}", braid) for name, braid in _gamma17_chain_words().items()},
    }
    deaths = [
        (f"sp4.gamma17.matrix.{name}", f"{subject} abelianizes to the identity matrix", braid)
        for name, (subject, braid) in dying.items()
    ]
    return run_checks(
        "sp4-gamma17", _identity_rows(gamma17_identities()) + _death_rows(deaths, QUOTIENT_PASS)
    )


def verify_all() -> VerificationReport:
    """Every named genus-2 check, concatenated into one report."""
    return merge_reports(
        "sp4",
        (
            verify_surjectivity_witnesses(),
            verify_lift_consistency(),
            verify_gamma_identities(),
            verify_kernel_generators(),
            verify_presentation(),
            verify_gamma17_quotient(),
        ),
    )
