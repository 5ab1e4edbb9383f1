"""Positivity and the monoid of twist automorphisms preserving it.

The free monoid inside F_2g consists of the words with no inverse
letters.  An endomorphism preserves it exactly when every generator
image is positive (positive words compose without cancellation).  Among
the twists and their inverses the positive ones are t_1, t_{2g+1}, and
the inverses of the even twists; at genus >= 2 the interior odd twists
break positivity in both directions, which is what this module's checks
pin down.

The monoid generated by the g+2 positive maps has a normal form:
because generators whose twist indices differ by more than one commute,
every product sorts into a block over {t_1, t_2^-1}, then powers of
t_4^-1 ... t_{2g-2}^-1, then a block over {t_2g^-1, t_{2g+1}}, moving
letters only past commuting ones: the normal form is the stable sort of
the letters by block.  Over an exhaustive ball,
``verify_normal_form_sweep`` checks that words with the same normal form
act alike, and ``verify_section`` that distinct normal forms act
distinctly: the monoid is free on its blocks, so lifting normal forms to
braid crossings sections the braid action on it.  Both read the ball
from ``omega_ball``, one step per word on top of its prefix.  Its words
are tuples of alphabet letters, not ``OmegaWord`` values, so none is
checked or built.  Their images are positive words, so a step
concatenates prefix images and never substitutes, reduces or inverts.
Both key each word by ``_normal_letters``, the one sort by block, which
``omega_normal_form`` calls too.

Omega-word letters reuse the signed-integer convention: ``+k`` is the
twist t_k, ``-k`` its inverse, so the braid lift is literally the same
letter sequence.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from ._value import Word
from .action import GenusContext, twist_automorphism, twist_table
from .endo import DEFAULT_LENGTH_CAP, Automorphism, Endomorphism
from .errors import BraidactError, MalformedWordError, ResourceLimitError, WordSyntaxError
from .report import VerificationReport, merge_reports, over_cases, run_checks
from .symplectic import checked_sl2_matrices
from .words import token_index


def omega_alphabet(g: int) -> tuple[int, ...]:
    """The g+2 allowed letters: t_1, t_{2g+1}, and the inverse even twists."""
    GenusContext(g)
    return (1, 2 * g + 1) + tuple(-2 * i for i in range(1, g + 1))


def _is_omega_letter(x: int, g: int) -> bool:
    """Whether ``x`` is in ``omega_alphabet(g)`` for a genus g >= 1,
    decided without building it, so a huge genus costs no memory."""
    return x == 1 or x == 2 * g + 1 or (x < 0 and x % 2 == 0 and -x <= 2 * g)


class OmegaWord(Word):
    """A word over the positivity-preserving twist alphabet (no reduction)."""

    __slots__ = ("g", "letters")

    @staticmethod
    def _checked(g: int, raw: tuple[int, ...]) -> tuple[int, ...]:
        GenusContext(g)
        for x in raw:
            if not _is_omega_letter(x, g):
                raise MalformedWordError(
                    f"letter {x} is not in the positivity alphabet at genus {g}"
                )
        return raw

    def automorphism(self) -> Automorphism:
        """The automorphism of F_2g this word realizes (rightmost letter first)."""
        return twist_table(self.g).automorphism(self.letters)

    def __str__(self) -> str:
        return format_omega(self)


def parse_omega(text: str, g: int) -> OmegaWord:
    """Parse tokens like ``u1 u5 U2`` (uppercase = inverse letter).

    Tokens split on Python whitespace (``str.split``); an error's
    position is the bad token's character offset.
    """
    letters = []
    for i, token in enumerate(text.split()):
        name = token[0]
        index = token_index(token) if name in "uU" else 0
        if not index:
            raise WordSyntaxError.at_token(f"bad token {token!r}", text, i)
        code = index if name == "u" else -index
        if not letters:  # so a bad token before it is reported first
            GenusContext(g)
        if not _is_omega_letter(code, g):
            raise WordSyntaxError.at_token(
                f"{token!r} is not a positivity-alphabet letter at genus {g}", text, i
            )
        letters.append(code)
    # The empty word still goes through the checks of the constructor,
    # which rejects a genus below 1.
    return OmegaWord._wrap(g, tuple(letters)) if letters else OmegaWord(g)


def format_omega(word: OmegaWord) -> str:
    return " ".join(f"u{x}" if x > 0 else f"U{-x}" for x in word.letters)


def preserves_positive_monoid(e: Endomorphism) -> bool:
    """True iff every generator image is a positive word."""
    return all(w.is_positive() for w in e.images)


def check_omega_alphabet(ctx: GenusContext) -> VerificationReport:
    """Positivity verdicts for every twist and its inverse at this genus.

    Expected pattern: t_1, t_{2g+1} and the inverse even twists are
    positive; everything else (including the interior odd twists and
    their inverses) is not.  At genus 1 there is no interior odd twist and
    the three positive maps are the classical Sturmian ones.  A failing
    row's witness is the map, one ``generator -> image`` line each.
    """
    g = ctx.g
    positive_codes = set(omega_alphabet(g))
    rows = []
    for i in range(1, 2 * g + 2):
        t = twist_automorphism(ctx, i)
        for code, e, side in ((i, t, ""), (-i, t.inverse(), "-inverse")):
            expected = code in positive_codes
            observed = preserves_positive_monoid(e)
            rows.append((
                f"monoid.g{g}.positivity.twist-{i}{side or '-forward'}",
                f"twist {i}{' inverse' if side else ''} is"
                f"{'' if expected else ' not'} positive (genus {g})",
                observed == expected,
                e,
            ))
    return run_checks(f"omega-alphabet(g={g})", rows)


@lru_cache(maxsize=None)
def _blocks(g: int) -> Mapping[int, int]:
    """Each omega letter's block, read-only: 0 for t_1 and t_2^-1, i for
    t_{2i}^-1 with 1 < i < g, and g for t_2g^-1 and t_{2g+1}.  Letters of
    different blocks must commute, their twist indices differing by more
    than one."""
    if g < 2:
        raise MalformedWordError("the block normal form needs genus >= 2")
    blocks = {x: 0 if abs(x) <= 2 else abs(x) // 2 for x in omega_alphabet(g)}
    for x, y in itertools.combinations(blocks, 2):
        if blocks[x] != blocks[y] and abs(abs(x) - abs(y)) <= 1:
            raise BraidactError(f"non-commuting swap {x},{y} required; alphabet invariant broken")
    return MappingProxyType(blocks)


def _normal_letters(block: Callable[[int], int], letters: Iterable[int]) -> tuple[int, ...]:
    """The letters of the normal form: ``letters`` stably sorted by ``block``."""
    return tuple(sorted(letters, key=block))


def omega_normal_form(word: OmegaWord) -> OmegaWord:
    """The normal form of an omega word, its letters stably sorted by
    block; the realized automorphism is checked to be unchanged."""
    form = OmegaWord._wrap(word.g, _normal_letters(_blocks(word.g).__getitem__, word.letters))
    if form.automorphism() != word.automorphism():
        raise BraidactError("normal form changed the realized automorphism")
    return form


def omega_words(g: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """The letters of every omega word of length 0..max_len, depth
    first: each word is followed by all its extensions, so the last
    shorter word yielded before a word is its prefix."""
    alphabet = omega_alphabet(g)[::-1]
    stack = [()] if max_len >= 0 else []
    while stack:
        letters = stack.pop()
        yield letters
        if len(letters) < max_len:
            stack.extend(letters + (x,) for x in alphabet)


def omega_ball(g: int, max_len: int, cap: int = DEFAULT_LENGTH_CAP) -> Iterator[tuple]:
    """Every omega word of length <= max_len as ``(letters, images)``:
    its letters and its generator images.

    One image tuple is kept per depth, and a word's is its prefix's with
    the last letter applied.  That letter's action is positive and so
    are the prefix's images, so each image it moves is the concatenation
    of the prefix images the action names: a step concatenates and never
    substitutes, reduces or inverts.  The actions are read from
    ``twist_table(g).moves`` on every call; BraidactError if one is not
    positive, ResourceLimitError if an image grows past ``cap`` letters.
    """
    moves = twist_table(g).moves
    steps = {}
    for x in omega_alphabet(g):
        for k, action in moves[x]:
            if any(a < 0 for a in action):
                raise BraidactError(
                    f"omega letter {x} maps generator {k + 1} to a non-positive word"
                )
        steps[x] = tuple((k, tuple(a - 1 for a in action)) for k, action in moves[x])
    depth = [tuple((k,) for k in range(1, 2 * g + 1))] * (max_len + 1)
    for letters in omega_words(g, max_len):
        n = len(letters)
        if n:
            prefix = depth[n - 1]
            images = list(prefix)
            for k, action in steps[letters[-1]]:
                image = ()
                for a in action:
                    image += prefix[a]
                if len(image) > cap:
                    raise ResourceLimitError(cap)
                images[k] = image
            depth[n] = tuple(images)
        yield letters, depth[n]


def _normal_forms(g: int, max_len: int) -> tuple[int, int, dict]:
    """One pass over the ball: the number of words, the number whose
    images differ from the first word's of the same normal form
    (``_normal_letters``), and each normal form mapped to that first
    word's images."""
    block = dict(_blocks(g)).__getitem__  # a dict's lookups sort faster than the proxy's
    forms: dict[tuple, tuple] = {}
    total = mismatches = 0
    for letters, images in omega_ball(g, max_len):
        total += 1
        mismatches += forms.setdefault(_normal_letters(block, letters), images) != images
    return total, mismatches, forms


def verify_normal_form_sweep(ctx: GenusContext, max_len: int) -> VerificationReport:
    """Exhaustively confirm that words with the same normal form act alike,
    i.e. the normal form, which lies in the same ball, preserves the map."""
    total, failures, _ = _normal_forms(ctx.g, max_len)
    return run_checks(f"omega-normal-form(g={ctx.g})", (
        (
            f"monoid.g{ctx.g}.normal-form-sweep",
            f"block normal form preserves the automorphism on all {total} words"
            f" of length <= {max_len} (genus {ctx.g})",
            *over_cases(
                total, "words enumerated", f"{failures} failures" if failures else None
            ),
        ),
    ))


def _times(m: tuple, x: tuple) -> tuple:
    """The product of two 2x2 matrices given as row-major 4-tuples."""
    return (m[0] * x[0] + m[1] * x[2], m[0] * x[1] + m[1] * x[3],
            m[2] * x[0] + m[3] * x[2], m[2] * x[1] + m[3] * x[3])


def free_monoid_oracle(max_len: int, distinct_len: int = 8) -> VerificationReport:
    """Exhaustive freeness evidence for the monoid on the two genus-1 matrices.

    Every nonempty product of A = [[1,1],[0,1]] and B = [[1,0],[1,1]] up
    to max_len is checked to differ from the identity, and all products
    up to distinct_len are checked to be pairwise distinct.  A and B are
    read through ``checked_sl2_matrices``, so a wrong pair raises
    BraidactError.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    a, b = (m.rows[0] + m.rows[1] for m in checked_sl2_matrices())
    identity = (1, 0, 0, 1)

    total = identity_hits = distinct_total = 0
    seen = set()
    frontier = [a, b]
    for length in range(1, max(max_len, distinct_len) + 1):
        if length > 1:
            frontier = [_times(m, x) for m in frontier for x in (a, b)]
        if length <= max_len:
            total += len(frontier)
            identity_hits += frontier.count(identity)
        if length <= distinct_len:
            distinct_total += len(frontier)
            seen.update(frontier)
    collisions = distinct_total - len(seen)

    return run_checks("free-monoid-oracle", (
        (
            "monoid.free-oracle.no-identity",
            f"all {total} nonempty products of length <= {max_len} differ from"
            " the identity matrix",
            identity_hits == 0,
            f"{identity_hits} identity products",
        ),
        (
            "monoid.free-oracle.distinct",
            f"all {distinct_total} products of length <= {distinct_len} are"
            " pairwise distinct",
            *over_cases(
                distinct_total, "products compared", f"{collisions} collisions" if collisions else None
            ),
        ),
    ))


def verify_section(ctx: GenusContext, max_len: int) -> VerificationReport:
    """Distinct normal forms act distinctly on an exhaustive ball.

    The monoid is then free on its blocks, and lifting each element's
    normal form to the braid with the same letters sections the braid
    action on it.  A failure names the normal forms that act alike.
    """
    g = ctx.g
    if g < 2:
        raise MalformedWordError("the section check needs genus >= 2")
    total, _, forms = _normal_forms(g, max_len)
    alike: dict[tuple, list] = {}
    for form, images in forms.items():
        alike.setdefault(images, []).append(form)
    collisions = [" = ".join(format_omega(OmegaWord(g, f)) or "1" for f in fs)
                  for fs in alike.values() if len(fs) > 1]
    return run_checks(f"omega-section(g={g})", (
        (
            f"monoid.g{g}.section",
            f"the {len(forms)} normal forms of all {total} words of length"
            f" <= {max_len} give distinct automorphisms (genus {g})",
            *over_cases(
                total, "words enumerated",
                "; ".join([f"{len(collisions)} failures", *collisions]) if collisions else None,
            ),
        ),
    ))


# The suite enumerates every omega word of length up to max_len (the
# normal-form sweep) and up to min(SECTION_MAX_LEN, max_len) (the
# section), sum (g+2)^k words per ball at g+2 letters, 2 to 4 us a
# word: `verify monoid --genus 8 --max-len 6`, 1,122,222 words, took
# 2.3-4.1 s in process with a 21 MB peak RSS (17 runs on a shared 2-vCPU
# x86_64 virtual machine, CPython 3.11).  `verify monoid` and `verify
# all` refuse balls of more than MAX_BALL_WORDS words together.
MAX_BALL_WORDS = 2_000_000
SECTION_MAX_LEN = 4


def _ball_lengths(g: int, max_len: int) -> tuple[int, ...]:
    """The lengths of the suite's omega balls at genus g: the
    normal-form sweep's and the section's, and none below genus 2."""
    return (max_len, min(SECTION_MAX_LEN, max_len)) if g >= 2 else ()


def ball_words(g: int, max_len: int) -> int:
    """Words in the omega balls of ``verify_monoid`` at genus g.

    The count stops as soon as it passes MAX_BALL_WORDS, so a huge
    genus or max_len costs a few multiplications, not a huge power.
    """
    total = 0
    for length in _ball_lengths(g, max_len):
        words = 1
        for _ in range(length + 1):
            total += words
            if total > MAX_BALL_WORDS:
                return total
            words *= g + 2
    return total


def verify_monoid(ctx: GenusContext, max_len: int) -> VerificationReport:
    """The monoid suite: the positivity alphabet, the genus-1 freeness
    oracle at length 10, and from genus 2 the normal-form sweep up to
    ``max_len`` and the section up to min(SECTION_MAX_LEN, max_len)."""
    reports = [check_omega_alphabet(ctx), free_monoid_oracle(max_len=10)]
    balls = (verify_normal_form_sweep, verify_section)
    reports += [ball(ctx, n) for ball, n in zip(balls, _ball_lengths(ctx.g, max_len))]
    return merge_reports("monoid", reports)
