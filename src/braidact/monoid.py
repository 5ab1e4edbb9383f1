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
t_4^-1 ... t_{2g-2}^-1, then a block over {t_2g^-1, t_{2g+1}} - using
only adjacent swaps of commuting letters.  Mapping t_1, t_{2g+1} and
t_{2i}^-1 to the corresponding braid crossings sections the braid
action on this monoid; ``verify_section`` confirms that identity on an
exhaustive ball.

Omega-word letters reuse the signed-integer convention: ``+k`` is the
twist t_k, ``-k`` its inverse, so the braid lift is literally the same
letter sequence.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from ._value import Value
from .action import GenusContext, braid_automorphism, twist_automorphism, twist_table
from .braids import BraidWord
from .endo import Automorphism, Endomorphism
from .errors import BraidactError, MalformedWordError, WordSyntaxError
from .matrices import IntMatrix
from .report import VerificationReport, condition_check
from .symplectic import sl2_matrices


def omega_alphabet(g: int) -> tuple[int, ...]:
    """The g+2 allowed letters: t_1, t_{2g+1}, and the inverse even twists."""
    if g < 1:
        raise MalformedWordError(f"genus must be >= 1, got {g}")
    return (1, 2 * g + 1) + tuple(-2 * i for i in range(1, g + 1))


@lru_cache(maxsize=None)
def _alphabet_set(g: int) -> frozenset[int]:
    """``omega_alphabet(g)`` as a set, built once per genus."""
    return frozenset(omega_alphabet(g))


class OmegaWord(Value):
    """A word over the positivity-preserving twist alphabet (no reduction)."""

    __slots__ = ("g", "letters")

    def __init__(self, g: int, letters: Iterable[int] = ()):
        allowed = _alphabet_set(g)
        raw = tuple(int(x) for x in letters)
        for x in raw:
            if x not in allowed:
                raise MalformedWordError(
                    f"letter {x} is not in the positivity alphabet at genus {g}"
                )
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "letters", raw)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "OmegaWord") -> "OmegaWord":
        if not isinstance(other, OmegaWord):
            return NotImplemented
        if self.g != other.g:
            raise MalformedWordError(
                f"cannot concatenate omega words of genera {self.g} and {other.g}"
            )
        return OmegaWord(self.g, self.letters + other.letters)

    def automorphism(self) -> Automorphism:
        """The automorphism of F_2g this word realizes (rightmost letter first)."""
        return twist_table(self.g).automorphism(self.letters)

    def braid_lift(self) -> BraidWord:
        """The sectioning braid: same letters read as crossings."""
        return BraidWord(2 * self.g + 2, self.letters)

    def __str__(self) -> str:
        return format_omega(self)

    def __repr__(self) -> str:
        return f"OmegaWord({self.g}, {self.letters!r})"


def parse_omega(text: str, g: int) -> OmegaWord:
    """Parse tokens like ``u1 u5 U2`` (uppercase = inverse letter)."""
    token_re = re.compile(r"([uU])([1-9][0-9]*)\Z")
    letters = []
    for match in re.finditer(r"\S+", text):
        token = match.group()
        m = token_re.match(token)
        if m is None:
            raise WordSyntaxError(f"bad token {token!r}", match.start())
        index = int(m.group(2))
        code = index if m.group(1) == "u" else -index
        if code not in _alphabet_set(g):
            raise WordSyntaxError(
                f"{token!r} is not a positivity-alphabet letter at genus {g}",
                match.start(),
            )
        letters.append(code)
    return OmegaWord(g, tuple(letters))


def format_omega(word: OmegaWord) -> str:
    return " ".join(f"u{x}" if x > 0 else f"U{-x}" for x in word.letters)


def preserves_positive_monoid(e: Endomorphism) -> bool:
    """True iff every generator image is a positive word."""
    return all(w.is_positive() for w in e.images)


def check_omega_alphabet(ctx: GenusContext) -> VerificationReport:
    """Positivity verdicts for every twist and its inverse at this genus.

    Expected pattern: t_1, t_{2g+1} and the inverse even twists are
    positive; everything else (including both directions of the interior
    odd twists) is not.  At genus 1 there is no interior odd twist and
    the three positive maps are the classical Sturmian ones.
    """
    g = ctx.g
    positive_codes = set(omega_alphabet(g))
    checks = []
    for i in range(1, 2 * g + 2):
        t = twist_automorphism(ctx, i)
        for code, e, side in ((i, t.forward, ""), (-i, t.backward, "-inverse")):
            expected = code in positive_codes
            observed = preserves_positive_monoid(e)
            checks.append(
                condition_check(
                    f"monoid.g{g}.positivity.twist-{i}{side or '-forward'}",
                    f"twist {i}{' inverse' if side else ''} is"
                    f"{'' if expected else ' not'} positive (genus {g})",
                    observed == expected,
                    witness="\n".join(str(w) for w in e.images),
                )
            )
    return VerificationReport(f"omega-alphabet(g={g})", tuple(checks))


class OmegaNormalForm(NamedTuple):
    """Sorted block decomposition of an omega word.

    ``prefix`` uses only t_1 and t_2^-1, ``exponents[i]`` counts
    t_{2(i+2)}^-1 for the interior indices 2..g-1, and ``suffix`` uses
    only t_{2g}^-1 and t_{2g+1}.  Within each outer block the input
    order is preserved.
    """

    prefix: OmegaWord
    exponents: tuple[int, ...]
    suffix: OmegaWord

    def reassembled(self) -> OmegaWord:
        g = self.prefix.g
        middle = []
        for offset, count in enumerate(self.exponents):
            middle.extend([-2 * (offset + 2)] * count)
        return OmegaWord(g, self.prefix.letters + tuple(middle) + self.suffix.letters)


def _block_key(g: int, code: int) -> int:
    index = abs(code)
    if index in (1, 2):
        return 0
    if index in (2 * g, 2 * g + 1):
        return g
    return index // 2  # interior inverse even twist t_{2i}^-1 -> block i


def omega_normal_form(word: OmegaWord) -> OmegaNormalForm:
    """Sort an omega word into its three blocks by commuting adjacent swaps.

    Only letters whose twist indices differ by more than one are ever
    swapped; the realized automorphism is checked to be unchanged.
    """
    g = word.g
    if g < 2:
        raise MalformedWordError("the block normal form needs genus >= 2")
    letters = list(word.letters)
    # Stable bubble sort; every swap crosses distinct blocks, hence commutes.
    for sweep_end in range(len(letters) - 1, 0, -1):
        for k in range(sweep_end):
            x, y = letters[k], letters[k + 1]
            if _block_key(g, x) > _block_key(g, y):
                if abs(abs(x) - abs(y)) <= 1:
                    raise BraidactError(
                        f"non-commuting swap {x},{y} required; alphabet invariant broken"
                    )
                letters[k], letters[k + 1] = y, x
    boundary1 = sum(1 for x in letters if _block_key(g, x) == 0)
    boundary2 = len(letters) - sum(1 for x in letters if _block_key(g, x) == g)
    prefix = OmegaWord(g, tuple(letters[:boundary1]))
    suffix = OmegaWord(g, tuple(letters[boundary2:]))
    exponents = tuple(
        sum(1 for x in letters if x == -2 * i) for i in range(2, g)
    )
    form = OmegaNormalForm(prefix, exponents, suffix)
    if form.reassembled().automorphism() != word.automorphism():
        raise BraidactError("normal form changed the realized automorphism")
    return form


def omega_words(g: int, max_len: int) -> Iterator[OmegaWord]:
    """All omega words of length 0..max_len, shortest first."""
    alphabet = omega_alphabet(g)
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield OmegaWord(g, combo)


def _sweep_witness(total: int, failures: int) -> str:
    # A sweep over no words proves nothing, so it fails too.
    return f"{failures} failures" if total else "no words enumerated"


def verify_normal_form_sweep(ctx: GenusContext, max_len: int) -> VerificationReport:
    """Exhaustively confirm the normal form preserves the realized map."""
    failures = 0
    total = 0
    for word in omega_words(ctx.g, max_len):
        total += 1
        try:
            omega_normal_form(word)
        except BraidactError:
            failures += 1
    checks = (
        condition_check(
            f"monoid.g{ctx.g}.normal-form-sweep",
            f"block normal form preserves the automorphism on all {total} words"
            f" of length <= {max_len} (genus {ctx.g})",
            total > 0 and failures == 0,
            witness=_sweep_witness(total, failures),
        ),
    )
    return VerificationReport(f"omega-normal-form(g={ctx.g})", checks)


def free_monoid_oracle(max_len: int, distinct_len: int = 8) -> VerificationReport:
    """Exhaustive freeness evidence for the monoid on the two genus-1 matrices.

    Every nonempty product of A = [[1,1],[0,1]] and B = [[1,0],[1,1]] up
    to max_len is checked to differ from the identity, and all products
    up to distinct_len are checked to be pairwise distinct.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    a, b = sl2_matrices()
    identity = IntMatrix.identity(2)

    identity_hits = 0
    total = 0
    frontier = [a, b]
    for _ in range(max_len):
        total += len(frontier)
        identity_hits += sum(m == identity for m in frontier)
        frontier = [m * x for m in frontier for x in (a, b)]

    seen: dict[tuple, int] = {}
    collisions = 0
    distinct_total = 0
    frontier = [a, b]
    for _ in range(distinct_len):
        for m in frontier:
            distinct_total += 1
            key = m.rows
            collisions += key in seen
            seen[key] = 1
        frontier = [m * x for m in frontier for x in (a, b)]

    checks = (
        condition_check(
            "monoid.free-oracle.no-identity",
            f"all {total} nonempty products of length <= {max_len} differ from"
            " the identity matrix",
            identity_hits == 0,
            witness=f"{identity_hits} identity products",
        ),
        condition_check(
            "monoid.free-oracle.distinct",
            f"all {distinct_total} products of length <= {distinct_len} are"
            " pairwise distinct",
            collisions == 0,
            witness=f"{collisions} collisions",
        ),
    )
    return VerificationReport("free-monoid-oracle", checks)


def verify_section(ctx: GenusContext, max_len: int) -> VerificationReport:
    """The braid action undoes the crossing lift on an exhaustive ball.

    For every omega word w up to max_len, the braid with the same
    letters acts on F_2g exactly as w does.
    """
    if ctx.g < 2:
        raise MalformedWordError("the section check needs genus >= 2")
    failures = 0
    total = 0
    for word in omega_words(ctx.g, max_len):
        total += 1
        if braid_automorphism(ctx, word.braid_lift()) != word.automorphism():
            failures += 1
    checks = (
        condition_check(
            f"monoid.g{ctx.g}.section",
            f"braid lift sections the action on all {total} words of length"
            f" <= {max_len} (genus {ctx.g})",
            total > 0 and failures == 0,
            witness=_sweep_witness(total, failures),
        ),
    )
    return VerificationReport(f"omega-section(g={ctx.g})", checks)
