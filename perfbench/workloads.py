"""Seeded inputs and known answers for the three benchmark workloads.

Everything here runs in the parent process, outside the timed phase.
Inputs are plain strings in the package's braid grammar, so the worker
pays for parsing them exactly as a command-line caller would.

- ``verify-g4`` runs ``braidact verify all --genus 4 --max-len 5``; its
  known answer is the recorded verdict table in ``verify_g4_verdicts.json``.
- ``equal-b6`` is a stream of braid-equality queries on 6 strands.  Equal
  pairs are built by rewriting moves that hold in every braid group, and
  unequal pairs are certified by a differing genus-2 matrix shadow, so the
  word-problem oracle under test never labels its own inputs.
- ``shadow-g8`` is a list of random braids on 18 strands whose matrices
  must be symplectic with determinant 1 and equal a reference matrix
  computed here by column operations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

VERIFY_GENUS = 4
VERIFY_MAX_LEN = 5
EQUAL_STRANDS = 6
EQUAL_QUERIES = 1500
EQUAL_MIN_LEN = 10
EQUAL_MAX_LEN = 30
SHADOW_GENUS = 8
SHADOW_BRAIDS = 500
SHADOW_MAX_LEN = 40
# Shadow matrices re-derived afterwards through the free-group action.
SHADOW_CROSS_CHECKS = 5

# Genus of each workload: braids on 2g + 2 strands act on F_2g.
GENUS = {"verify-g4": VERIFY_GENUS, "equal-b6": (EQUAL_STRANDS - 2) // 2, "shadow-g8": SHADOW_GENUS}
WORKLOADS = tuple(GENUS)


def verify_argv(seed: int) -> list[str]:
    return [
        "verify", "all",
        "--genus", str(VERIFY_GENUS),
        "--max-len", str(VERIFY_MAX_LEN),
        "--seed", str(seed),
        "--json",
    ]


def verify_verdicts() -> dict[str, str]:
    """The recorded ``check_id -> status`` table of ``verify_argv``."""
    with open(HERE / "verify_g4_verdicts.json") as f:
        return json.load(f)


def format_letters(letters) -> str:
    return " ".join(str(x) for x in letters)


def _reduced(letters: list[int]) -> list[int]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def _random_letter(rng: random.Random, strands: int) -> int:
    return rng.randrange(1, strands) * rng.choice((1, -1))


def _base_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """A reduced word with planted ``a b a`` triples for the braid relation."""
    word: list[int] = []
    while len(word) < length:
        if rng.random() < 0.3:
            i = rng.randrange(1, strands - 1)
            a, b = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
            sign = rng.choice((1, -1))
            chunk = [a * sign, b * sign, a * sign]
        else:
            chunk = [_random_letter(rng, strands)]
        word = _reduced(word + chunk)
    return word


def _rewrite(rng: random.Random, word: list[int], strands: int, moves: int) -> list[int]:
    """Apply seeded moves that preserve the braid: braid relations, far
    commutations and insertion of ``x x^-1``."""
    w = list(word)
    for _ in range(moves):
        braid_sites = [
            k for k in range(len(w) - 2)
            if w[k] == w[k + 2]
            and abs(abs(w[k]) - abs(w[k + 1])) == 1
            and (w[k] > 0) == (w[k + 1] > 0)
        ]
        far_sites = [k for k in range(len(w) - 1) if abs(abs(w[k]) - abs(w[k + 1])) > 1]
        kind = rng.choice(("braid", "braid", "far", "far", "insert"))
        if kind == "braid" and braid_sites:
            k = rng.choice(braid_sites)
            a, b = w[k], w[k + 1]
            w[k:k + 3] = [b, a, b]
        elif kind == "far" and far_sites:
            k = rng.choice(far_sites)
            w[k], w[k + 1] = w[k + 1], w[k]
        else:
            p = rng.randrange(len(w) + 1)
            x = _random_letter(rng, strands)
            if (p > 0 and w[p - 1] == -x) or (p < len(w) and w[p] == x):
                continue
            w[p:p] = [x, -x]
        w = _reduced(w)
    return w


def _swap_one_crossing(rng: random.Random, word: list[int], strands: int) -> list[int]:
    """Change one crossing index, keeping the sign, the length and the
    exponent sum, and never creating a cancellation."""
    while True:
        k = rng.randrange(len(word))
        x = word[k]
        sign = 1 if x > 0 else -1
        y = rng.randrange(1, strands) * sign
        if y == x:
            continue
        if (k > 0 and word[k - 1] == -y) or (k + 1 < len(word) and word[k + 1] == -y):
            continue
        return word[:k] + [y] + word[k + 1:]


def _in_range(word: list[int]) -> bool:
    return EQUAL_MIN_LEN <= len(word) <= EQUAL_MAX_LEN


def equal_b6_queries(seed: int) -> list[tuple[str, str, bool]]:
    """``EQUAL_QUERIES`` (left, right, expected) triples, half of each kind.

    The unequal half is certified with the genus-2 matrix shadow; this
    imports ``braidact`` and must run after ``src`` is on the path.
    """
    from braidact import BraidWord, GenusContext, braid_matrix

    ctx = GenusContext(2)
    rng = random.Random(f"equal-b6:{seed}")
    strands = EQUAL_STRANDS
    queries: list[tuple[str, str, bool]] = []
    # Cycle through the base lengths rather than drawing them, so the heavy
    # tail of long words weighs the same in every seed's stream.  The base
    # stays 3 letters short of the maximum to leave room for the moves.
    span = EQUAL_MAX_LEN - 3 - EQUAL_MIN_LEN
    while len(queries) < EQUAL_QUERIES:
        left = _base_word(rng, strands, EQUAL_MIN_LEN + len(queries) // 2 % span)
        right = _rewrite(rng, left, strands, rng.randrange(4, 11))
        if not (_in_range(left) and _in_range(right)):
            continue
        expected = len(queries) % 2 == 0
        if not expected:
            right = _swap_one_crossing(rng, right, strands)
            m_left = braid_matrix(ctx, BraidWord(strands, tuple(left)))
            m_right = braid_matrix(ctx, BraidWord(strands, tuple(right)))
            if m_left == m_right:
                continue
        queries.append((format_letters(left), format_letters(right), expected))
    rng.shuffle(queries)
    return queries


def shadow_g8_braids(seed: int) -> tuple[list[list[int]], list[int]]:
    """``SHADOW_BRAIDS`` random braid words on 18 strands, plus the indices
    whose matrices are re-derived through the free-group action."""
    rng = random.Random(f"shadow-g8:{seed}")
    strands = 2 * SHADOW_GENUS + 2
    # Lengths cycle through 0..SHADOW_MAX_LEN so every seed has the same mix.
    braids = [
        [_random_letter(rng, strands) for _ in range(k % (SHADOW_MAX_LEN + 1))]
        for k in range(SHADOW_BRAIDS)
    ]
    return braids, sorted(rng.sample(range(SHADOW_BRAIDS), SHADOW_CROSS_CHECKS))


def shadow_matrix_hash(g: int, letters: list[int]) -> int:
    """Hash of the reference matrix of a braid at genus ``g``.

    Built without braidact: each twist abelianizes to a transvection, so
    multiplying by one on the right adds columns.  The worker reports
    ``hash(matrix.rows)``; tuples of ints hash the same in every process.
    """
    cols = [[int(r == c) for r in range(2 * g)] for c in range(2 * g)]

    def add(target: int, source: int, factor: int) -> None:
        cols[target] = [t + factor * u for t, u in zip(cols[target], cols[source])]

    a = lambda i: i - 1
    b = lambda i: g + i - 1
    for x in letters:
        k, s = abs(x), (1 if x > 0 else -1)
        if k == 1:
            add(b(1), a(1), s)
        elif k == 2 * g + 1:
            add(b(g), a(g), s)
        elif k % 2 == 0:
            add(a(k // 2), b(k // 2), -s)
        else:
            i = k // 2
            add(b(i), a(i), s)
            add(b(i), a(i + 1), -s)
            add(b(i + 1), a(i + 1), s)
            add(b(i + 1), a(i), -s)
    return hash(tuple(zip(*cols)))


def make_inputs(workload: str, seed: int) -> tuple[dict, object]:
    """The worker's stdin payload for one run, and the answer key that
    stays in the parent."""
    if workload == "verify-g4":
        return {"argv": verify_argv(seed), "genus": VERIFY_GENUS}, verify_verdicts()
    if workload == "equal-b6":
        queries = equal_b6_queries(seed)
        payload = {"strands": EQUAL_STRANDS, "pairs": [[a, b] for a, b, _ in queries]}
        return payload, [expected for _, _, expected in queries]
    if workload == "shadow-g8":
        braids, cross = shadow_g8_braids(seed)
        payload = {"genus": SHADOW_GENUS, "braids": [format_letters(w) for w in braids],
                   "cross_check": cross}
        return payload, [shadow_matrix_hash(SHADOW_GENUS, w) for w in braids]
    raise ValueError(f"unknown workload {workload!r}")
