"""The word parsers and checked constructors against regex references.

The references below are the regex-based parsers and per-letter
constructor checks that ``parse_braid``, ``parse_word``, ``parse_omega``
and the ``BraidWord``, ``FreeWord`` and ``OmegaWord`` constructors
replaced.  Every drawn input must give an equal value, or an exception
of the same type with the same message and the same ``position``.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidact import _kernels
from braidact.braids import NAMED_B6, BraidWord, parse_braid
from braidact.errors import MalformedWordError, WordSyntaxError
from braidact.monoid import OmegaWord, omega_alphabet, parse_omega
from braidact.words import FreeWord, parse_word, token_index

# -- references -----------------------------------------------------------


def ref_braid_word(strands, letters=()):
    if strands < 2:
        raise MalformedWordError(f"need at least 2 strands, got {strands}")
    raw = tuple(int(x) for x in letters)
    for x in raw:
        if x == 0 or abs(x) >= strands:
            raise MalformedWordError(f"crossing {x} is out of range for {strands} strands")
    return BraidWord._wrap(strands, _kernels.reduce_letters(raw))


def ref_free_word(rank, letters=()):
    if rank < 0:
        raise MalformedWordError(f"rank must be >= 0, got {rank}")
    raw = tuple(int(x) for x in letters)
    for x in raw:
        if x == 0 or abs(x) > rank:
            raise MalformedWordError(f"letter {x} is outside the alphabet of rank {rank}")
    return FreeWord._wrap(rank, _kernels.reduce_letters(raw))


def ref_omega_word(g, letters=()):
    allowed = omega_alphabet(g)
    raw = tuple(int(x) for x in letters)
    for x in raw:
        if x not in allowed:
            raise MalformedWordError(f"letter {x} is not in the positivity alphabet at genus {g}")
    return OmegaWord._wrap(g, raw)


def ref_parse_braid(text, strands):
    letters = []
    for match in re.finditer(r"\S+", text):
        token = match.group()
        if token in NAMED_B6:
            if strands != 6:
                raise WordSyntaxError(
                    f"named braid {token} is only defined on 6 strands", match.start()
                )
            letters.extend(NAMED_B6[token])
            continue
        if _SIGNED_TOKEN.match(token) is None:
            raise WordSyntaxError(f"bad token {token!r}", match.start())
        value = int(token)
        if abs(value) >= strands:
            raise WordSyntaxError(
                f"crossing {value} is out of range for {strands} strands", match.start()
            )
        letters.append(value)
    return ref_braid_word(strands, tuple(letters))


_WORD_TOKEN = re.compile(r"([abAB])([1-9][0-9]*)\Z")
_SIGNED_TOKEN = re.compile(r"(-?)([1-9][0-9]*)\Z")


def ref_parse_word(text, rank):
    if not text.strip():
        return ref_free_word(rank)
    g = rank // 2
    codes = []
    for match in re.finditer(r"\S+", text):
        token = match.group()
        if rank % 2:
            m = _SIGNED_TOKEN.match(token)
            if m is None:
                raise WordSyntaxError(f"bad token {token!r}", match.start())
            index = int(m.group(2))
            if index > rank:
                raise WordSyntaxError(
                    f"index {index} in {token!r} exceeds rank {rank}", match.start()
                )
            codes.append(-index if m.group(1) else index)
            continue
        m = _WORD_TOKEN.match(token)
        if m is None:
            raise WordSyntaxError(f"bad token {token!r}", match.start())
        name, index = m.group(1), int(m.group(2))
        if index > g:
            raise WordSyntaxError(
                f"index {index} in {token!r} exceeds genus {g} (rank {rank})",
                match.start(),
            )
        code = index if name in "aA" else g + index
        if name.isupper():
            code = -code
        codes.append(code)
    return ref_free_word(rank, tuple(codes))


def ref_parse_omega(text, g):
    token_re = re.compile(r"([uU])([1-9][0-9]*)\Z")
    letters = []
    for match in re.finditer(r"\S+", text):
        token = match.group()
        m = token_re.match(token)
        if m is None:
            raise WordSyntaxError(f"bad token {token!r}", match.start())
        index = int(m.group(2))
        code = index if m.group(1) == "u" else -index
        if code not in omega_alphabet(g):
            raise WordSyntaxError(
                f"{token!r} is not a positivity-alphabet letter at genus {g}",
                match.start(),
            )
        letters.append(code)
    return ref_omega_word(g, tuple(letters))


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


# -- inputs ---------------------------------------------------------------

# ASCII whitespace, the information separators, a no-break space, an em
# space and an ideographic space: all split tokens in Python.
SPACES = (" ", "  ", "\t", "\n", "\x1c", "\x1f", "\xa0", "\u2003", "\u3000")
# Near-miss tokens from signs, underscores, letters of every grammar, a
# non-ASCII digit and a superscript; the single characters also occur
# inside valid tokens before them, where a search for the bad token's
# text from the start would find it.
JUNK = st.one_of(
    st.sampled_from(("1", "2", "a", "u", "A", "-")),
    st.text("0123456789+-_aAbBuUxX\u0663\u00b9", min_size=1, max_size=4),
)


def texts(valid, invalid):
    """Texts of up to 8 tokens, each valid about five times in six at the
    most frequent size below, with drawn separators and outer whitespace."""

    @st.composite
    def draw(d):
        parts = [d(st.sampled_from(("",) + SPACES))]
        for _ in range(d(st.integers(0, 8))):
            token = d(valid if d(st.integers(0, 5)) else invalid)
            parts += [token, d(st.sampled_from(SPACES))]
        return "".join(parts)

    return draw()


def indexed(names, indices):
    return st.builds(lambda c, k: f"{c}{k}", st.sampled_from(names), indices)


braid_texts = texts(
    st.one_of(st.integers(-5, 5).filter(bool).map(str), st.sampled_from(tuple(NAMED_B6))),
    st.one_of(
        st.integers(-12, 12).map(str),
        st.integers(1, 5).map(lambda k: f"+{k}"),
        st.sampled_from(
            ("0", "-0", "+0", "03", "-03", "1_0", "\u0663", "\uff12", "delta6", "ALPHA2")
        ),
        JUNK,
    ),
)
word_texts = texts(
    indexed("abAB", st.integers(1, 4)),
    st.one_of(indexed("abABux", st.integers(0, 9)), indexed("aB", st.just("01")), JUNK),
)
signed_word_texts = texts(
    st.integers(-5, 5).filter(bool).map(str),
    st.one_of(
        st.integers(-12, 12).map(str),
        st.sampled_from(("0", "-0", "+1", "--1", "01", "-01", "1-", "1_0", "\u0663")),
        JUNK,
    ),
)
omega_texts = texts(
    st.sampled_from(("u1", "u9", "U2", "U4", "U6", "U8")),
    st.one_of(indexed("uUab", st.integers(0, 12)), indexed("uU", st.just("01")), JUNK),
)


@settings(max_examples=200)
@given(braid_texts, st.sampled_from((6, 6, 6, 6, 7, 10, 3, 2, 1, 0, -1)))
def test_parse_braid_matches_the_regex_parser(text, strands):
    assert outcome(parse_braid, text, strands) == outcome(ref_parse_braid, text, strands)


@pytest.mark.parametrize("token", ("1_0", "1_1", "\u0663", "\uff12", "+3", "03", "-03", "-0"))
@pytest.mark.parametrize("text, strands", (("1 {} 2", 12), ("ALPHA {}", 6)))
def test_braid_tokens_that_int_reads_are_bad_tokens(token, text, strands):
    """Each token is a bad token on the whole-text path, which ``int``
    would accept, and on the token path, which a named braid forces."""
    text = text.format(token)
    got = outcome(parse_braid, text, strands)
    assert got == outcome(ref_parse_braid, text, strands)
    assert got[0] == "error" and got[2].startswith(f"bad token {token!r}")


@settings(max_examples=200)
@given(
    st.one_of(word_texts, signed_word_texts),
    st.sampled_from((8, 8, 8, 6, 4, 2, 0, -2, 5, 5, 3, 1, -1)),
)
def test_parse_word_matches_the_regex_parser(text, rank):
    assert outcome(parse_word, text, rank) == outcome(ref_parse_word, text, rank)


@settings(max_examples=200)
@given(omega_texts, st.sampled_from((4, 4, 4, 4, 3, 2, 1, 0, -1)))
def test_parse_omega_matches_the_regex_parser(text, g):
    assert outcome(parse_omega, text, g) == outcome(ref_parse_omega, text, g)


@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.integers(-4, -1), st.integers(1, 4), st.integers(-12, 12)), max_size=10),
    st.sampled_from((8, 8, 6, 4, 4, 3, 2, 1, 0, -1)),
)
def test_constructors_match_the_per_letter_checks(letters, size):
    assert outcome(BraidWord, size, letters) == outcome(ref_braid_word, size, letters)
    assert outcome(FreeWord, size, letters) == outcome(ref_free_word, size, letters)
    assert outcome(OmegaWord, size, letters) == outcome(ref_omega_word, size, letters)



# More digits than ``int`` reads from a string by default (4,300).
LONG = "1" * 5000


@pytest.fixture(params=(None, 640, 0) if hasattr(sys, "set_int_max_str_digits") else (None,))
def int_digit_limit(request):
    """Run under the default limit on the digits ``int`` reads from a
    string, the smallest limit (640) and none (0), restoring it after."""
    if request.param is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "parse, text, size, message, position",
    [
        (parse_braid, f"1 {LONG}", 6, f"crossing {LONG} is out of range for 6 strands", 2),
        (parse_braid, f"-{LONG} 1", 6, f"crossing -{LONG} is out of range for 6 strands", 0),
        (parse_word, f"a1 B{LONG}", 4, f"index {LONG} in 'B{LONG}' exceeds genus 2 (rank 4)", 3),
        (parse_word, f"-{LONG}", 3, f"index {LONG} in '-{LONG}' exceeds rank 3", 0),
        (parse_omega, f"u{LONG}", 2, f"'u{LONG}' is not a positivity-alphabet letter at genus 2", 0),
        (parse_omega, f"U2 U{LONG}", 2, f"'U{LONG}' is not a positivity-alphabet letter at genus 2", 3),
    ],
    ids=("braid", "braid-inverse", "word", "word-odd-rank", "omega", "omega-inverse"),
)
def test_an_index_of_any_length_is_out_of_range(parse, text, size, message, position, int_digit_limit):
    """An index token longer than ``int`` reads from a string still
    matches the grammar, so it is out of range, written as in the token."""
    with pytest.raises(WordSyntaxError) as exc:
        parse(text, size)
    assert (exc.value.message, exc.value.position) == (message, position)


def test_token_index_is_exact_at_any_length(int_digit_limit):
    assert token_index("a" + LONG) == (10 ** len(LONG) - 1) // 9
    assert token_index("a1" + "0" * len(LONG)) == 10 ** len(LONG)
