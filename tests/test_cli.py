import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidact import action, braids, cli, monoid, symplectic
from braidact.cli import MAX_BALL_WORDS, MAX_EQUAL_STRANDS, MAX_GENUS, SUITES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apply_examples(capsys):
    code, out, _ = run(capsys, "apply", "1", "b1", "--genus", "2")
    assert code == 0 and out.strip() == "a1 b1"
    code, out, _ = run(capsys, "apply", "3", "b2", "--genus", "2")
    assert code == 0 and out.strip() == "a2 A1 b2"
    code, out, _ = run(capsys, "apply", "", "a1", "--genus", "2")
    assert code == 0 and out.strip() == "a1"


def test_apply_json(capsys):
    code, out, _ = run(capsys, "apply", "1", "b1", "--json")
    assert code == 0
    assert json.loads(out) == {"result": "a1 b1"}


def test_apply_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "apply", "1 x", "b1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "apply", "1", "q9")
    assert code == 2


def test_apply_resource_cap_exits_3(capsys):
    code, _, err = run(capsys, "apply", "1 1 1 1 1 1", "b1", "--max-len", "3")
    assert code == 3
    assert "cap" in err


def test_apply_cap_exceeded_mid_fold_exits_3(capsys):
    # s1^4 s5 s1^-4 s5^-1 acts trivially, but b1 -> a1^4 b1 on the way
    braid = "1 1 1 1 5 -1 -1 -1 -1 -5"
    code, _, err = run(capsys, "apply", braid, "b1", "--max-len", "4")
    assert code == 3
    assert "cap of 4" in err
    code, out, _ = run(capsys, "apply", braid, "b1", "--max-len", "5")
    assert code == 0 and out.strip() == "b1"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_apply_nonpositive_cap_exits_2(capsys, cap):
    code, out, err = run(capsys, "apply", "1", "b1", "--max-len", cap)
    assert code == 2
    assert out == ""
    assert "--max-len" in err


def test_apply_cap_does_not_leak_into_the_next_call(capsys):
    run(capsys, "apply", "1", "b1", "--max-len", "2")
    code, out, _ = run(capsys, "apply", "1 1 1 1 1 1", "b1")
    assert code == 0 and out.strip() == "a1 a1 a1 a1 a1 a1 b1"


def test_matrix_examples(capsys):
    code, out, _ = run(capsys, "matrix", "1", "--genus", "2", "--json")
    assert code == 0
    assert json.loads(out) == [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    code, out, _ = run(capsys, "matrix", "DELTA6", "--genus", "2", "--json")
    assert json.loads(out) == [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
    code, out, _ = run(capsys, "matrix", "", "--genus", "2", "--json")
    assert json.loads(out) == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_matrix_text_output_is_aligned(capsys):
    code, out, _ = run(capsys, "matrix", "DELTA6")
    assert code == 0
    assert out.count("\n") == 4


def test_equal_examples(capsys):
    code, out, _ = run(capsys, "equal", "1 2 1", "2 1 2", "--strands", "6")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "equal", "GAMMA", "1 -3 5")
    assert code == 0
    code, out, _ = run(capsys, "equal", "1", "2")
    assert code == 1 and out.strip() == "not equal"


def test_equal_strands_over_budget_exits_3_before_any_table(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(braids, "_artin_table", built.append)
    code, out, err = run(capsys, "equal", "1 2 1", "2 1 2", "--strands", "100000")
    assert code == 3 and out == ""
    assert "--strands 100000 is over the budget of 256 strands" in err
    assert built == []


def test_parse_subcommand(capsys):
    code, out, _ = run(capsys, "parse", "word", "A1  a1   b2", "--genus", "2")
    assert code == 0 and out.strip() == "b2"
    code, out, _ = run(capsys, "parse", "braid", "ALPHA", "--strands", "6")
    assert code == 0 and out.strip() == "4 5 4 5 4 5"
    code, out, _ = run(capsys, "parse", "omega", "u1 U2", "--genus", "2")
    assert code == 0 and out.strip() == "u1 U2"


def test_parse_omega_at_a_huge_genus(capsys):
    code, out, err = run(capsys, "parse", "omega", "u1", "--genus", "1000000000")
    assert code == 0 and out == "u1\n" and err == ""
    code, out, err = run(capsys, "parse", "omega", "u3", "--genus", "1000000000")
    assert code == 2 and out == ""
    assert err == (
        "error: 'u3' is not a positivity-alphabet letter at genus 1000000000 (at position 0)\n"
    )


@pytest.mark.parametrize("text,genus", [("", "0"), ("a1", "-1")])
def test_parse_word_nonpositive_genus_exits_2(capsys, text, genus):
    code, out, err = run(capsys, "parse", "word", text, "--genus", genus)
    assert code == 2
    assert out == ""
    assert "genus must be >= 1" in err


def test_verify_relations_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--genus", "2")
    assert code == 0
    assert "10/10" in out


def test_verify_center_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "center", "--genus", "1", "--json")
    assert code == 0
    checks = json.loads(out)
    assert isinstance(checks, list)
    for check in checks:
        assert set(check) <= {"check_id", "description", "status", "witness"}
        assert check["status"] in ("pass", "fail", "quotient-level-pass")


def test_verify_genus_does_not_leak_into_the_next_call(capsys):
    run(capsys, "verify", "center", "--genus", "3", "--json")
    code, out, _ = run(capsys, "verify", "center", "--json")
    assert code == 0
    ids = [c["check_id"] for c in json.loads(out)]
    assert ids and all(i.startswith("center.g2.") for i in ids)


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_verify_all_check_ids_are_unique(capsys, genus):
    # The benchmark keys its verdict table by check id, so a duplicate id
    # would silently shadow a verdict.
    code, out, _ = run(capsys, "verify", "all", "--genus", str(genus), "--json")
    assert code == 1
    ids = [c["check_id"] for c in json.loads(out)]
    assert len(ids) == len(set(ids))


def test_verify_sp4_reports_the_defects_and_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "sp4", "--json")
    assert code == 1
    checks = json.loads(out)
    failing = sorted(c["check_id"] for c in checks if c["status"] == "fail")
    assert "sp4.kernel.matrix.alpha-beta" in failing
    assert "sp4.presentation.cube-conjugation" in failing
    assert "sp4.gamma17.jump" in failing
    by_id = {c["check_id"]: c for c in checks}
    assert by_id["sp4.gamma17.jump-corrected"]["status"] == "pass"


def test_verify_monoid_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "monoid", "--genus", "2", "--max-len", "3")
    assert code == 0


def test_verify_negative_max_len_exits_2(capsys):
    code, out, err = run(capsys, "verify", "monoid", "--genus", "2", "--max-len", "-1")
    assert code == 2
    assert out == ""
    assert "--max-len" in err


def test_verify_symplectic_prints_seed(capsys):
    code, out, _ = run(capsys, "verify", "symplectic", "--seed", "11")
    assert code == 0
    assert "seed: 11" in out


def test_verify_symplectic_checks_the_twists_of_the_asked_genus(capsys):
    code, out, _ = run(capsys, "verify", "symplectic", "--genus", "6", "--json")
    assert code == 0
    status = {c["check_id"]: c["status"] for c in json.loads(out)}
    for g in (1, 2, 3, 4, 6):
        twists = {i for i in status if i.startswith(f"symplectic.g{g}.twist-")}
        assert twists == {f"symplectic.g{g}.twist-{i}" for i in range(1, 2 * g + 2)}
        assert all(status[i] == "pass" for i in twists)
    assert not any(i.startswith("symplectic.g5.") for i in status)


def test_verify_output_is_sorted_by_check_id(capsys):
    _, out, _ = run(capsys, "verify", "relations", "--genus", "2")
    ids = [line.split()[1] for line in out.splitlines() if line.startswith(("PASS", "FAIL", "QPASS"))]
    assert ids == sorted(ids)


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


# -- property: a malformed command line is one error line, exit 2 -----------

NOT_INTS = ("x", "1.5", "", "2e3")

malformed_command_lines = st.one_of(
    st.just([]),
    st.sampled_from(("frob", "Verify", "help")).map(lambda c: [c]),
    st.sampled_from(("everything", "sp5", "")).map(lambda s: ["verify", s]),
    st.sampled_from(
        (["apply"], ["apply", "1"], ["matrix"], ["equal", "1"], ["parse"], ["parse", "word"], ["verify"])
    ),
    st.tuples(
        st.sampled_from(
            (
                ["apply", "1", "a1", "--genus"],
                ["apply", "1", "a1", "--max-len"],
                ["matrix", "1", "--genus"],
                ["equal", "1", "1", "--strands"],
                ["parse", "braid", "1", "--strands"],
                ["verify", "all", "--genus"],
                ["verify", "all", "--max-len"],
                ["verify", "all", "--seed"],
            )
        ),
        st.sampled_from(NOT_INTS),
    ).map(lambda p: [*p[0], p[1]]),
)


@settings(max_examples=60, deadline=None)
@given(malformed_command_lines)
def test_malformed_command_line_is_one_error_line(args):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(args)
    assert exc.value.code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_unknown_suite_names_the_bad_argument(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "everything"])
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument suite: invalid choice") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["monoid", "all"])
def test_verify_balls_over_budget_exit_3_before_any_enumeration(capsys, monkeypatch, suite):
    # About 10^12 words: only the patched ball may ever see this input.
    built = []
    monkeypatch.setattr(monoid, "omega_ball", lambda *args: built.append(args) or iter(()))
    code, out, err = run(capsys, "verify", suite, "--genus", "30", "--max-len", "8")
    assert code == 3 and out == "" and built == []
    assert f"over the budget of {MAX_BALL_WORDS} omega words" in err


@pytest.fixture
def table_builds(monkeypatch):
    """Replace the twist table's builder, at every binding, with a stub
    that records the genus it was asked for and stops the command."""
    builds = []

    def refuse(g):
        builds.append(g)
        raise AssertionError(f"twist tables built at genus {g}")

    original = action.twist_table
    for module in (action, cli, monoid, symplectic):
        for name, value in vars(module).items():
            if value is original:
                monkeypatch.setattr(module, name, refuse)
    return builds


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "1"],
        ["apply", "1", "a1"],
        ["verify", "relations"],
        ["verify", "center"],
        ["verify", "symplectic"],
        ["verify", "monoid", "--max-len", "0"],
        ["verify", "all", "--max-len", "0"],
    ],
)
def test_genus_over_budget_exits_3_before_any_table(capsys, table_builds, argv):
    genus = MAX_GENUS + 1
    code, out, err = run(capsys, *argv, "--genus", str(genus))
    assert code == 3 and out == "" and table_builds == []
    assert err == f"error: --genus {genus} is over the budget of genus {MAX_GENUS}\n"


def test_genus_budget_admits_its_cap(capsys):
    assert MAX_GENUS >= 8
    code, out, _ = run(capsys, "matrix", "1", "--genus", str(MAX_GENUS), "--json")
    assert code == 0 and len(json.loads(out)) == 2 * MAX_GENUS
    code, _, _ = run(capsys, "verify", "sp4", "--genus", str(MAX_GENUS + 1))
    assert code == 1  # sp4 ignores --genus; its recorded identities fail by design


def test_ball_budget_admits_the_default_sweeps():
    assert monoid.ball_words(4, 5) == 9331 + 1555
    assert monoid.ball_words(8, 5) == 111111 + 11111 <= MAX_BALL_WORDS
    assert monoid.ball_words(1, 5) == 0  # genus 1 has no normal-form sweep


def test_ball_budget_counts_the_words_verify_monoid_enumerates(capsys, monkeypatch):
    yielded = []
    omega_words = monoid.omega_words

    def counted(g, max_len):
        for letters in omega_words(g, max_len):
            yielded.append(letters)
            yield letters

    monkeypatch.setattr(monoid, "omega_words", counted)
    for g in range(1, 5):
        for max_len in range(6):
            yielded.clear()
            code, _, _ = run(capsys, "verify", "monoid", "--genus", str(g), "--max-len", str(max_len))
            assert code == 0
            assert len(yielded) == monoid.ball_words(g, max_len), (g, max_len)


def test_verify_all_nonpositive_genus_exits_2_before_printing(capsys):
    code, out, err = run(capsys, "verify", "all", "--genus", "0")
    assert code == 2 and out == ""
    assert "genus must be >= 1" in err


# -- property: every well-formed command line ends in a stated exit ---------

BRAIDS = ("1 -2", "DELTA6", "GAMMA", "", "1 x", "0", "99")
WORDS = ("a1 B2", "", "q9", "a99")
OMEGAS = ("u1 U2", "u3", "", "x1", "U2000000000")
GENERA = (-1, 0, 1, 2, MAX_GENUS, MAX_GENUS + 1, 10**9)
STRANDS = (-1, 1, 2, 6, MAX_EQUAL_STRANDS, MAX_EQUAL_STRANDS + 1, 10**9)
JSON = st.sampled_from(([], ["--json"]))


def argv(*parts):
    """One argument list: the pieces drawn in order, joined."""
    return st.tuples(*parts).map(lambda ps: [arg for p in ps for arg in p])


def const(*args):
    return st.just(list(args))


def positional(values):
    return st.sampled_from(values).map(lambda v: [v])


def option(flag, values):
    """``flag value`` for a drawn value, or nothing for None."""
    return st.sampled_from(values).map(lambda v: [] if v is None else [flag, str(v)])


command_lines = st.one_of(
    argv(const("apply"), positional(BRAIDS), positional(WORDS),
         option("--genus", (None, *GENERA)), option("--max-len", (None, -1, 0, 1, 3)), JSON),
    argv(const("matrix"), positional(BRAIDS), option("--genus", (None, *GENERA)), JSON),
    argv(const("equal"), positional(BRAIDS), positional(BRAIDS),
         option("--strands", (None, *STRANDS)), JSON),
    argv(
        const("parse"),
        st.sampled_from(
            [("word", t) for t in WORDS]
            + [("braid", t) for t in BRAIDS]
            + [("omega", t) for t in OMEGAS]
        ).map(list),
        option("--genus", (None, *GENERA, 10**18)),
        option("--strands", (None, *STRANDS)),
        JSON,
    ),
    # Suites that run: small genus and balls.
    argv(const("verify"), positional(("relations", "center", "monoid")),
         option("--genus", (1, 2, 3)), option("--max-len", (0, 1, 2)), JSON),
    # Every suite at values that must exit before any work: sp4 alone
    # ignores --genus and runs.
    argv(const("verify"), positional(SUITES), option("--genus", (-1, 0, MAX_GENUS + 1, 10**9)),
         option("--max-len", (None, -1)), JSON),
    argv(const("verify"), positional(("monoid", "all")), const("--genus", "2", "--max-len", "1000000")),
)


# Every builder of a generator table or an omega ball, at the bindings
# the commands call it through.
BUILDERS = (
    (action, "twist_table"),
    (cli, "twist_table"),
    (symplectic, "twist_table"),
    (braids, "_artin_table"),
    (monoid, "omega_ball"),
)


def refuse_to_build(*args):
    raise AssertionError(f"a table or ball was built for {args}")


def exit_code_and_errors(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue().splitlines()


@settings(max_examples=150, deadline=None)
@given(command_lines)
@example(["equal", "1 2 1", "2 1 2", "--strands", str(MAX_EQUAL_STRANDS)])
@example(["equal", "1", "1", "--strands", str(MAX_EQUAL_STRANDS + 1)])
@example(["apply", "1 2 -3", "a1 B2", "--genus", str(MAX_GENUS)])
@example(["matrix", "DELTA6", "--genus", str(MAX_GENUS + 1)])
@example(["parse", "omega", "u1", "--genus", str(10**18)])
@example(["parse", "braid", "DELTA6", "--strands", "6"])
@example(["verify", "sp4", "--genus", str(10**9)])
# Index tokens with more digits than int reads from a string.
@example(["parse", "braid", "1" * 5000])
@example(["apply", "1", "B" + "1" * 5000])
@example(["parse", "omega", "u" + "1" * 5000])
# Values with more digits than int writes to a string: a matrix whose
# entries outgrow it, and a rank in an out-of-range message.
@example(["matrix", "1 -2 " * 11000, "--genus", "1"])
@example(["matrix", "1 -2 " * 11000, "--genus", "1", "--json"])
@example(["parse", "word", "a1" + "0" * 4300, "--genus", "9" * 4300])
def test_every_command_line_exits_with_a_stated_code(args):
    code, lines = exit_code_and_errors(args)
    if code in (0, 1):
        assert lines == []
    else:
        assert code in (2, 3)
        assert len(lines) == 1 and lines[0].startswith("error: ")
    if code == 3 and "over the budget" in lines[0]:
        # A budget exit comes before any table or ball is built.
        with pytest.MonkeyPatch.context() as mp:
            for module, name in BUILDERS:
                mp.setattr(module, name, refuse_to_build)
            assert exit_code_and_errors(args) == (code, lines)


SRC = str(Path(__file__).resolve().parent.parent / "src")
# The console script's body, with the package taken from this checkout.
CONSOLE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    " from braidact.cli import main; sys.exit(main(sys.argv[2:]))"
)


CLOSED_PIPE_ARGVS = (
    ("equal", "1 2 1", "2 1 2"),
    ("verify", "relations", "--genus", "3"),
    ("verify", "all", "--genus", "2", "--json"),
    ("--help",),
    ("verify", "--help"),
)


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(argv, unbuffered, id=f"argv{i}" + ("-unbuffered" if unbuffered else ""))
    for unbuffered in (None, "1")
    for i, argv in enumerate(CLOSED_PIPE_ARGVS)
])
def test_a_closed_stdout_pipe_exits_141_quietly(argv, unbuffered):
    """With no reader left, exit 1 would read as a verdict: the command
    exits 141, as a shell reports SIGPIPE, and writes nothing to stderr.
    Stdout may be buffered, as in a terminal-less pipeline, or unbuffered
    (``PYTHONUNBUFFERED=1``), where --help meets the closed pipe inside
    argparse's own write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE, SRC, *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_importing_the_cli_leaves_out_dataclasses_and_what_it_loads():
    """``_value.Value`` replaces dataclasses so that these four modules,
    about 0.9 MB of resident memory, stay out of every command."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import braidact.cli;"
        " print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, SRC], capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
