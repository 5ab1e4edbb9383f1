"""Recorded command-line transcripts: stdout, stderr and exit code.

Each command in ``COMMANDS`` runs in process through ``cli.main`` and
must reproduce, byte for byte, the transcript stored for it in
``data/cli_transcripts.json``: the README's command-line examples, the
north-star ``verify all`` runs, a parse error (exit 2) and a ball over
its work budget (exit 3).  After a deliberate change of output, record
the transcripts again with

    PYTHONPATH=src python tests/test_cli_transcripts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

from braidact import IntMatrix
from braidact.cli import main

DATA = pathlib.Path(__file__).with_name("data") / "cli_transcripts.json"

COMMANDS = (
    # The README's command-line examples.
    ["apply", "1", "b1", "--genus", "2"],
    ["apply", "3", "b2", "--genus", "2"],
    ["matrix", "DELTA6", "--genus", "2"],
    ["matrix", "1", "--genus", "2", "--json"],
    ["equal", "1 2 1", "2 1 2"],
    ["equal", "GAMMA", "1 -3 5"],
    ["parse", "braid", "ALPHA"],
    ["verify", "relations", "--genus", "3"],
    ["verify", "all", "--genus", "2", "--json"],
    # The north-star command and the suites it merges.
    ["verify", "all", "--genus", "4", "--max-len", "5", "--json"],
    ["verify", "all", "--genus", "2"],
    ["verify", "monoid", "--genus", "3", "--max-len", "6", "--json"],
    ["verify", "sp4", "--json"],
    # A parse error exits 2, a ball over the budget exits 3.
    ["parse", "omega", "u1 u3", "--genus", "2"],
    ["verify", "monoid", "--genus", "30", "--max-len", "8"],
)


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {tuple(t["argv"]): t for t in json.loads(DATA.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_reproduces_its_transcript(recorded, argv):
    assert transcript(argv) == recorded[tuple(argv)]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_reaches_the_adjugate(recorded, monkeypatch, argv):
    """Every matrix word folds over a twist table, so the transcripts hold
    with the adjugate inverse gone."""
    def adjugate(self):
        raise AssertionError("IntMatrix.inverse was called")

    monkeypatch.setattr(IntMatrix, "inverse", adjugate)
    assert transcript(argv) == recorded[tuple(argv)]


def test_every_transcript_has_a_command(recorded):
    assert sorted(recorded) == sorted(map(tuple, COMMANDS))


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([transcript(a) for a in COMMANDS], indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
