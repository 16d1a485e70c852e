"""The command-line transcripts in README.md, replayed.

Every ``$ formuniq ...`` line of a ``text`` block runs through
``cli.main`` in a fresh directory per block (so a block may write a file
with ``> FILE`` and read it in a later line), and its standard output
must match the lines shown under it, where ``...`` stands for any text,
whole lines included (doctest's ELLIPSIS rule).
"""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from formuniq.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts():
    """(first command, [(argv, redirect target or None, expected stdout)])
    for every text block holding ``$ formuniq`` lines."""
    blocks = re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S)
    out = []
    for block in blocks:
        steps = []
        for line in block.splitlines(keepends=True):
            if line.startswith("$ formuniq "):
                argv = shlex.split(line[len("$ formuniq "):])
                target = None
                if ">" in argv:
                    k = argv.index(">")
                    argv, target = argv[:k], argv[k + 1]
                steps.append((argv, target, ""))
            elif steps:
                argv, target, want = steps[-1]
                steps[-1] = (argv, target, want + line)
        if steps:
            out.append(steps)
    return out


BLOCKS = transcripts()


def test_readme_has_transcripts():
    commands = {steps[0][0][0] for steps in BLOCKS}
    assert {"analyze", "harmonic", "capacity", "family", "ends"} <= commands


@pytest.mark.parametrize(
    "steps", BLOCKS, ids=[" ".join(steps[-1][0][:3]) for steps in BLOCKS]
)
def test_readme_transcript(steps, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checker = doctest.OutputChecker()
    for argv, target, want in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        got = buf.getvalue()
        if target is not None:
            Path(target).write_text(got)
            got = ""
        if not checker.check_output(want, got, doctest.ELLIPSIS):
            pytest.fail(checker.output_difference(doctest.Example("", want), got, doctest.ELLIPSIS))
