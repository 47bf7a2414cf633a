"""The README's examples run as written and show what it says they show.

The Python quick start is executed line by line: an expression line with a
trailing comment that starts with a Python literal must evaluate to that
literal, and one whose comment is prose must evaluate to True.  Every
command of the CLI block runs in process through ffba.cli.main and exits
0; `certificate-check` reads the JSON that the block's `gamma` line prints.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

from ffba.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang: str) -> str:
    """The first fenced block of the given language that is not the
    install snippet."""
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, re.S)
    return next(b for b in blocks if "pip install" not in b)


def _run(argv: list[str], stdin: str | None = None) -> tuple[int, str]:
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def test_python_quick_start_shows_its_commented_values():
    ns: dict = {}
    checked = 0
    for line in _block("python").splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            exec(code.strip(), ns)
            continue
        value = eval(code.strip(), ns)
        try:
            want = ast.literal_eval(comment.split(":")[0].strip())
        except (ValueError, SyntaxError):
            want = True                 # prose: the line states a truth
        assert value == want and type(value) is type(want), line
        checked += 1
    assert checked == 3


def _commands() -> list[list[str]]:
    text = _block("sh").replace("\\\n", " ")
    cmds = []
    for line in text.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "ffba", line
            cmds.append(argv[1:])
    return cmds


def test_cli_block_runs_and_states_what_the_readme_says():
    cmds = _commands()
    assert len(cmds) == 11
    outputs: dict[str, str] = {}
    for argv in cmds:
        stdin = None
        if argv[0] == "certificate-check":
            argv = [a if a != "cert.json" else "-" for a in argv]
            stdin = outputs["gamma"]
        rc, out = _run(argv, stdin)
        assert rc == 0, argv
        outputs[argv[0]] = out
    assert "bound: 0.5" in outputs["dimension"].splitlines()
    assert "period: 1048575" in outputs["expand"].splitlines()
    assert outputs["certificate-check"].startswith("ok: true")
