"""Record the CLI's help texts and usage errors for the running Python.

    PYTHONPATH=src python tests/data/record_cli_text.py

argparse words and wraps its text differently from one Python minor version
to the next, so ``cli_text.json`` keeps one recording per version.  This
script runs every argv of the 3.11 recording through ``fockspace.cli.main``
with ``COLUMNS=80`` and adds what it printed under the running version.  It
needs only the standard library.  It never replaces a recording: the 3.11
one was made from the hand-written parser that ``cli.COMMANDS`` replaced,
so it pins the parser the table must rebuild.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from fockspace.cli import main

PATH = Path(__file__).resolve().parent / "cli_text.json"


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run() -> int:
    text = json.loads(PATH.read_text())
    version = "%d.%d" % sys.version_info[:2]
    if version in text["recordings"]:
        sys.stderr.write(f"Python {version} is recorded already\n")
        return 1
    os.environ["COLUMNS"] = str(text["columns"])
    argvs = [case["argv"] for case in text["recordings"]["3.11"]]
    text["recordings"][version] = [record(argv) for argv in argvs]
    text["recordings"] = dict(sorted(text["recordings"].items()))
    PATH.write_text(json.dumps(text, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(run())
