"""The byte contract as data: fixed CLI invocations and the digests of what
each one prints and writes.

``byte_corpus.json`` holds one entry per invocation: its arguments, the text
of the descriptor it reads (as ``d.json``, if any), its exit code and the
sha256 of its standard output, its standard error and the file it writes
(``out.csv``, or null).  Each entry runs in-process through ``cli.main`` in
an empty working directory of its own.

A digest that moves is a contract change.  It must be declared in
CHANGES.md; the failing test prints the whole new table, which then replaces
the file, so the change shows as a diff of that one file.  The digests pin
this platform's libm (``sin``, ``cos``, ``acos``), numpy SIMD dispatch
(``np.arcsin``) and BLAS kernel (the rotation of a sample): a runner that
disagrees is a finding against the byte contract, not a reason to loosen
the comparison.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from sagindome.cli import main

CORPUS = Path(__file__).with_name("byte_corpus.json")
DESCRIPTOR = "d.json"
OUTPUT = "out.csv"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(entry: dict, cwd: Path) -> dict:
    """The entry with the exit code and digests of running it in ``cwd``."""
    cwd.mkdir()
    if entry.get("descriptor") is not None:
        (cwd / DESCRIPTOR).write_text(entry["descriptor"], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(entry["args"]))
    finally:
        os.chdir(here)
    written = cwd / OUTPUT
    return {
        "args": entry["args"],
        "descriptor": entry.get("descriptor"),
        "exit": code,
        "stdout": _sha256(out.getvalue().encode("utf-8")),
        "stderr": _sha256(err.getvalue().encode("utf-8")),
        "output": _sha256(written.read_bytes()) if written.exists() else None,
    }


def table_text(table: list[dict]) -> str:
    """The corpus file's text: one entry a line, so a change is a line diff."""
    return "[\n" + ",\n".join(json.dumps(entry) for entry in table) + "\n]\n"


def test_every_invocation_keeps_its_bytes(tmp_path):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    table = [replay(entry, tmp_path / str(index)) for index, entry in enumerate(corpus)]
    moved = [f"{index}: {' '.join(entry['args'])}"
             for index, (entry, now) in enumerate(zip(corpus, table)) if entry != now]
    assert not moved, (
        f"{len(moved)} of {len(corpus)} invocations changed bytes:\n" + "\n".join(moved)
        + "\n\nThe new table:\n" + table_text(table))
