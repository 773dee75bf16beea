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
this platform's libm (``sin``, ``cos``, ``acos``): numpy's SIMD dispatch and
BLAS kernel must not move them, and a runner that disagrees is a finding
against the byte contract, not a reason to loosen the comparison.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

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


# Replays each entry (JSON list in argv[1]) as the CLI makes it, then with a
# draw of any size made by numpy's blocks, and prints both tables.
# ``pointprocess`` is imported first, so that it keeps its block size.
_DISPATCH_CHILD = """
import json, sys, tempfile
from pathlib import Path
from sagindome import _draw, pointprocess
from test_byte_corpus import replay
entries = json.loads(sys.argv[1])
tables = []
with tempfile.TemporaryDirectory() as work:
    for threshold in (_draw._BLOCK_ROWS, -1):
        _draw._BLOCK_ROWS = threshold
        tables.append([replay(entry, Path(work) / f"{threshold}-{index}")
                       for index, entry in enumerate(entries)])
print(json.dumps(tables))
"""


def _cpu_dispatch() -> list[str]:
    """The CPU features this numpy dispatches its SIMD loops to."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the features and kernels switched off are x86-64 ones")
@pytest.mark.parametrize("variable", ["NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"])
def test_sample_bytes_on_other_simd_and_blas(variable):
    # The corpus's samples and the criterion 10 samples, each made without
    # numpy and by numpy's blocks, in a child with numpy's SIMD loops held to
    # its baseline or with OpenBLAS's Nehalem kernel: the same bytes.
    from test_io import TestCsvFiles, criterion_10_descriptor

    entries = [entry for entry in json.loads(CORPUS.read_text(encoding="utf-8"))
               if entry["args"][0] == "sample"]
    entries += [dict(entries[0], descriptor=criterion_10_descriptor(mode), output=digest)
                for mode, digest in sorted(TestCsvFiles.CRITERION_10_SHA256.items())]
    value = " ".join(_cpu_dispatch()) if variable == "NPY_DISABLE_CPU_FEATURES" else "Nehalem"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(main.__code__.co_filename).parents[1]), str(Path(__file__).parent)]))
    env[variable] = value
    child = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, json.dumps(entries)],
                           env=env, capture_output=True, text=True, timeout=300, check=False)
    assert child.returncode == 0, child.stderr
    expected = [(entry["exit"], entry["output"]) for entry in entries]
    for table in json.loads(child.stdout):
        assert [(entry["exit"], entry["output"]) for entry in table] == expected
