"""The CLI byte-diff tool on a small draw: no difference between a tree and
itself, and some once one digit of ``format_real`` is changed."""

import shutil
from pathlib import Path

import sagindome

import cli_diff

SRC = Path(sagindome.__file__).resolve().parents[1]
# Every subcommand, samples on and next to a block boundary included.
COUNT = 24


def test_same_tree_gives_no_difference():
    invocations, differences = cli_diff.diff(SRC, SRC, COUNT, seed=1)
    assert len(invocations) == COUNT and differences == {}
    report = cli_diff.report(invocations, differences, seed=1, show=5)
    assert report.splitlines()[-1].split() == ["all", str(COUNT), *["0"] * 5]


def test_planted_digit_shows(tmp_path):
    planted = tmp_path / "src"
    shutil.copytree(SRC, planted, ignore=shutil.ignore_patterns("__pycache__"))
    io_py = planted / "sagindome" / "io.py"
    text = io_py.read_text(encoding="utf-8")
    io_py.write_text(text.replace('format(float(value), ".17g")',
                                  'format(float(value), ".16g")'), encoding="utf-8")
    assert io_py.read_text(encoding="utf-8") != text
    invocations, differences = cli_diff.diff(SRC, planted, COUNT, seed=1)
    assert differences
    # format_real writes the JSON of coverage, count and sample.
    assert all("stdout" in fields for fields in differences.values())
    report = cli_diff.report(invocations, differences, seed=1, show=2)
    assert f"{len(differences)} differing" in report.splitlines()[0]
    assert report.count("\n#") == 2 and "stdout: line " in report
