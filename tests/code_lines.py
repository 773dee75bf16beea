"""Count the code lines of a package: no blank, comment or docstring lines.

A line counts when a token other than a comment, a line break or an
indentation marker starts on it or a token spans it, unless that token is
a docstring (the first statement of a module, class or function body, when
it is a string).  So a statement spread over several lines counts each of
them, and so does a string literal that is not a docstring.

Run from the repository root, on the working tree or on any commit::

    python tests/code_lines.py [DIR]          # default: src/sagindome
    python tests/code_lines.py --rev COMMIT [DIR]

It prints each module's count and then the total.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _sources(directory: str, rev: str | None) -> dict[str, str]:
    """Each module's source under ``directory``, in the working tree or at
    commit ``rev``, by its path relative to ``directory``."""
    if rev is None:
        return {str(path.relative_to(directory)): path.read_text(encoding="utf-8")
                for path in sorted(Path(directory).rglob("*.py"))}
    names = subprocess.run(["git", "ls-tree", "-r", "--name-only", rev, "--", directory],
                           check=True, capture_output=True, text=True).stdout.split()
    return {str(Path(name).relative_to(directory)): subprocess.run(
                ["git", "show", f"{rev}:{name}"], check=True, capture_output=True,
                text=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default="src/sagindome")
    parser.add_argument("--rev", help="count at this commit instead of the working tree")
    args = parser.parse_args(argv)
    total = 0
    for name, source in _sources(args.directory, args.rev).items():
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
