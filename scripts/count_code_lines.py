#!/usr/bin/env python3
"""Count the code lines of Python files in a way refactors cannot game.

Usage::

    python scripts/count_code_lines.py [PATH ...] [--max-total N]

A *code line* is a physical line of a ``*.py`` file carrying at least one
token that is neither a comment nor part of a module/class/function
docstring.  Blank lines, comment-only lines and docstrings therefore count
for nothing, so deleting (or adding) documentation does not move the
number; only code does.  Tokens are found with :mod:`tokenize`, docstrings
with :mod:`ast`.

With no ``PATH`` it counts ``src/``.  Directories are walked recursively.
Prints one ``count  path`` line per file plus a total; with
``--max-total N`` it exits non-zero when the total exceeds ``N`` (a
ratchet for simplification PRs).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

_NON_CODE_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in ``source`` (see the module docstring)."""
    docstrings = docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE_TOKENS:
            continue
        rows = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        code.update(rows)
    return len(code)


def python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise SystemExit(f"{path}: not a directory or a .py file")
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[REPO_ROOT / "src"])
    parser.add_argument(
        "--max-total",
        type=int,
        default=None,
        metavar="N",
        help="exit non-zero when the total exceeds N",
    )
    args = parser.parse_args(argv)

    total = 0
    for path in python_files(args.paths):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    if args.max_total is not None and total > args.max_total:
        print(
            f"code-line total {total} exceeds --max-total {args.max_total}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
