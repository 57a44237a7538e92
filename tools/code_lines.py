#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

The figure every simplicity PR reports (``src/repro`` = 11 951 at
``5d1cbc7``).  A line counts when it carries at least one token that is
not a comment, not whitespace/newline bookkeeping, and not part of a
docstring.  Tokens come from :mod:`tokenize`; docstring spans from
:mod:`ast` (the first statement of a module, class or function when it
is a bare string constant).

    python tools/code_lines.py                    # per-package table of src/repro
    python tools/code_lines.py src/repro/engine   # per-file table of one package

The tables are GitHub-flavoured markdown: legible in a terminal, and what
CI appends to the tier-1 job summary.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = frozenset(
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


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    counted: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - docstrings)


def count_tree(root: Path) -> dict[Path, int]:
    """``{file: code lines}`` for every ``*.py`` under ``root``."""
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return {path: code_lines(path.read_text(encoding="utf-8")) for path in files}


def _rows(root: Path, counts: dict[Path, int]) -> list[tuple[str, int]]:
    """One row per direct child of ``root``: a sub-package's total or a
    module's own count."""
    rows: dict[str, int] = {}
    for path, lines in counts.items():
        relative = path.relative_to(root) if path != root else Path(path.name)
        rows[relative.parts[0]] = rows.get(relative.parts[0], 0) + lines
    return sorted(rows.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, default=[Path("src/repro")])
    args = parser.parse_args(argv)
    for root in args.roots:
        if not root.exists():
            parser.error(f"no such path: {root}")
        counts = count_tree(root)
        print(f"| `{root}` | code lines |\n|---|---:|")
        for name, lines in [*_rows(root, counts), ("total", sum(counts.values()))]:
            print(f"| {name} | {lines} |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
