#!/usr/bin/env python3
"""Count each module's total lines and code lines under a checkout's ``src/``.

A code line is a line that holds a token other than a comment, and other
than a module, class or function docstring: a line of a multi-line string
that is not a docstring counts, and so does a line of code that ends in a
comment.  Blank lines, comment lines and docstring lines do not.

Usage: python3 scripts/code_lines.py [--root DIR [--root DIR]]

With one ``--root`` (default: the checkout holding this script) it prints
one row per module, ``lines`` and ``code``, then a ``total`` row.  With two
it prints each count for the first root, for the second and the change
(``delta``) from the first to the second, so a commit can be compared with
its parent's checkout; a module that one root lacks counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
# tokens that hold no text of their own
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    spans = _docstring_spans(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or tok.type == tokenize.COMMENT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def module_counts(root: Path) -> dict[str, tuple[int, int]]:
    """(total lines, code lines) of each ``.py`` file under ``root/src``,
    keyed by its path relative to ``src``."""
    src = root / "src"
    return {
        path.relative_to(src).as_posix(): count_lines(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
    }


def _with_total(counts: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    total = (sum(c[0] for c in counts.values()), sum(c[1] for c in counts.values()))
    return {**counts, "total": total}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append", help="checkout to count (give two to compare)")
    args = parser.parse_args(argv)
    roots = args.root or [DEFAULT_ROOT]
    if len(roots) > 2:
        parser.error("at most two --root")
    for root in roots:
        if not (root / "src").is_dir():
            parser.error(f"{root} has no src/ directory")
    tables = [_with_total(module_counts(root)) for root in roots]
    names = sorted(set().union(*tables) - {"total"}) + ["total"]
    width = max(map(len, names))
    if len(tables) == 1:
        print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
        for name in names:
            lines, code = tables[0][name]
            print(f"{name:<{width}}  {lines:>6}  {code:>6}")
        return 0
    print(f"{'module':<{width}}  {'lines1':>6} {'lines2':>6} {'delta':>6}  {'code1':>6} {'code2':>6} {'delta':>6}")
    for name in names:
        (lines_a, code_a), (lines_b, code_b) = (t.get(name, (0, 0)) for t in tables)
        print(
            f"{name:<{width}}  {lines_a:>6} {lines_b:>6} {lines_b - lines_a:>+6}"
            f"  {code_a:>6} {code_b:>6} {code_b - code_a:>+6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
