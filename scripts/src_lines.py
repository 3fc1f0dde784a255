#!/usr/bin/env python3
"""Count the lines of each Python file under src/, and its code lines.

Usage: python scripts/src_lines.py [DIR]

A code line is one that is not blank, not only a comment and not part of a
module, class or function docstring. Prints one row per file, total lines
then code lines, and a last row for DIR (default: src/ of this checkout) as
a whole.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(total lines, code lines) of the Python source text."""
    lines = text.splitlines()
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT}
    skipped = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and i not in skipped and not (i in comments and line.lstrip().startswith("#")))
    return len(lines), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src"), help="the tree to count (default: src/)")
    args = parser.parse_args(argv)
    root = Path(args.dir)
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  {root.name}/ in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
