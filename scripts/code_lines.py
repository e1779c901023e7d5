"""Count non-blank lines and code lines per Python file and in total.

A code line is a non-blank line that is neither comment-only nor inside
the docstring of a module, class or function; docstrings are found with
`ast`, so a string that only looks like one (an assigned or passed
literal) still counts as code.  This is the rule ROADMAP's line counts
use.

Usage: python3 scripts/code_lines.py [DIR]    (default: src/rws)
"""

import argparse
import ast
from pathlib import Path


def docstring_lines(tree):
    """Line numbers covered by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path):
    """(non-blank lines, code lines) of one Python source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    nonblank = code = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        nonblank += 1
        if not stripped.startswith("#") and number not in docs:
            code += 1
    return nonblank, code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", default="src/rws")
    args = ap.parse_args(argv)
    total_nonblank = total_code = 0
    print(f"{'non-blank':>9} {'code':>6}  file")
    for path in sorted(Path(args.dir).rglob("*.py")):
        nonblank, code = count(path)
        total_nonblank += nonblank
        total_code += code
        print(f"{nonblank:>9} {code:>6}  {path}")
    print(f"{total_nonblank:>9} {total_code:>6}  total")


if __name__ == "__main__":
    main()
