#!/usr/bin/env python3
"""Print the code lines of each module of a package and their total.

A code line is a physical line that holds a token of code: blank lines,
comment lines and the lines of module, class and function docstrings do
not count, so trimming comments or docs changes nothing here.  A
statement spread over several lines counts each of them.

    python3 tools/loc.py              # the modules of src/sawlab
    python3 tools/loc.py path/to/pkg  # the modules of another package
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_rows(tree: ast.Module) -> set[int]:
    """The rows spanned by the docstrings of ``tree``."""
    rows = set()
    for node in ast.walk(tree):
        if not isinstance(node, _HAS_DOCSTRING) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = _docstring_rows(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start[0] in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", default="src/sawlab",
                        help="directory whose *.py modules are counted")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(pathlib.Path(args.package).glob("*.py")):
        lines = code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
