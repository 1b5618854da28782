"""Line counts of the quadsketch package, per module and in total.

    python3 tools/src_lines.py [package_dir]

Prints, for each module of src/quadsketch (or of package_dir), its raw line
count and its code line count: the lines that hold code, leaving out blank
lines, comment-only lines and the lines of docstrings (the string that opens
a module, class or function body).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadsketch"
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold a token of code that is not part of a docstring."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NON_CODE or tok.start[0] in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_raw = total_code = 0
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        raw = len(source.splitlines())
        code = code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{path.stem:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
