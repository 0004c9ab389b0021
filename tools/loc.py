"""Code lines per module of ``src/wingcp``: lines without blanks, comments or docstrings.

A line counts when it holds any token that is not a comment, a newline, an
indent or a docstring (the string statement that opens a module, class or
function body). A statement that spans several lines counts each of them.

    python3 tools/loc.py            # this checkout's src/wingcp
    python3 tools/loc.py DIR ...    # the .py files under each DIR
"""

import ast
import io
import os
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            doc = node.body[0]
            if isinstance(doc, ast.Expr) and isinstance(getattr(doc.value, "value", None), str):
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    roots = argv or [os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "wingcp")]
    for root in roots:
        counts = {}
        for folder, _, names in os.walk(root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    counts[os.path.relpath(path, root)] = code_lines(path)
        for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
            print(f"{n:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total ({os.path.normpath(root)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
