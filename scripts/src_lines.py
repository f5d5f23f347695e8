"""Count the code lines and docstring lines of ``src/cmtori``.

    python scripts/src_lines.py

A docstring line is a line spanned by the docstring of a module, class or
function.  A code line is any other line that holds a token besides a
comment: blank lines, comment-only lines and docstrings are left out.
Prints one line per module and a total:

    <module> code=<n> docstring=<n>
    total code=<n> docstring=<n>

It counts the checkout that holds it; to compare two checkouts, run a
copy of it in each.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module."""
    docs = docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main():
    total_code = total_docs = 0
    for path in sorted((ROOT / "src" / "cmtori").glob("*.py")):
        code, docs = count(path.read_text())
        total_code += code
        total_docs += docs
        print(f"{path.name} code={code} docstring={docs}")
    print(f"total code={total_code} docstring={total_docs}")


if __name__ == "__main__":
    main()
