"""Count code lines per module of ``src/``: non-blank lines outside
docstrings and comments, and the size of the package's ``__all__``, the
two gauges ROADMAP tracks.

    python3 tools/code_lines.py [directory]

Prints one ``<lines>  <path>`` row per ``.py`` file under the directory
(``src`` by default), a ``<lines>  total`` row and, for every
``__init__.py`` that assigns a literal ``__all__``, an
``<names>  __all__ <path>`` row.  A line counts when it holds a token other
than a comment or a docstring, so a statement that spans lines counts each
of its lines.  ``__all__`` is read by parsing the file; nothing is imported.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def all_size(source: str) -> int | None:
    """Number of names in a module-level ``__all__`` list or tuple literal."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return None


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total, exports = 0, []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {path}")
        if path.name == "__init__.py" and (names := all_size(source)) is not None:
            exports.append(f"{names:6d}  __all__ {path}")
    print(f"{total:6d}  total")
    for row in exports:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
