"""Print the code lines of each Python module under a directory, and their total.

A code line is a line of a module that is not blank, not a comment-only line,
and not part of a module, class or function docstring; the docstrings are
found from the module's AST. A change that claims fewer lines runs this on
the parent's tree and on its own:

    python tools/code_lines.py [dir]      # dir defaults to src/stwcr
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), start=1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/stwcr")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 1
    counts = {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
              for path in modules}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
