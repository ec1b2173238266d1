"""Count the code lines of Python modules.

A code line is a non-blank line that is neither comment-only nor inside the
docstring of a module, class or function.  Prints one count per module and
the total:

    python3 tools/code_lines.py                  # the modules of src/hhlax
    python3 tools/code_lines.py FILE.py ...      # the given files
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hhlax"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docstrings = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )


def main(paths: list[str]) -> None:
    files = [Path(path) for path in paths] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:5d}")
    print(f"{'total':<20} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
