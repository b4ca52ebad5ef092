"""Split a package's source lines into code, docstring, comment and blank.

Each line of each ``.py`` file falls in exactly one class, decided in this
order: a line inside the docstring of a module, class or function (found
with ``ast``) is docstring; else an empty or whitespace-only line is blank;
else a line whose first non-space character is ``#`` is comment; every
other line is code. Prints one row per module and the total::

    python tools/src_lines.py                 # src/sigma_opt
    python tools/src_lines.py path/to/package
"""

import ast
import sys
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def partition(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    doc = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in doc:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/sigma_opt")
    files = sorted(root.rglob("*.py"))
    if not files:
        sys.exit(f"no .py files under {root}")
    total = dict.fromkeys(CLASSES, 0)
    width = max(len(str(f.relative_to(root))) for f in files)
    print(f"{'module':<{width}} {'total':>6} " + " ".join(f"{c:>9}" for c in CLASSES))
    for f in files:
        counts = partition(f)
        for c in CLASSES:
            total[c] += counts[c]
        print(f"{str(f.relative_to(root)):<{width}} {sum(counts.values()):>6} "
              + " ".join(f"{counts[c]:>9}" for c in CLASSES))
    print(f"{'total':<{width}} {sum(total.values()):>6} "
          + " ".join(f"{total[c]:>9}" for c in CLASSES))


if __name__ == "__main__":
    main(sys.argv)
