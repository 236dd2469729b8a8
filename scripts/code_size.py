#!/usr/bin/env python3
"""Print the two size measures of the package source.

    python scripts/code_size.py [SRC_DIR]

``lines`` is the total of ``wc -l`` over ``SRC_DIR/*.py`` (default
``src/torusflux``).  ``settable`` counts the values a caller can set
without touching the code, over the AST: every parameter with a default of
a function or lambda, plus every annotated class field with a default.
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def measure(src: Path) -> tuple[int, int]:
    """``(lines, settable)`` over the ``*.py`` files of ``src``."""
    lines = settable = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        settable += settable_values(ast.parse(text, filename=str(path)))
    return lines, settable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "torusflux")
    lines, settable = measure(parser.parse_args().src)
    print(f"lines {lines}")
    print(f"settable {settable}")


if __name__ == "__main__":
    main()
