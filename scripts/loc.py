#!/usr/bin/env python3
"""Count the code lines of ``src/repro``: the size the shrink is held to.

A *code line* holds at least one token that is not a comment and is not
part of a docstring -- found with ``ast`` + ``tokenize``, without
importing the counted code (the ``repro.lint`` style). Blank lines,
comment-only lines and docstrings are documentation, so adding them is
free and deleting them is not a reduction.

    python3 scripts/loc.py            # per package and in total; exit 1
                                      # when over size-budget.json (`make loc`)
    python3 scripts/loc.py --write    # rewrite size-budget.json (`make loc-budget`)

``size-budget.json`` is an accept-the-delta file: a PR that needs more
code raises the budget deliberately, and the diff is the review. ``tests/test_repo_guards.py`` runs the check in tier-1.
"""

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
BUDGET = ROOT / "size-budget.json"

_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """How many lines of ``source`` hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(source_root=SOURCE):
    """``{package: code lines}`` (top-level modules under ``"."``)."""
    packages = {}
    for path in sorted(source_root.rglob("*.py")):
        relative = path.relative_to(source_root)
        package = relative.parts[0] if len(relative.parts) > 1 else "."
        packages[package] = packages.get(package, 0) + code_lines(
            path.read_text(encoding="utf-8")
        )
    return packages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current total as the budget")
    args = parser.parse_args(argv)
    packages = count()
    total = sum(packages.values())
    if args.write:
        BUDGET.write_text(json.dumps({"src/repro": total}, indent=2) + "\n")
        print(f"size-budget.json: {total} code lines")
        return 0
    for package, lines in packages.items():
        print(f"{lines:6d}  {package}")
    print(f"{total:6d}  total")
    budget = json.loads(BUDGET.read_text())["src/repro"]
    if total > budget:
        print(f"over budget: {total} > {budget} code lines; shrink, or "
              f"raise it deliberately with `make loc-budget`",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
