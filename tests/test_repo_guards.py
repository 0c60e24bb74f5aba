"""Repo-level guards: the size budget and the documentation's pointers.

Both are pure ``ast`` / text passes over the checkout (the ``repro.lint``
style: nothing they check is imported).
"""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_src_stays_within_its_size_budget():
    """``src/repro`` may not silently regrow: its code-line total
    (``make loc``) is held to the checked-in ``size-budget.json``. A PR
    that needs more code raises the budget in-PR with ``make loc-budget``
    and the diff is the review."""
    spec = importlib.util.spec_from_file_location(
        "loc", ROOT / "scripts" / "loc.py"
    )
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    total = sum(loc.count().values())
    budget = json.loads((ROOT / "size-budget.json").read_text())["src/repro"]
    assert total <= budget, (
        f"src/repro holds {total} code lines, over the budget of {budget}"
    )
    # A comment, a blank line and a docstring are free; code is not.
    assert loc.code_lines('"""Doc."""\n\n# note\nx = 1  # why\n') == 1


#: Pointers the documents name on purpose although they do not resolve:
#: files a PR deleted (the text says so), and one target an open item
#: proposes.
UNRESOLVED_ON_PURPOSE = {
    "service/aggregates.py": "deleted in PR 12",
    "runtime/replication.py": "deleted in PR 12",
    "benchmarks/test_perf_service.py": "deleted in PR 13",
    "api/stats.py": "deleted in PR 22",
    "make lint-baseline": "deleted in PR 24",
    "make mutation-audit": "proposed by Open item 6",
}

_POINTER = re.compile(
    r"(?P<path>[\w./-]+\.py)(?::\d+(?:[–-]\d+)?)?(?:::(?P<name>\w+)[\w.]*)?"
    r"|make (?P<target>[a-z][a-z0-9-]*)( .*)?"
)


def _defined_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
    return names


@pytest.mark.parametrize("document", ["ROADMAP.md", "bench/README.md"])
def test_documented_pointers_resolve(document):
    """Every backticked ``path.py``, ``path.py::name`` and ``make
    target`` in the roadmap and the benchmark's README resolves: the
    file exists (from the repo root, ``src/``, ``src/repro/`` or the
    document's own directory; a bare file name anywhere in the tree),
    the name is defined in it, the target is in the ``Makefile``."""
    targets = set(re.findall(
        r"^([a-z][a-z0-9-]*):", (ROOT / "Makefile").read_text(), re.M
    ))
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro",
             (ROOT / document).parent)
    tracked = [
        path for top in ("src", "tests", "bench", "benchmarks", "scripts",
                         "examples")
        for path in (ROOT / top).rglob("*.py")
    ]
    text = (ROOT / document).read_text(encoding="utf-8")
    dangling = []
    for span in re.findall(r"`([^`\n]+)`", text):
        pointer = _POINTER.fullmatch(span)
        if pointer is None or span in UNRESOLVED_ON_PURPOSE:
            continue
        if pointer["target"]:
            if pointer["target"] not in targets:
                dangling.append(span)
            continue
        found = [base / pointer["path"] for base in bases
                 if (base / pointer["path"]).is_file()]
        if not found and "/" not in pointer["path"]:
            found = [p for p in tracked if p.name == pointer["path"]]
        if not found or (pointer["name"] and not any(
                pointer["name"] in _defined_names(path) for path in found)):
            dangling.append(span)
    assert dangling == []
