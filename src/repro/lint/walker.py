"""File discovery and the per-module lint pass.

One :func:`ast.parse` per file; every enabled rule walks the same tree
through a shared :class:`~repro.lint.base.ModuleContext`. Files are
visited in sorted path order and rules in sorted id order, so output (and
therefore the exit code) is deterministic -- the linter
holds itself to the invariants it checks.
"""

import ast
from pathlib import Path

# Importing the rules module registers every rule in LINT_RULES.
import repro.lint.rules  # noqa: F401  (registration side effect)
from repro.lint.base import LINT_RULES, LintViolation, ModuleContext
from repro.lint.pragmas import apply_pragmas, collect_pragmas

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis"})


class LintResult:
    """Outcome of one lint run: what no pragma accepted, and what one did."""

    __slots__ = ("violations", "suppressed", "files_checked", "rules_run")

    def __init__(self, violations, suppressed, files_checked, rules_run):
        self.violations = violations
        self.suppressed = suppressed
        self.files_checked = files_checked
        self.rules_run = rules_run


def iter_python_files(paths):
    """Every ``.py`` file under ``paths``, sorted, each exactly once."""
    seen = set()
    files = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    files.sort(key=str)
    return files


def resolve_rules(rule_ids=None):
    """The rule objects to run, sorted by id; ``None`` means all."""
    if rule_ids is None:
        names = LINT_RULES.names()
    else:
        names = sorted(rule_ids)
    return [LINT_RULES[name] for name in names]


def lint_source(source, path, rules=None):
    """Lint one module's source text; returns (kept, suppressed).

    ``path`` drives package classification (decision-path or not) via its
    ``repro/...`` suffix; see :func:`repro.lint.base.module_key`. This is
    the entry point the self-tests use on fixture snippets.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        violation = LintViolation(
            "RPL000", str(path), exc.lineno or 1, exc.offset or 0,
            f"syntax error: {exc.msg}",
            hint="the linter only checks files that parse",
        )
        return [violation], []
    ctx = ModuleContext(path, source, tree)
    violations = []
    for rule in resolve_rules(rules):
        if rule.applies_to(ctx):
            violations.extend(rule.check(ctx))
    violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return apply_pragmas(violations, collect_pragmas(ctx.lines))


def lint_paths(paths, rules=None):
    """Lint every Python file under ``paths``; returns a :class:`LintResult`."""
    files = iter_python_files(paths)
    rule_objs = resolve_rules(rules)
    kept_all, suppressed_all = [], []
    for path in files:
        source = path.read_text(encoding="utf-8")
        kept, suppressed = lint_source(
            source, path, rules=[r.rule_id for r in rule_objs]
        )
        kept_all.extend(kept)
        suppressed_all.extend(suppressed)
    return LintResult(
        kept_all, suppressed_all, len(files),
        [r.rule_id for r in rule_objs],
    )


__all__ = ["LintResult", "iter_python_files", "lint_paths", "lint_source",
           "resolve_rules"]
