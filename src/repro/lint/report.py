"""Rendering lint results as text (for humans/CI logs) and JSON (for tools).

The JSON document is a stable schema (``version`` bumps on change), so
``python -m repro.lint src --json`` is safe to consume from scripts; the
self-tests pin the shape.
"""

import json
from collections import Counter

from repro.lint.base import LINT_RULES

#: Schema version of the ``--json`` document.
JSON_VERSION = 2


def render_text(result):
    """Human-readable report; one line per violation plus a summary."""
    fresh = result.violations
    lines = []
    for violation in fresh:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.rule_id} {violation.message}"
        )
        if violation.note:
            lines.append(f"    note: {violation.note}")
        if violation.hint:
            lines.append(f"    hint: {violation.hint}")
    summary = (
        f"{len(fresh)} violation{'s' if len(fresh) != 1 else ''} "
        f"({len(result.suppressed)} suppressed by pragma) "
        f"in {result.files_checked} files"
    )
    if fresh:
        lines.append(summary)
    else:
        lines.append(f"clean: {summary}")
    return "\n".join(lines)


def render_json(result):
    """The machine-readable report as a dict (caller dumps it)."""
    fresh = result.violations
    counts = Counter(v.rule_id for v in fresh)
    return {
        "version": JSON_VERSION,
        "files_checked": result.files_checked,
        "rules_run": list(result.rules_run),
        "violations": [v.as_dict() for v in fresh],
        "counts": {rule: counts[rule] for rule in sorted(counts)},
        "suppressed": len(result.suppressed),
    }


def render_rules():
    """The ``--list-rules`` table: id, title, scope, rationale."""
    lines = []
    for rule_id in LINT_RULES.names():
        rule = LINT_RULES[rule_id]
        scope = "decision paths" if rule.decision_path_only else "all of src"
        lines.append(f"{rule_id}  {rule.title}  [{scope}]")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def dump_json(document):
    return json.dumps(document, indent=2)


__all__ = ["JSON_VERSION", "dump_json", "render_json", "render_rules",
           "render_text"]
