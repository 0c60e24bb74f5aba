"""Per-line suppressions: the one way to accept a violation.

``# replint: allow[RPL003] reason`` on (or directly above) the offending
line. Permanent, reviewed annotations for sites that are intentional: the
pragma *requires a reason*, so every suppression documents itself. A
reasonless pragma does not suppress -- the violation is reported with a
note saying why.
"""

import re

#: ``# replint: allow[RPL001,RPL004] why this is fine``
_PRAGMA_RE = re.compile(
    r"#\s*replint:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(.*)$"
)


class Pragma:
    """One parsed suppression comment."""

    __slots__ = ("line", "rule_ids", "reason", "standalone")

    def __init__(self, line, rule_ids, reason, standalone):
        self.line = line
        self.rule_ids = rule_ids
        self.reason = reason
        #: A pragma on a comment-only line applies to the next code line.
        self.standalone = standalone

    def suppresses(self, violation):
        if violation.rule_id not in self.rule_ids:
            return False
        if self.standalone:
            return violation.line == self.line + 1
        return violation.line == self.line


def collect_pragmas(lines):
    """Parse every ``replint: allow`` pragma in ``lines``."""
    pragmas = []
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        rule_ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = match.group(2).strip()
        standalone = text.strip().startswith("#")
        pragmas.append(Pragma(lineno, rule_ids, reason, standalone))
    return pragmas


def apply_pragmas(violations, pragmas):
    """Split ``violations`` into (kept, suppressed).

    A matching pragma with a reason suppresses; a matching pragma
    *without* a reason keeps the violation and annotates it, so lazy
    blanket suppressions are visible in review.
    """
    kept, suppressed = [], []
    for violation in violations:
        verdict = None
        for pragma in pragmas:
            if pragma.suppresses(violation):
                verdict = pragma
                break
        if verdict is None:
            kept.append(violation)
        elif verdict.reason:
            suppressed.append(violation)
        else:
            violation.note = (
                "pragma present but missing a reason; add one to suppress"
            )
            kept.append(violation)
    return kept, suppressed


__all__ = ["Pragma", "apply_pragmas", "collect_pragmas"]
