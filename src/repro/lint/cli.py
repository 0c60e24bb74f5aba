"""``python -m repro.lint``: the command-line front door.

::

    python -m repro.lint src                 # text report
    python -m repro.lint src --json          # machine-readable report
    python -m repro.lint --list-rules        # rule table with rationale

Exit code is the number of violations no pragma suppressed, capped at :data:`EXIT_CAP` so it never collides with shell
signal codes; 0 means clean. The verify gate runs this as its own named
step -- see ``scripts/verify.sh``.
"""

import argparse
import sys

from repro.lint.report import (
    dump_json,
    render_json,
    render_rules,
    render_text,
)
from repro.lint.walker import lint_paths

#: Exit codes above this are reserved by shells (126/127/128+signal).
EXIT_CAP = 100


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & invariant linter for this repo "
            "(rules RPL001-RPL009; see --list-rules)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable JSON report",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its rationale and exit",
    )
    return parser


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules(), file=stdout)
        return 0
    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules else None
    )
    result = lint_paths(args.paths, rules=rules)
    if args.as_json:
        print(dump_json(render_json(result)), file=stdout)
    else:
        print(render_text(result), file=stdout)
    return min(len(result.violations), EXIT_CAP)


__all__ = ["EXIT_CAP", "build_parser", "main"]
