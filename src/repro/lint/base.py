"""Rule base class, violation record, and the lint-rule registry.

Rules are plugins, registered in :data:`LINT_RULES` -- an instance of the
one :class:`repro.registry.Registry` pattern behind every other extension
point in the repo (tracing backends, config profiles, apps, fault
plans). A rule is a stateless object with a :meth:`Rule.check` generator;
the walker (:mod:`repro.lint.walker`) parses each file once and hands
every rule the same :class:`ModuleContext`.

The linter must itself be deterministic (it lints the determinism of
everything else): rules run in sorted rule-id order, files in sorted path
order, and nothing here consults a set's iteration order or the
environment.
"""

import ast
from pathlib import PurePath

from repro.registry import Registry

#: Package prefixes (relative to the ``repro`` package root) whose modules
#: are *decision paths*: code whose outputs must be pure functions of the
#: token stream, because the Section 5.1 agreement protocol, multi-tenant
#: decision-neutrality, and replica byte-identity all assume it. Rules
#: with ``decision_path_only = True`` fire only inside these packages;
#: ``experiments/``, ``analysis/`` (measurement + ablation baselines),
#: ``apps/`` (workload generators) and the linter itself stay exempt.
DECISION_PACKAGES = (
    "repro/core/",
    "repro/runtime/",
    "repro/service/",
    "repro/api/",
)


def module_key(path):
    """Stable ``repro/...`` suffix of ``path``, or ``None``.

    Reported paths vary with how the linter was invoked (``src``, an
    absolute tmp dir, a single file); the module key is the suffix from
    the last ``repro`` path component on, so package classification
    survives any invocation style.
    """
    parts = PurePath(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return None


def is_decision_path(key):
    """True when ``key`` (a :func:`module_key`) is decision-path code."""
    if key is None:
        return False
    return any(key.startswith(prefix) for prefix in DECISION_PACKAGES)


class LintViolation:
    """One rule violation at one source location."""

    __slots__ = ("rule_id", "path", "line", "col", "message", "hint",
                 "note")

    def __init__(self, rule_id, path, line, col, message, hint=None,
                 note=None):
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.hint = hint
        self.note = note

    def as_dict(self):
        data = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.hint:
            data["hint"] = self.hint
        if self.note:
            data["note"] = self.note
        return data

    def __repr__(self):
        return (
            f"LintViolation({self.rule_id}, {self.path}:{self.line}:"
            f"{self.col}, {self.message!r})"
        )


class ModuleContext:
    """Everything a rule may consult about one parsed module."""

    __slots__ = ("path", "key", "decision_path", "lines", "tree", "aliases")

    def __init__(self, path, source, tree):
        self.path = str(path)
        self.key = module_key(path)
        self.decision_path = is_decision_path(self.key)
        self.lines = source.splitlines()
        self.tree = tree
        self.aliases = _import_aliases(tree)

    def resolve(self, node):
        """Dotted name of a Name/Attribute chain, through import aliases.

        ``np.random.rand`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; ``perf_counter`` resolves to
        ``time.perf_counter`` under ``from time import perf_counter``.
        Chains rooted in anything but a plain name (calls, subscripts)
        resolve to ``None`` -- rules only match statically recognizable
        access paths.
        """
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        chain.append(root)
        return ".".join(reversed(chain))

    def violation(self, rule, node, message, hint=None):
        """Build a :class:`LintViolation` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return LintViolation(
            rule.rule_id, self.path, line, col, message,
            hint=hint if hint is not None else rule.hint,
        )


def _import_aliases(tree):
    """Map local names to the dotted import paths they stand for."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`rule_id` (``RPLnnn``), :attr:`title` (one-line
    summary for ``--list-rules``), :attr:`rationale` (the originating bug
    or hazard, shown in documentation), optionally :attr:`hint` (the
    default fix suggestion attached to violations), and implement
    :meth:`check` as a generator of :class:`LintViolation`.
    """

    rule_id = None
    title = ""
    rationale = ""
    hint = None
    #: When True the rule fires only in :data:`DECISION_PACKAGES` modules.
    decision_path_only = False

    def applies_to(self, ctx):
        return ctx.decision_path or not self.decision_path_only

    def check(self, ctx):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.rule_id})"


#: The lint-rule plugin point. Keyed by rule id; iteration respects
#: registration order, but the walker always runs rules sorted by id.
LINT_RULES = Registry("lint rule")


def register_rule(cls):
    """Class decorator: instantiate and register a :class:`Rule`."""
    LINT_RULES.register(cls.rule_id, cls())
    return cls


__all__ = [
    "DECISION_PACKAGES",
    "LINT_RULES",
    "LintViolation",
    "ModuleContext",
    "Rule",
    "is_decision_path",
    "module_key",
    "register_rule",
]
