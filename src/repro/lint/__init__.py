"""repro.lint: AST-based determinism & invariant linter for this repo.

Every guarantee this reproduction makes -- the Section 5.1 agreement
protocol, multi-tenant decision-neutrality, replica byte-identity under
chaos plans -- reduces to one contract: *decision paths are deterministic
pure functions of the token stream*. The property suites enforce that
contract dynamically, which means a hazard is invisible until a workload
happens to trip it. This package enforces the statically recognizable
part at commit time: ``python -m repro.lint src`` runs as its own step of
``scripts/verify.sh`` (and ``make lint``), failing on any violation no
reasoned pragma accepts.

Every rule encodes an invariant this codebase has actually shipped (or
narrowly dodged) a bug against:

``RPL001`` -- **no wall-clock reads in decision paths** (``core/``,
    ``runtime/``, ``service/``, ``api/``). Decisions must be functions of
    the token stream, never of the scheduler; time is modeled in
    processed operations (``core.jobs.completion_op``). Measurement
    lives in ``experiments/`` and ``analysis/metrics.py``, which are
    exempt by package.
``RPL002`` -- **no unseeded randomness**. Chaos runs and per-node jitter
    are reproducible because every random decision flows from an explicit
    seed (``repro.faults``); the process-global ``random`` module and
    seedless numpy generators are neither.
``RPL003`` -- **no builtin** ``hash()`` **in decision paths** unless the
    argument is provably str-free. ``PYTHONHASHSEED`` randomizes string
    hashing per process, so such a hash differs across the replicas of
    one session -- the exact hazard ``SessionSnapshot`` carried until it
    grew ``stable_digest()`` (PR 7), and why ``repro.faults`` always
    keyed fault schedules with a process-stable hash (now hoisted to
    :mod:`repro.stablehash`, which the fix hint points at). Int-only
    sites like the ``completion_op`` jitter carry a pragma: Python
    hashes ints to themselves.
``RPL004`` -- **ambient environment reads only in** ``api/config.py``.
    PR 3 centralized every ``REPRO_*`` knob in ``build_config`` with a
    documented precedence; the ad-hoc ``REPRO_SA_BACKEND`` read that
    survived inside ``core/sa_backends`` (removed in PR 7, this rule's
    first catch) was a second configuration surface parity tests could
    not pin.
``RPL005`` -- **memo/cache classes must not return stored mutable
    containers by reference**. The PR 2 executor-memo bug: a returned
    stored list, mutated by one caller, corrupted every later hit for
    every tenant sharing the memo. A stored entry is ``self.<map>[k]``,
    ``self.<map>.get(k)``, or an inherited ``self.get(k)`` (a memo
    that fronts a generic LRU).
``RPL006`` -- **teardown must be exception-safe**: methods named
    ``close*``/``release*``/``drop*`` are flagged for bare/swallowed
    exceptions and for multiple resource releases outside ``try``/
    ``finally`` -- the PR 5 service-lifecycle leak shape (a failed flush
    leaked the lane, factory runtime, and coordinator registration).
``RPL007`` -- **plugin tables must be** ``Registry`` **instances**, not
    bare module-level dicts: uniform unknown-name errors and
    ``repro.api.registries()`` visibility (the PR 3 pattern).
``RPL008`` -- **no iteration over unordered sets in decision paths**
    where order can leak into decisions; set order varies with insertion
    history and ``PYTHONHASHSEED`` across processes.
``RPL009`` -- **persist/trace serialize through ``repro.canon``**, whose
    one ``json.dumps`` is canonical (``sort_keys=True``, minimal
    separators): dehydrated session states and corpus fixtures are
    digest-stamped and compared by byte, so a non-canonical
    ``json.dumps`` breaks round-trip byte-stability.

Suppression is explicit and documented: a trailing (or immediately
preceding) ``# replint: allow[RPL003] <reason>`` comment suppresses one
line, and the reason is mandatory -- a reasonless pragma reports the
violation anyway, annotated. There is no other suppression path.

Adding a rule: subclass :class:`repro.lint.base.Rule` in
``repro/lint/rules.py``, decorate with ``@register_rule``, give it a
``rationale`` naming the bug it guards against, and add a true-positive
plus clean-twin fixture pair in ``tests/test_lint.py``.
"""

from repro.lint.base import (
    DECISION_PACKAGES,
    LINT_RULES,
    LintViolation,
    ModuleContext,
    Rule,
    is_decision_path,
    module_key,
    register_rule,
)
from repro.lint.pragmas import apply_pragmas, collect_pragmas
from repro.lint.walker import LintResult, lint_paths, lint_source
from repro.lint.cli import main

__all__ = [
    "DECISION_PACKAGES",
    "LINT_RULES",
    "LintResult",
    "LintViolation",
    "ModuleContext",
    "Rule",
    "apply_pragmas",
    "collect_pragmas",
    "is_decision_path",
    "lint_paths",
    "lint_source",
    "main",
    "module_key",
    "register_rule",
]
