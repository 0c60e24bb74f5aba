"""The rule set: every invariant this repo has shipped a bug against.

Each rule names the real hazard that motivated it (see the package
docstring in :mod:`repro.lint` for the full table). Rules are pure AST
passes -- no imports of the linted code, no execution -- so they run on
any tree :func:`ast.parse` accepts.
"""

import ast

from repro.lint.base import Rule, register_rule

# ----------------------------------------------------------------------
# RPL001 -- wall-clock reads in decision paths
# ----------------------------------------------------------------------

#: Callables whose return value depends on when (not what) you ask.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@register_rule
class WallClockRule(Rule):
    rule_id = "RPL001"
    title = "no wall-clock reads in decision paths"
    rationale = (
        "Replica byte-identity and multi-tenant decision-neutrality hold "
        "because decisions are pure functions of the token stream; a "
        "wall-clock read makes them functions of the scheduler. Time is "
        "modeled in processed operations (see core.jobs.completion_op); "
        "measurement belongs in experiments/ or analysis/metrics.py."
    )
    hint = (
        "model time in operations (core.jobs.completion_op) or move the "
        "measurement into experiments/"
    )
    decision_path_only = True

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield ctx.violation(
                    self, node,
                    f"wall-clock read {resolved}() in a decision-path "
                    f"module",
                )


# ----------------------------------------------------------------------
# RPL002 -- unseeded randomness
# ----------------------------------------------------------------------

#: numpy.random constructors that are deterministic *when given a seed*.
_NP_SEEDABLE = frozenset({"default_rng", "RandomState", "Generator",
                          "SeedSequence", "PCG64", "Philox", "MT19937"})


@register_rule
class UnseededRandomRule(Rule):
    rule_id = "RPL002"
    title = "no unseeded randomness"
    rationale = (
        "Chaos runs, per-node jitter, and the sampling schedules are all "
        "reproducible because every random decision flows from an "
        "explicit seed (repro.faults mixes seeds with a process-stable "
        "hash). The global random module is shared mutable state seeded "
        "by the interpreter; numpy generators without a seed differ per "
        "process."
    )
    hint = (
        "construct random.Random(seed) / numpy default_rng(seed) with an "
        "explicit seed and pass it down"
    )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith("random."):
                tail = resolved[len("random."):]
                if tail in ("Random", "SystemRandom"):
                    if not node.args and not node.keywords:
                        yield ctx.violation(
                            self, node,
                            f"{resolved}() constructed without an explicit "
                            f"seed",
                        )
                elif "." not in tail:
                    yield ctx.violation(
                        self, node,
                        f"call to the process-global generator "
                        f"{resolved}()",
                    )
            elif resolved.startswith("numpy.random."):
                tail = resolved[len("numpy.random."):]
                if tail in _NP_SEEDABLE:
                    if not node.args and not node.keywords:
                        yield ctx.violation(
                            self, node,
                            f"{resolved}() constructed without an explicit "
                            f"seed",
                        )
                else:
                    yield ctx.violation(
                        self, node,
                        f"call to the process-global numpy generator "
                        f"{resolved}()",
                    )


# ----------------------------------------------------------------------
# RPL003 -- builtin hash() in decision paths
# ----------------------------------------------------------------------

#: Builtins that always return an int, whatever their argument.
_INT_VALUED_CALLS = frozenset({"len", "int", "id", "ord", "abs", "round",
                               "hash"})


def _provably_str_free(node):
    """True when ``node`` cannot evaluate to (or contain) a str/bytes.

    Deliberately conservative: literals, tuples/lists of such, arithmetic
    over such, and int-valued builtin calls. Anything involving a bare
    name is unprovable -- annotate those sites with a pragma when they
    are int-only by construction (e.g. the jitter mix in core/jobs.py).
    """
    if isinstance(node, ast.Constant):
        return not isinstance(node.value, (str, bytes))
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_provably_str_free(elt) for elt in node.elts)
    if isinstance(node, ast.BinOp):
        return (_provably_str_free(node.left)
                and _provably_str_free(node.right))
    if isinstance(node, ast.UnaryOp):
        return _provably_str_free(node.operand)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name)
                and node.func.id in _INT_VALUED_CALLS)
    return False


@register_rule
class BuiltinHashRule(Rule):
    rule_id = "RPL003"
    title = "no PYTHONHASHSEED-dependent hash() in decision paths"
    rationale = (
        "Python randomizes str/bytes hashing per process "
        "(PYTHONHASHSEED), so hash() of anything that may contain a "
        "string differs across the replicas of one session. Integers "
        "hash to themselves, which is what keeps completion_op's jitter "
        "stable; everything else needs repro.stablehash."
    )
    hint = (
        "use repro.stablehash.stable_hash / stable_digest for any "
        "identity that crosses a process boundary"
    )
    decision_path_only = True

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                continue
            if len(node.args) == 1 and _provably_str_free(node.args[0]):
                continue
            yield ctx.violation(
                self, node,
                "builtin hash() on a value not provably str-free "
                "(PYTHONHASHSEED makes it differ across processes)",
            )


# ----------------------------------------------------------------------
# RPL004 -- ambient environment reads
# ----------------------------------------------------------------------

#: The one module allowed to consult the ambient environment: the config
#: builder is the single env surface (REPRO_* layering, PR 3).
_ENV_SURFACE = "repro/api/config.py"

_ENV_ATTRS = frozenset({"os.environ", "os.environb"})
_ENV_CALLS = frozenset({"os.getenv"})


@register_rule
class AmbientEnvRule(Rule):
    rule_id = "RPL004"
    title = "ambient os.environ reads only in api/config.py"
    rationale = (
        "build_config (PR 3) centralized every REPRO_* knob with a "
        "documented precedence (profile < overrides < environment); an "
        "env read anywhere else is a second, undocumented configuration "
        "surface that parity tests cannot pin (the old ad-hoc "
        "REPRO_SA_BACKEND read inside backend resolution was exactly "
        "this)."
    )
    hint = (
        "accept the value as an explicit parameter and let "
        "repro.api.config.build_config read the environment"
    )

    def applies_to(self, ctx):
        return ctx.key != _ENV_SURFACE

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                resolved = ctx.resolve(node)
                if resolved in _ENV_ATTRS:
                    yield ctx.violation(
                        self, node,
                        f"ambient environment read ({resolved}) outside "
                        f"api/config.py",
                    )
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if resolved in _ENV_CALLS:
                    yield ctx.violation(
                        self, node,
                        f"ambient environment read ({resolved}()) outside "
                        f"api/config.py",
                    )


# ----------------------------------------------------------------------
# RPL005 -- memo/cache aliasing
# ----------------------------------------------------------------------

def _self_attr(node):
    """True for ``self.<attr>`` access."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _stored_lookup(node):
    """True for expressions that read an entry out of ``self.<storage>``:
    ``self._entries[key]``, ``self._entries.get(key, ...)``, or the
    class's own (often inherited) ``self.get(key)`` -- a memo that is a
    front over a generic map reads its entries that way."""
    if isinstance(node, ast.Subscript) and _self_attr(node.value):
        return True
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and (
        (func.attr in ("get", "setdefault") and _self_attr(func.value))
        or (func.attr == "get" and getattr(func.value, "id", "") == "self")
    )


@register_rule
class MemoAliasRule(Rule):
    rule_id = "RPL005"
    title = "memo/cache classes must not return stored containers by reference"
    rationale = (
        "The PR 2 executor memo returned its stored result list by "
        "reference; one caller's in-place mutation corrupted every later "
        "hit for every tenant sharing the memo. Copy on the way out "
        "(list(entry)), like MiningMemo does now -- also when the entry "
        "comes from an inherited self.get()."
    )
    hint = "return a copy (list(entry) / dict(entry)), never the stored object"

    def check(self, ctx):
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not (cls.name.endswith("Memo") or cls.name.endswith("Cache")):
                continue
            for func in cls.body:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                yield from self._check_method(ctx, cls, func)

    def _check_method(self, ctx, cls, func):
        tainted = set()
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign)
                    and _stored_lookup(node.value)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
            elif isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                aliased = _stored_lookup(value) or (
                    isinstance(value, ast.Name) and value.id in tainted
                )
                if aliased:
                    yield ctx.violation(
                        self, node,
                        f"{cls.name}.{func.name} returns a stored entry "
                        f"by reference (mutation by the caller corrupts "
                        f"later hits)",
                    )


# ----------------------------------------------------------------------
# RPL006 -- exception safety in teardown methods
# ----------------------------------------------------------------------

_TEARDOWN_PREFIXES = ("close", "release", "drop")

#: Callee-name prefixes that look like "releasing a resource".
_RELEASE_PREFIXES = ("close", "release", "drop", "pop", "clear",
                     "unregister", "remove", "shutdown", "dispose")


def _handler_swallows(handler):
    """True when an except body does nothing (pass / docstring only)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)):
            continue
        return False
    return True


def _handler_reraises(handler):
    return any(isinstance(stmt, ast.Raise) for stmt in ast.walk(handler))


def _is_release_action(stmt):
    if isinstance(stmt, ast.Delete):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name is not None:
            return name.startswith(_RELEASE_PREFIXES)
    return False


@register_rule
class TeardownRule(Rule):
    rule_id = "RPL006"
    title = "teardown methods must be exception-safe"
    rationale = (
        "The PR 5 service bugs were all this shape: close_session did "
        "several releases in sequence, the first raised, and the lane / "
        "factory runtime / coordinator registration leaked. Releases "
        "after the first belong in a finally block; swallowing the "
        "exception instead hides the leak."
    )
    hint = (
        "put follow-up releases in try/finally and let (or make) the "
        "first error propagate"
    )

    def check(self, ctx):
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not func.name.startswith(_TEARDOWN_PREFIXES):
                continue
            yield from self._check_teardown(ctx, func)

    def _check_teardown(self, ctx, func):
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None and not _handler_reraises(node):
                    yield ctx.violation(
                        self, node,
                        f"bare except in teardown method {func.name} "
                        f"(masks every failure, including the leak it "
                        f"causes)",
                    )
                elif _handler_swallows(node):
                    yield ctx.violation(
                        self, node,
                        f"swallowed exception in teardown method "
                        f"{func.name} (except-pass hides a failed "
                        f"release)",
                    )
        unprotected = []
        self._collect_releases(func.body, False, unprotected)
        if len(unprotected) >= 2:
            yield ctx.violation(
                self, unprotected[1],
                f"{len(unprotected)} resource releases in {func.name} "
                f"outside try/finally (if the first raises, the rest "
                f"never run)",
            )

    def _collect_releases(self, stmts, protected, out):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are their own scope
            if _is_release_action(stmt) and not protected:
                out.append(stmt)
            if isinstance(stmt, ast.Try):
                # A try with a finally is the sanctioned shape: whatever
                # the body does, the finalbody runs. Everything inside
                # such a try counts as protected.
                shielded = protected or bool(stmt.finalbody)
                self._collect_releases(stmt.body, shielded, out)
                for handler in stmt.handlers:
                    self._collect_releases(handler.body, shielded, out)
                self._collect_releases(stmt.orelse, shielded, out)
                self._collect_releases(stmt.finalbody, shielded, out)
            else:
                for field in ("body", "orelse"):
                    self._collect_releases(
                        getattr(stmt, field, []), protected, out
                    )


# ----------------------------------------------------------------------
# RPL007 -- plugin tables must be Registry instances
# ----------------------------------------------------------------------

def _is_implementation_ref(node):
    """True for dict values that reference an implementation."""
    return isinstance(node, (ast.Name, ast.Attribute, ast.Lambda))


@register_rule
class BareRegistryRule(Rule):
    rule_id = "RPL007"
    title = "plugin tables must be Registry instances, not bare dicts"
    rationale = (
        "repro.registry.Registry (PR 3) is the one pattern behind every "
        "extension point: uniform unknown-name errors that list the "
        "known entries, uniform registration, and surfacing through "
        "repro.api.registries(). A bare module-level dict gives a bare "
        "KeyError and is invisible to introspection."
    )
    hint = "wrap the table: NAME = Registry(\"<kind>\", {...})"

    def check(self, ctx):
        for stmt in ctx.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Name)
                        and target.id.isupper()):
                    continue
                value = stmt.value
                if isinstance(value, ast.Dict):
                    if value.values and all(
                        _is_implementation_ref(v) for v in value.values
                    ):
                        yield ctx.violation(
                            self, stmt,
                            f"module-level plugin table {target.id} is a "
                            f"bare dict",
                        )
                elif isinstance(value, ast.DictComp):
                    if _is_implementation_ref(value.value):
                        yield ctx.violation(
                            self, stmt,
                            f"module-level plugin table {target.id} is a "
                            f"bare dict comprehension",
                        )


# ----------------------------------------------------------------------
# RPL008 -- set iteration order in decision paths
# ----------------------------------------------------------------------

def _is_set_expr(node, local_sets):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return (_is_set_expr(node.left, local_sets)
                or _is_set_expr(node.right, local_sets))
    return False


@register_rule
class SetIterationRule(Rule):
    rule_id = "RPL008"
    title = "no order-sensitive iteration over sets in decision paths"
    rationale = (
        "Set iteration order depends on insertion history and (for "
        "strings) PYTHONHASHSEED, so any decision derived from it "
        "differs across processes and replicas. Sort first, or keep an "
        "ordered container (dict preserves insertion order)."
    )
    hint = "iterate sorted(the_set), or store an ordered dict/list instead"
    decision_path_only = True

    def check(self, ctx):
        # Scopes are checked independently: module level, then each
        # function with its own local set-valued names.
        yield from self._check_scope(ctx, ctx.tree)
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, func)

    def _check_scope(self, ctx, scope):
        local_sets = set()
        own = self._own_nodes(scope)
        for node in own:
            if isinstance(node, ast.Assign) and _is_set_expr(
                node.value, ()
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_sets.add(target.id)
        for node in own:
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter, local_sets):
                    yield self._violation(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, local_sets):
                        yield self._violation(ctx, gen.iter)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("list", "tuple")
                  and len(node.args) == 1
                  and _is_set_expr(node.args[0], local_sets)):
                yield self._violation(ctx, node)

    def _own_nodes(self, scope):
        """All nodes of ``scope`` excluding nested function bodies."""
        out = []
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        # Deterministic order for deterministic reports.
        out.sort(key=lambda n: (getattr(n, "lineno", 0),
                                getattr(n, "col_offset", 0)))
        return out

    def _violation(self, ctx, node):
        return ctx.violation(
            self, node,
            "iteration order of an unordered set can leak into decisions",
        )


# ----------------------------------------------------------------------
# RPL009 -- one canonical-JSON call site
# ----------------------------------------------------------------------

#: Packages whose on-disk documents are digest-stamped and compared by
#: byte (trace corpus files, dehydrated session states), and the one
#: module that serializes for them.
_SERIALIZER_PACKAGES = ("repro/persist/", "repro/trace/")
_CANON_MODULE = "repro/canon.py"

_JSON_WRITERS = frozenset({"json.dump", "json.dumps"})


def _is_canonical(call):
    """``sort_keys=True, separators=(",", ":")``, as literal keywords."""
    keywords = {keyword.arg: keyword.value for keyword in call.keywords}
    sort_keys = keywords.get("sort_keys")
    separators = keywords.get("separators")
    return (
        isinstance(sort_keys, ast.Constant) and sort_keys.value is True
        and isinstance(separators, (ast.Tuple, ast.List))
        and [getattr(elt, "value", None) for elt in separators.elts]
        == [",", ":"]
    )


@register_rule
class CanonicalJsonRule(Rule):
    rule_id = "RPL009"
    title = "persist/trace serialize through repro.canon, which is canonical"
    rationale = (
        "Session states and trace-corpus documents are digest-stamped "
        "and compared byte-for-byte (loads(dumps()) round-trips, corpus "
        "re-drives, replica state exchange). json.dumps without "
        "sort_keys leaks dict insertion history into the bytes, and the "
        "default separators add whitespace -- either way two equal "
        "payloads serialize differently and every byte-identity check "
        "downstream turns flaky. So there is one call site, "
        "repro.canon.dumps, and it is the canonical expression."
    )
    hint = (
        "call repro.canon.dumps(obj) -- the one json.dumps(obj, "
        "sort_keys=True, separators=(\",\", \":\")) in the repo"
    )

    def applies_to(self, ctx):
        return ctx.key is not None and (
            ctx.key == _CANON_MODULE
            or ctx.key.startswith(_SERIALIZER_PACKAGES)
        )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in _JSON_WRITERS:
                continue
            if ctx.key != _CANON_MODULE:
                yield ctx.violation(
                    self, node,
                    f"{resolved}() in a serializer package: its documents "
                    f"are written by repro.canon.dumps only",
                )
            elif not _is_canonical(node):
                yield ctx.violation(
                    self, node,
                    f"{resolved}() in repro.canon without sort_keys=True "
                    f"and separators=(\",\", \":\") (non-canonical JSON "
                    f"breaks byte-identity)",
                )


__all__ = [
    "AmbientEnvRule",
    "BareRegistryRule",
    "BuiltinHashRule",
    "CanonicalJsonRule",
    "MemoAliasRule",
    "SetIterationRule",
    "TeardownRule",
    "UnseededRandomRule",
    "WallClockRule",
]
