"""Self-tests for the repro.lint static analyzer.

Every rule is exercised on a fixture pair: a *true positive* snippet that
seeds the hazard the rule exists for, and a *clean twin* -- the same
shape written the sanctioned way -- that must pass. Fixtures are linted
as source text through :func:`repro.lint.lint_source` with synthetic
``repro/...`` paths, so package classification (decision-path vs exempt)
is part of what is under test. The suite also pins the pragma contract
(the one suppression path), the JSON schema, and -- end to end -- that
the repo's own ``src/`` tree is clean.
"""

import io
import json
import textwrap

import pytest

from repro.lint import (
    LINT_RULES,
    LintViolation,
    lint_source,
    module_key,
)
from repro.lint.base import is_decision_path
from repro.lint.cli import EXIT_CAP, main as lint_main
from repro.lint.report import JSON_VERSION

pytestmark = pytest.mark.lint

#: A synthetic decision-path module for fixtures.
CORE = "src/repro/core/fixture.py"
#: A synthetic exempt module (measurement code).
EXPERIMENTS = "src/repro/experiments/fixture.py"


def run(source, path=CORE, rules=None):
    """Lint dedented ``source`` as ``path``; returns (kept, suppressed)."""
    return lint_source(textwrap.dedent(source), path, rules=rules)


def rule_ids(violations):
    return [v.rule_id for v in violations]


def assert_fires(rule_id, source, path=CORE):
    kept, _ = run(source, path, rules=[rule_id])
    assert rule_ids(kept) == [rule_id], (
        f"{rule_id} did not fire on its true-positive fixture: {kept!r}"
    )
    return kept[0]


def assert_clean(rule_id, source, path=CORE):
    kept, _ = run(source, path, rules=[rule_id])
    assert kept == [], (
        f"{rule_id} fired on its clean twin: "
        f"{[(v.line, v.message) for v in kept]!r}"
    )


class TestClassification:
    def test_module_key_strips_to_repro_suffix(self):
        assert module_key("/anything/src/repro/core/jobs.py") == (
            "repro/core/jobs.py"
        )
        assert module_key("src/repro/lint/base.py") == "repro/lint/base.py"

    def test_decision_packages(self):
        def decides(path):
            return is_decision_path(module_key(path))

        assert decides("src/repro/core/scoring.py")
        assert decides("src/repro/runtime/deps.py")
        assert decides("src/repro/service/service.py")
        assert decides("src/repro/api/session.py")
        assert not decides("src/repro/experiments/warmup.py")
        assert not decides("src/repro/analysis/metrics.py")
        assert not decides("unrelated/path.py")


class TestWallClockRule:
    TP = """\
        import time

        def completion_op(job):
            return time.monotonic() + job.latency
    """

    def test_fires_in_decision_path(self):
        v = assert_fires("RPL001", self.TP)
        assert "time.monotonic" in v.message

    def test_exempt_in_experiments(self):
        assert_clean("RPL001", self.TP, path=EXPERIMENTS)

    def test_clean_twin_operation_time(self):
        assert_clean("RPL001", """\
            def completion_op(job, now_ops):
                return now_ops + job.latency
        """)

    def test_resolves_import_aliases(self):
        assert_fires("RPL001", """\
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)


class TestUnseededRandomRule:
    def test_global_generator_fires(self):
        v = assert_fires("RPL002", """\
            import random

            def jitter():
                return random.random()
        """)
        assert "process-global" in v.message

    def test_unseeded_constructor_fires(self):
        assert_fires("RPL002", """\
            import random

            def make_rng():
                return random.Random()
        """)

    def test_clean_twin_seeded_rng(self):
        assert_clean("RPL002", """\
            import random

            def make_rng(seed):
                return random.Random(seed)
        """)

    def test_applies_outside_decision_paths_too(self):
        # Experiments must be reproducible as well: RPL002 is repo-wide.
        assert_fires("RPL002", """\
            import random

            def sample():
                return random.random()
        """, path=EXPERIMENTS)


class TestBuiltinHashRule:
    def test_hash_of_name_fires(self):
        v = assert_fires("RPL003", """\
            def token(task):
                return hash(task.key)
        """)
        assert "PYTHONHASHSEED" in v.message

    def test_clean_twin_provably_int_argument(self):
        # Literals, arithmetic over literals, and int-valued builtins are
        # provably str-free; a bare name is not (see the pragma tests for
        # how int-by-construction sites are annotated instead).
        assert_clean("RPL003", """\
            def jitter(label):
                return hash(2654435761 * 31 + len(label))
        """)

    def test_clean_twin_stable_hash(self):
        assert_clean("RPL003", """\
            from repro.stablehash import stable_hash

            def token(task):
                return stable_hash(task.key)
        """)

    def test_exempt_outside_decision_paths(self):
        assert_clean("RPL003", """\
            def bucket(label):
                return hash(label)
        """, path=EXPERIMENTS)


class TestAmbientEnvRule:
    def test_environ_get_fires(self):
        v = assert_fires("RPL004", """\
            import os

            def backend_name():
                return os.environ.get("REPRO_SA_BACKEND")
        """)
        assert "os.environ" in v.message

    def test_getenv_fires(self):
        assert_fires("RPL004", """\
            import os

            def backend_name():
                return os.getenv("REPRO_SA_BACKEND")
        """)

    def test_clean_twin_explicit_parameter(self):
        assert_clean("RPL004", """\
            def backend_name(name):
                return name or "sais"
        """)

    def test_config_module_is_the_env_surface(self):
        assert_clean("RPL004", """\
            import os

            def env_overrides():
                return dict(os.environ)
        """, path="src/repro/api/config.py")


class TestMemoAliasRule:
    def test_returning_stored_entry_fires(self):
        v = assert_fires("RPL005", """\
            class MiningMemo:
                def lookup(self, key):
                    return self._entries[key]
        """)
        assert "by reference" in v.message

    def test_tainted_local_fires(self):
        assert_fires("RPL005", """\
            class ResultCache:
                def get(self, key):
                    entry = self._entries.get(key)
                    return entry
        """)

    def test_clean_twin_copies_on_the_way_out(self):
        assert_clean("RPL005", """\
            class MiningMemo:
                def lookup(self, key):
                    return list(self._entries[key])
        """)

    def test_inherited_lookup_returned_by_reference_fires(self):
        """A memo that is a front over a generic LRU reads entries with
        its inherited ``self.get``; handing that object out is the same
        aliasing bug."""
        assert_fires("RPL005", """\
            class MiningMemo(LRU):
                def mine(self, key, compute):
                    cached = self.get(key)
                    if cached is not None:
                        return cached
                    return compute()
        """)

    def test_inherited_lookup_copied_is_clean(self):
        assert_clean("RPL005", """\
            class MiningMemo(LRU):
                def mine(self, key, compute):
                    cached = self.get(key)
                    if cached is not None:
                        return list(cached)
                    return compute()
        """)

    def test_non_memo_classes_ignored(self):
        assert_clean("RPL005", """\
            class StreamIndex:
                def lookup(self, key):
                    return self._entries[key]
        """)


class TestTeardownRule:
    def test_unprotected_release_sequence_fires(self):
        v = assert_fires("RPL006", """\
            class Service:
                def close_session(self, sid):
                    self.lanes.release(sid)
                    self.factory.close(sid)
        """)
        assert "outside try/finally" in v.message

    def test_swallowed_exception_fires(self):
        assert_fires("RPL006", """\
            class Service:
                def close_session(self, sid):
                    try:
                        self.lanes.release(sid)
                    except ValueError:
                        pass
        """)

    def test_clean_twin_try_finally(self):
        assert_clean("RPL006", """\
            class Service:
                def close_session(self, sid):
                    try:
                        self.lanes.release(sid)
                    finally:
                        self.factory.close(sid)
        """)

    def test_non_teardown_methods_ignored(self):
        assert_clean("RPL006", """\
            class Service:
                def rebalance(self, sid):
                    self.lanes.release(sid)
                    self.factory.close(sid)
        """)


class TestBareRegistryRule:
    def test_bare_dict_table_fires(self):
        v = assert_fires("RPL007", """\
            def build_a():
                return 1

            BACKENDS = {"a": build_a, "b": build_a}
        """)
        assert "bare dict" in v.message

    def test_dict_comprehension_fires(self):
        assert_fires("RPL007", """\
            MACHINES = {m.name: m for m in (PERLMUTTER, EOS)}
        """)

    def test_clean_twin_registry(self):
        assert_clean("RPL007", """\
            from repro.registry import Registry

            def build_a():
                return 1

            BACKENDS = Registry("backend", {"a": build_a})
        """)

    def test_data_tables_ignored(self):
        # Plain data (no implementation references) is not a plugin table.
        assert_clean("RPL007", """\
            SIZES = {"s": 100, "m": 1000, "l": 10000}
        """)


class TestSetIterationRule:
    def test_for_over_set_fires(self):
        v = assert_fires("RPL008", """\
            def drain(pending):
                out = []
                for uid in set(pending):
                    out.append(uid)
                return out
        """)
        assert "iteration order" in v.message

    def test_dict_comp_over_frozenset_fires(self):
        assert_fires("RPL008", """\
            def types_for(deps):
                outstanding = frozenset(deps)
                return {u: True for u in outstanding}
        """)

    def test_clean_twin_sorted(self):
        assert_clean("RPL008", """\
            def types_for(deps):
                outstanding = frozenset(deps)
                return {u: True for u in sorted(outstanding)}
        """)

    def test_exempt_outside_decision_paths(self):
        assert_clean("RPL008", """\
            def summarize(labels):
                return [x for x in set(labels)]
        """, path=EXPERIMENTS)


class TestCanonicalJsonRule:
    #: RPL009's scope is path-based: the serializer packages may not
    #: call json.dumps at all; the one module that may, must be canonical.
    PERSIST = "src/repro/persist/fixture.py"
    CANON = "src/repro/canon.py"

    def test_bare_dumps_in_serializer_fires(self):
        v = assert_fires("RPL009", """\
            import json

            def dumps(payload):
                return json.dumps(payload)
        """, path=self.PERSIST)
        assert "repro.canon.dumps" in v.message

    def test_sorted_but_default_separators_fires(self):
        # The one call site: default separators insert spaces -- not
        # byte-stable against the form the digests are computed over.
        v = assert_fires("RPL009", """\
            import json

            def dumps(value):
                return json.dumps(value, sort_keys=True)
        """, path=self.CANON)
        assert "separators" in v.message

    def test_clean_twin_canonical_call(self):
        # The same canonical expression: clean in repro.canon, and still
        # a violation in a serializer package, which must call canon.
        source = """\
            import json

            def dumps(value):
                return json.dumps(
                    value, sort_keys=True, separators=(",", ":"),
                )
        """
        assert_clean("RPL009", source, path=self.CANON)
        assert_fires("RPL009", source, path=self.PERSIST)
        assert_clean("RPL009", """\
            from repro import canon

            def dumps(payload):
                return canon.dumps(payload)
        """, path=self.PERSIST)

    def test_json_dump_to_file_also_covered(self):
        assert_fires("RPL009", """\
            import json

            def dump(payload, fh):
                json.dump(payload, fh, sort_keys=True,
                          separators=(",", ":"))
        """, path="src/repro/trace/fixture.py")

    def test_exempt_outside_serializer_packages(self):
        # Report/debug JSON elsewhere is not digest-compared by byte.
        assert_clean("RPL009", """\
            import json

            def report(payload):
                return json.dumps(payload, indent=2)
        """, path=CORE)


class TestPragmas:
    HAZARD = """\
        def token(task):
            return hash(task.key){pragma}
    """

    def test_trailing_pragma_with_reason_suppresses(self):
        source = self.HAZARD.format(
            pragma="  # replint: allow[RPL003] int-only by construction"
        )
        kept, suppressed = run(source, rules=["RPL003"])
        assert kept == []
        assert rule_ids(suppressed) == ["RPL003"]

    def test_standalone_pragma_covers_next_line(self):
        kept, suppressed = run("""\
            def token(task):
                # replint: allow[RPL003] int-only by construction
                return hash(task.key)
        """, rules=["RPL003"])
        assert kept == []
        assert rule_ids(suppressed) == ["RPL003"]

    def test_reasonless_pragma_does_not_suppress(self):
        source = self.HAZARD.format(pragma="  # replint: allow[RPL003]")
        kept, suppressed = run(source, rules=["RPL003"])
        assert rule_ids(kept) == ["RPL003"]
        assert suppressed == []
        assert "missing a reason" in kept[0].note

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = self.HAZARD.format(
            pragma="  # replint: allow[RPL001] wrong rule"
        )
        kept, _ = run(source, rules=["RPL003"])
        assert rule_ids(kept) == ["RPL003"]


class TestCli:
    def _write_fixture(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(textwrap.dedent("""\
            def token(task):
                return hash(task.key)
        """))
        return tmp_path

    def test_exit_code_counts_fresh_violations(self, tmp_path):
        root = self._write_fixture(tmp_path)
        out = io.StringIO()
        code = lint_main([str(root), "--rules", "RPL003"], stdout=out)
        assert code == 1
        assert "RPL003" in out.getvalue()

    def test_exit_code_capped(self):
        assert EXIT_CAP < 126  # stays clear of shell-reserved codes

    def test_json_schema(self, tmp_path):
        root = self._write_fixture(tmp_path)
        out = io.StringIO()
        lint_main([str(root), "--rules", "RPL003", "--json"], stdout=out)
        doc = json.loads(out.getvalue())
        assert doc["version"] == JSON_VERSION
        assert doc["files_checked"] == 1
        assert doc["rules_run"] == ["RPL003"]
        assert doc["counts"] == {"RPL003": 1}
        assert doc["suppressed"] == 0 and "baselined" not in doc
        (violation,) = doc["violations"]
        assert violation["rule"] == "RPL003"
        assert violation["path"].endswith("fixture.py")
        assert {"line", "col", "message", "hint"} <= violation.keys()

    def test_list_rules_names_all_eight(self):
        out = io.StringIO()
        assert lint_main(["--list-rules"], stdout=out) == 0
        text = out.getvalue()
        for rule_id in LINT_RULES.names():
            assert rule_id in text

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        out = io.StringIO()
        code = lint_main([str(bad)], stdout=out)
        assert code == 1
        assert "RPL000" in out.getvalue()


class TestRuleRegistry:
    def test_nine_rules_registered(self):
        assert LINT_RULES.names() == [
            "RPL001", "RPL002", "RPL003", "RPL004",
            "RPL005", "RPL006", "RPL007", "RPL008",
            "RPL009",
        ]

    def test_every_rule_documents_itself(self):
        for rule_id in LINT_RULES.names():
            rule = LINT_RULES[rule_id]
            assert rule.title and rule.rationale and rule.hint

    def test_unknown_rule_error_lists_known(self):
        with pytest.raises((KeyError, ValueError)) as excinfo:
            LINT_RULES["RPL999"]
        assert "RPL001" in str(excinfo.value)


class TestSelfApplication:
    """The gate the verify script runs, as a test: src/ must be clean."""

    def test_src_clean(self):
        out = io.StringIO()
        code = lint_main(["src"], stdout=out)
        assert code == 0, f"repo lint gate failed:\n{out.getvalue()}"

    def test_lint_package_lints_itself(self):
        out = io.StringIO()
        code = lint_main(["src/repro/lint"], stdout=out)
        assert code == 0, out.getvalue()
