"""Trace finder, asynchronous jobs, and the ingestion coordinator."""

import pytest

from repro.core.coordination import IngestCoordinator
from repro.core.finder import TraceFinder
from repro.core.jobs import JobExecutor, MiningMemo

import references


class RecordingExecutor(JobExecutor):
    """A private executor that logs each submitted ``(op, window)``."""

    def __init__(self):
        super().__init__()
        self.windows = []

    def submit(self, tokens, min_length, now_op):
        self.windows.append((now_op, tuple(tokens)))
        return super().submit(tokens, min_length, now_op)


class TestJobExecutor:
    def test_submit_computes_result(self):
        ex = JobExecutor()
        job = ex.submit(list("ababab"), 2, now_op=100)
        assert [r.tokens for r in job.result] == [("a", "b")]
        assert job.submitted_at_op == 100
        assert job.completes_at_op > 100

    def test_latency_grows_with_size(self):
        ex = JobExecutor(base_latency_ops=10, per_token_latency_ops=1.0, node_id=0)
        small = ex.submit(list("ab") * 5, 1, now_op=0)
        large = ex.submit(list("ab") * 500, 1, now_op=0)
        assert large.completes_at_op > small.completes_at_op

    def test_jitter_differs_across_nodes(self):
        jobs = [
            JobExecutor(node_id=node).submit(list("abab") * 20, 2, now_op=0)
            for node in range(8)
        ]
        assert len({j.completes_at_op for j in jobs}) > 1
        # Results themselves are identical on all nodes.
        results = [[r.tokens for r in j.result] for j in jobs]
        assert all(r == results[0] for r in results)

    def test_custom_algorithm(self):
        calls = []

        def fake(tokens, min_length):
            calls.append(len(tokens))
            return []

        ex = JobExecutor(repeats_algorithm=fake)
        ex.submit(list("abc"), 1, now_op=0)
        assert calls == [3]

    def test_identical_window_memoized(self):
        calls = []

        def counting(tokens, min_length):
            calls.append(tuple(tokens))
            return []

        ex = JobExecutor(repeats_algorithm=counting, memo=MiningMemo(1))
        window = list("ababab")
        first = ex.submit(window, 2, now_op=0)
        second = ex.submit(list(window), 2, now_op=100)
        assert len(calls) == 1
        assert ex.memo_hits == 1
        assert second.result == first.result
        # Completion-time modelling is still per-job.
        assert second.submitted_at_op == 100
        assert ex.jobs_submitted == 2

    def test_memo_distinguishes_min_length(self):
        ex = JobExecutor(memo=MiningMemo(2))
        a = ex.submit(list("ababab"), 2, now_op=0)
        b = ex.submit(list("ababab"), 3, now_op=0)
        assert ex.memo_hits == 0
        assert a.result != b.result

    def test_memo_evicts_least_recent(self):
        calls = []

        def counting(tokens, min_length):
            calls.append(tuple(tokens))
            return []

        ex = JobExecutor(repeats_algorithm=counting, memo=MiningMemo(2))
        ex.submit(list("aa"), 1, now_op=0)
        ex.submit(list("bb"), 1, now_op=0)
        ex.submit(list("cc"), 1, now_op=0)  # evicts "aa"
        ex.submit(list("aa"), 1, now_op=0)  # re-mined
        assert len(calls) == 4
        assert ex.memo_hits == 0

    def test_memo_hit_immune_to_caller_mutation(self):
        """Regression: the memo used to return its stored list by
        reference, so a caller mutating the returned repeats corrupted
        every later hit on the same window."""
        ex = JobExecutor(memo=MiningMemo(1))
        window = list("ababab")
        first = ex.submit(window, 2, now_op=0)
        # A badly behaved consumer destroys its copy of the result.
        first.result.clear()
        second = ex.submit(list(window), 2, now_op=100)
        assert ex.memo_hits == 1
        assert [r.tokens for r in second.result] == [("a", "b")]
        # And mutating a *hit* cannot corrupt the next hit either.
        second.result.append("garbage")
        third = ex.submit(list(window), 2, now_op=200)
        assert [r.tokens for r in third.result] == [("a", "b")]

    def test_memo_insert_stores_private_copy(self):
        memo = MiningMemo(capacity=4)
        produced = ["r1", "r2"]
        result, hit = memo.mine([1, 2], 1, lambda tokens, m: produced)
        assert not hit and result is produced
        produced.clear()  # caller mutates the list it got back
        cached, hit = memo.mine([1, 2], 1, lambda tokens, m: ["x"])
        assert hit and cached == ["r1", "r2"]

    def test_shared_memo_across_executors(self):
        """One MiningMemo injected into two executors: the second executor
        hits on windows the first one mined."""
        calls = []

        def counting(tokens, min_length):
            calls.append(tuple(tokens))
            return []

        memo = MiningMemo(capacity=8)
        a = JobExecutor(repeats_algorithm=counting, memo=memo)
        b = JobExecutor(repeats_algorithm=counting, memo=memo)
        a.submit(list("abab"), 2, now_op=0)
        b.submit(list("abab"), 2, now_op=0)
        assert len(calls) == 1
        assert a.memo_hits == 0 and b.memo_hits == 1

    def test_memo_disabled(self):
        """A standalone executor has no memo (a lone stream's schedule
        does not re-mine a window): every job mines."""
        calls = []

        def counting(tokens, min_length):
            calls.append(tuple(tokens))
            return []

        ex = JobExecutor(repeats_algorithm=counting)
        assert ex.memo is None
        ex.submit(list("aa"), 1, now_op=0)
        ex.submit(list("aa"), 1, now_op=0)
        assert len(calls) == 2
        assert ex.memo_hits == 0


class TestTraceFinder:
    def test_multi_scale_triggers(self):
        ex = JobExecutor()
        finder = TraceFinder(ex, batchsize=100, multi_scale_factor=10,
                             min_trace_length=1)
        jobs = [finder.observe(i % 5) for i in range(100)]
        submitted = [j for j in jobs if j is not None]
        assert len(submitted) == 10
        sizes = [j.num_tokens for j in submitted]
        assert sizes[0] == 10 and max(sizes) <= 100

    def test_window_too_small_skipped(self):
        ex = JobExecutor()
        finder = TraceFinder(ex, batchsize=100, multi_scale_factor=10,
                             min_trace_length=20)
        jobs = [finder.observe(i % 5) for i in range(10)]
        # Slice of 10 < 2*min_trace_length(20): no job submitted.
        assert all(j is None for j in jobs)

    def test_fixed_strategy(self):
        """The fixed strawman is the schedule at factor == batchsize."""
        ex = JobExecutor()
        finder = TraceFinder(ex, batchsize=50, multi_scale_factor=50,
                             min_trace_length=1)
        jobs = [finder.observe(i % 5) for i in range(150)]
        submitted = [j for j in jobs if j is not None]
        assert len(submitted) == 3
        assert all(j.num_tokens == 50 for j in submitted)

    @pytest.mark.parametrize("batchsize", [10, 37, 250, 1000, 5000])
    def test_fixed_strategy_matches_the_retired_trigger(self, batchsize):
        """The retired ``identifier_algorithm="fixed"`` trigger (kept
        unchanged as ``references.FixedTrigger``) and the multi-scale
        schedule at ``multi_scale_factor = batchsize`` submit the same
        jobs: same op, same window."""
        submitted = []
        for trigger in (None, references.FixedTrigger(batchsize)):
            ex = RecordingExecutor()
            finder = TraceFinder(ex, batchsize=batchsize,
                                 multi_scale_factor=batchsize)
            if trigger is not None:
                finder.sampler = trigger
            for i in range(3 * batchsize + 7):
                finder.observe((i * 7) % 13 + i // 97)
            submitted.append(ex.windows)
        assert len(submitted[0]) == 3
        assert submitted[0] == submitted[1]

    def test_bad_identifier_rejected(self):
        """The finder has one schedule: ``identifier_algorithm`` is no
        longer an argument, whatever its value."""
        for identifier in ("multi-scale", "fixed", "magic"):
            with pytest.raises(TypeError):
                TraceFinder(JobExecutor(), identifier_algorithm=identifier)

    def test_drain_in_fifo_order(self):
        ex = JobExecutor(base_latency_ops=5, per_token_latency_ops=0.0)
        finder = TraceFinder(ex, batchsize=40, multi_scale_factor=10,
                             min_trace_length=1)
        for i in range(40):
            finder.observe(i % 4)
        drained = finder.drain_completed(now_op=10**6)
        ids = [j.job_id for j in drained]
        assert ids == sorted(ids)

    def test_drain_respects_completion(self):
        ex = JobExecutor(base_latency_ops=1000, per_token_latency_ops=0.0)
        finder = TraceFinder(ex, batchsize=40, multi_scale_factor=10,
                             min_trace_length=1)
        for i in range(40):
            finder.observe(i % 4)
        assert finder.drain_completed(now_op=41) == []
        assert len(finder.drain_completed(now_op=10**6)) == 4


class TestIngestCoordinator:
    def test_agreement_is_sticky(self):
        c = IngestCoordinator(initial_margin_ops=100)
        assert c.agree(0, 50) == 150
        # A second node agreeing later sees the same point.
        assert c.agree(0, 50) == 150

    def test_margin_grows_on_wait(self):
        c = IngestCoordinator(initial_margin_ops=100)
        c.agree(0, 0)
        new = c.report_wait(0, lateness_ops=500)
        assert new >= 600
        assert c.waits == 1
        # Future jobs use the grown margin.
        assert c.agree(1, 1000) == 1000 + new
        # A small lateness still doubles the margin.
        assert c.report_wait(1, lateness_ops=1) == 2 * new

    def test_steady_state_no_more_waits(self):
        """After enough growth, ingest points exceed job latencies and the
        protocol stops stalling (the paper's steady-state claim)."""
        c = IngestCoordinator(initial_margin_ops=1)
        latency = 300
        waits = 0
        for job in range(20):
            submit = job * 100
            agreed = c.agree(job, submit)
            completes = submit + latency
            if agreed < completes:
                c.report_wait(job, completes - agreed)
                waits += 1
        assert waits < 10
        # The last several jobs never waited.
        tail_agreed = c.agree(100, 0)
        assert tail_agreed >= latency

    def test_agreement_table_pruned_after_all_nodes_consume(self):
        """Regression: agreements used to live forever -- one dict entry
        per mining job for the life of the tenant."""
        c = IngestCoordinator(initial_margin_ops=10)
        c.register_node(0)
        c.register_node(1)
        for job in range(50):
            c.agree(job, job * 100)
            c.retire(job, 0)  # node 0 ingested
            assert c.agreement_table_size == 1  # node 1 still owes a pop
            c.retire(job, 1)  # node 1 ingested: entry pruned
            assert c.agreement_table_size == 0
        assert c.agreements_pruned == 50

    def test_retire_of_unknown_agreement_is_harmless(self):
        c = IngestCoordinator()
        c.register_node(0)
        c.retire(7, 0)  # never agreed: no-op, no KeyError
        assert c.agreement_table_size == 0
        assert c.agreements_pruned == 0

    def test_node_registration_sets_prune_watermark(self):
        """The consumers of an entry are the registered node ids (what
        node processors do at construction), each counted once."""
        c = IngestCoordinator(initial_margin_ops=10)
        c.register_node(0)
        c.register_node(1)
        c.register_node(1)  # idempotent
        assert c.nodes == {0, 1}
        c.agree(0, 100)
        c.retire(0, 0)
        c.retire(0, 0)  # the same consumer again: node 1 still owes a pop
        assert c.agreement_table_size == 1
        c.retire(0, 1)
        assert c.agreement_table_size == 0

    def test_drop_node_prunes_what_only_the_dead_node_owed(self):
        """Pruning stays exact under a drop: an entry goes once every
        *live* node consumed it, so the drop frees what only the dead
        node still owed and nothing a survivor still needs."""
        c = IngestCoordinator(initial_margin_ops=10)
        for node in range(3):
            c.register_node(node)
        assert c.agree(0, 100) == 110
        assert c.agree(1, 200) == 210
        c.retire(0, 0)
        c.retire(0, 1)  # job 0: only node 2 still owes a pop
        c.retire(1, 2)  # job 1: the dead node consumed it, survivors not
        assert c.drop_node(2) == 1 and c.nodes == {0, 1}
        assert c.agreement_table_size == 1
        c.report_wait(1, 500)  # the margin grows ...
        assert c.agree(1, 200) == 210  # ... and the survivors' point holds
        c.retire(1, 0)
        c.retire(1, 1)
        assert c.agreement_table_size == 0 and c.agreements_pruned == 2

    def test_finder_drain_retires_consumed_agreements(self):
        ex = JobExecutor(base_latency_ops=5, per_token_latency_ops=0.0)
        c = IngestCoordinator(initial_margin_ops=50)
        c.register_node(0)
        finder = TraceFinder(ex, batchsize=40, multi_scale_factor=10,
                             min_trace_length=1)
        for i in range(200):
            finder.observe(i % 4)
            finder.drain_completed(finder.ops_observed, c, node=0)
        # Every issued agreement this single node consumed was pruned:
        # at most the one in flight is left.
        assert c.agreements_pruned > 3
        assert c.agreement_table_size <= 1
