"""Null-fault-plan overhead guard: degradation hooks must be ~free.

The fault-containment machinery (ISSUE 6) sits on the mining submit
path: every ``JobExecutor.submit`` now consults the fault plan gate, the
soft deadline, and the circuit breaker before mining. The production
default is the inert :class:`~repro.faults.NullFaultPlan`, whose
contract is "one attribute check and a branch" -- this suite pins that
contract so the hooks can never quietly grow into a serving regression:

* a deterministic gate check: an inactive plan's ``mining_fault`` is
  *never called* on the submit path (the ``plan.active`` gate is the
  whole cost);
* a paired-rounds timing floor: the full default executor submit loop
  (null plan + breaker + deadline hooks) costs < 2% over the raw mining
  algorithm loop on a 2k-token window, i.e. the hooks are invisible
  next to the work they guard. The replayer needs no twin guard: the
  hooks live in the finder's submit path, not the replayer's per-token
  serving loop.
"""

import time

import pytest

from repro.core.jobs import JobExecutor
from repro.core.repeats import find_repeats
from repro.faults import NULL_FAULT_PLAN


def _smoke_window(num_tokens=2000):
    """Periodic loop bodies broken up by unique per-iteration tokens
    (the same shape as the sa-backend smoke window)."""
    body = [f"task{i}" for i in range(40)]
    tokens = []
    rep = 0
    while len(tokens) < num_tokens:
        tokens.extend(body)
        tokens.append(f"check{rep}")
        rep += 1
    return tokens[:num_tokens]


@pytest.mark.perf_smoke
def test_null_plan_gate_never_calls_into_the_plan():
    """The hot-path contract, asserted without a clock: with an inactive
    plan, submit must not call ``mining_fault`` at all."""

    class TrippedGate(Exception):
        pass

    class InertPlan:
        active = False

        def mining_fault(self, stream, job_seq):
            raise TrippedGate("submit consulted an inactive plan")

    executor = JobExecutor(fault_plan=InertPlan())
    tokens = _smoke_window(400)
    for op in range(5):
        job = executor.submit(tokens, 10, op * 1000)
        assert not job.degraded and job.result
    # And the stock default is the shared inert singleton.
    assert JobExecutor().fault_plan is NULL_FAULT_PLAN


@pytest.mark.perf_smoke
def test_null_plan_submit_overhead_under_two_percent():
    """Paired-rounds floor: the default executor's submit loop (fault
    hooks included) stays within 2% of the bare algorithm loop on the
    2k-token mining window. Adjacent rounds see the same machine noise,
    so the best paired ratio is a stable overhead estimate."""
    tokens = _smoke_window(2000)
    min_length = 10
    # ~0.6 ms a job since the window takes the NumPy pipeline (was ~4 ms):
    # enough submits that a round is still tens of milliseconds, and
    # enough rounds that one quiet pair turns up on a loaded machine (the
    # 8 x 3 shape failed 4 runs in 15 there, before and after).
    submits = 48
    rounds = 7

    def raw_round():
        start = time.process_time()
        for _ in range(submits):
            find_repeats(tokens, min_length)
        return time.process_time() - start

    def executor_round():
        # No memo (a standalone executor has none): every submit pays
        # the real mining cost, exactly like the raw loop.
        executor = JobExecutor()
        start = time.process_time()
        for op in range(submits):
            executor.submit(tokens, min_length, op * 1000)
        return time.process_time() - start

    # Warmup pays CPython's adaptive-specialization cost off the clock.
    raw_round()
    executor_round()
    ratios = []
    for _ in range(rounds):
        raw = raw_round()
        wrapped = executor_round()
        ratios.append(wrapped / raw if raw else 1.0)
    best = min(ratios)
    assert best <= 1.02, (
        f"default executor submit loop is {best:.3f}x the raw mining "
        f"loop (rounds: {', '.join(f'{r:.3f}' for r in ratios)}); the "
        f"null-fault-plan hooks must stay under 2%"
    )
