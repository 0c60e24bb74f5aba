"""The scoring-churn regression (the CFD/HTR open item), at reduced scale.

Not a paper figure and not a timing: the tail replay fraction of HTR
with and without scoring hysteresis is a deterministic function of the
stream, recorded in ``benchmarks/results/perf_replayer_churn.txt``.
(What the replayer layer *costs* is ``core.matching.*`` /
``core.scoring.*`` / ``core.replayer.*`` in ``bench/``; that the
automaton engine's dedup engages is asserted in
``tests/test_matching.py``.)
"""

import pytest

from repro.apps.base import build_app
from repro.core.processor import ApopheniaConfig
from repro.experiments.report import format_table


@pytest.mark.benchmark(group="perf_replayer", min_rounds=1, max_time=5)
def test_hysteresis_closes_reduced_scale_churn(benchmark, save):
    """The scoring-churn open item, as a regression test.

    HTR at reduced scale with a *natural* (not power-of-two-pinned)
    buffer is the configuration where full-buffer candidates whose
    length misaligns with the stream period displace the profitably
    replaying steady state. With hysteresis off the tail replay
    fraction stays depressed; with the reduced-scale hysteresis on, the
    replayer settles on period-aligned traces and the fraction
    converges at least as high as the old pinned configuration reached.
    """

    def run(hysteresis):
        config = ApopheniaConfig(
            batchsize=500,  # natural 0.1-scale buffer: ratio 20, not 2^k
            multi_scale_factor=25,
            job_base_latency_ops=5,
            initial_ingest_margin_ops=10,
            hysteresis=hysteresis,
        )
        app = build_app("htr", mode="auto", task_scale=0.1,
                        apophenia=config, keep_task_log=False)
        processor = app.processor
        fractions = []
        last = (0, 0)
        for index in range(1200):
            processor.set_iteration(index)
            app.iteration(index)
            if (index + 1) % 50 == 0:
                replayer = processor.replayer
                seen, traced = replayer.tasks_seen, replayer.tasks_traced
                fractions.append(
                    (traced - last[1]) / max(1, seen - last[0])
                )
                last = (seen, traced)
        processor.flush()
        tail = fractions[len(fractions) // 2:]
        return sum(tail) / len(tail), processor.replayer.policy

    (off_tail, off_policy), (on_tail, on_policy) = benchmark.pedantic(
        lambda: (run(0.0), run(2.0)), rounds=1, iterations=1
    )

    save(
        "perf_replayer_churn",
        format_table(
            ["hysteresis", "tail replay fraction", "suppressed switches"],
            [
                ["off (0.0)", f"{off_tail:.3f}", off_policy.hysteresis_suppressed],
                ["on  (2.0)", f"{on_tail:.3f}", on_policy.hysteresis_suppressed],
            ],
            title=(
                "perf_replayer_churn: HTR task_scale=0.1, natural "
                "batchsize=500 (ratio 20, unpinned)"
            ),
        ),
    )
    benchmark.extra_info["tail_replay_fraction"] = {
        "off": round(off_tail, 3), "on": round(on_tail, 3)
    }

    # Hysteresis must actually intervene, and must lift the depressed
    # steady state meaningfully toward the ~0.95 the old power-of-two
    # pinned buffer achieved.
    assert on_policy.hysteresis_suppressed > 0
    assert off_tail < 0.92  # the pathology is present with hysteresis off
    assert on_tail >= off_tail + 0.02
    assert on_tail >= 0.92
