"""Ablations of Section 4.2/4.4 design choices.

Not a paper figure, but the design arguments the paper makes in prose:

* Algorithm 2 vs the LZW-style and tandem-repeat baselines on coverage
  (tandem misses interrupted loops; LZW learns too slowly);
* Algorithm 2 vs the quadratic reference on wall-clock at buffer sizes
  where quadratic behavior matters;
* multi-scale buffer sampling vs a fixed full-buffer policy on
  responsiveness (how quickly the first trace is replayed).
"""

import pytest

from repro.analysis.lzw import find_repeats_lzw
from repro.analysis.quadratic import find_repeats_quadratic
from repro.analysis.tandem import find_tandem_repeats
from repro.analysis.metrics import finder_comparison
from repro.core.processor import ApopheniaConfig
from repro.core.repeats import find_repeats
from repro.experiments.harness import run_app
from repro.experiments.report import format_table
from repro.experiments.warmup import warmup_iterations
from repro.runtime.machine import PERLMUTTER
from repro.runtime.runtime import TaskMode


def realistic_stream(loop=40, reps=40, noise_every=1):
    """A loop with irregular per-iteration convergence checks -- the
    Section 4.2 pattern that breaks tandem contiguity."""
    stream = []
    body = [f"task{i}" for i in range(loop)]
    for rep in range(reps):
        stream.extend(body)
        if rep % noise_every == 0:
            stream.append(f"check{rep}")  # irregular: distinct each time
    return stream


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1)
def test_ablation_finder_coverage(benchmark, save):
    stream = realistic_stream()
    results = benchmark.pedantic(
        finder_comparison,
        args=(
            {
                "algorithm2": find_repeats,
                "lzw": find_repeats_lzw,
                "tandem": find_tandem_repeats,
                "quadratic": find_repeats_quadratic,
            },
            stream,
        ),
        kwargs=dict(min_length=10),
        rounds=1,
        iterations=1,
    )
    # The saved table holds the deterministic column only; this run's
    # wall-clock readings go to the benchmark report and stdout.
    rows = [[r.name, f"{r.coverage_fraction:.1%}"] for r in results]
    save("ablation_finders", format_table(
        ["finder", "coverage"], rows,
        title="ablation: repeat finders on a loop with convergence checks",
    ))
    by_name = {r.name: r for r in results}
    benchmark.extra_info["coverage"] = {
        n: round(r.coverage_fraction, 3) for n, r in by_name.items()
    }
    benchmark.extra_info["time_ms"] = {
        n: round(r.seconds * 1e3, 2) for n, r in by_name.items()
    }
    print("ablation_finders time_ms:", benchmark.extra_info["time_ms"])
    # The paper's arguments, as assertions:
    assert by_name["algorithm2"].coverage_fraction > 0.85
    assert by_name["tandem"].coverage_fraction < by_name["algorithm2"].coverage_fraction
    assert by_name["lzw"].coverage_fraction < by_name["algorithm2"].coverage_fraction


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=2)
def test_ablation_algorithm2_asymptotics(benchmark):
    """Algorithm 2 stays tractable on buffer-sized periodic windows where
    the quadratic reference blows up."""
    stream = list(range(100)) * 40  # 4000 tokens

    def run():
        return find_repeats(stream, min_length=25)

    repeats = benchmark(run)
    assert repeats


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1)
def test_ablation_multiscale_vs_fixed(benchmark, save):
    """Multi-scale sampling replays its first trace sooner than the fixed
    full-buffer policy on a short-loop application.

    Responsiveness is the module-level claim under test: the multi-scale
    schedule analyzes a small recent slice after ``multi_scale_factor``
    tasks, while the fixed policy must wait for the whole buffer to fill.
    (Time to *sustained* steady state is deliberately not compared: the
    multi-scale schedule keeps switching to longer traces as bigger
    slices arrive -- the paper's exploration feature -- and every switch
    transiently dips the traced fraction, so that metric flips on
    schedule details. Both policies must still get there eventually.)
    The fixed policy is the same schedule at ``multi_scale_factor =
    batchsize``.
    """

    def measure(factor):
        run = run_app(
            "stencil",
            "auto",
            4,
            machine=PERLMUTTER,
            iterations=120,
            warmup=0,
            task_scale=0.25,
            apophenia=ApopheniaConfig(
                min_trace_length=5,
                batchsize=300,
                multi_scale_factor=factor,
                job_base_latency_ops=20,
                initial_ingest_margin_ops=30,
            ),
        )
        first_replay = next(
            (
                index
                for index, record in enumerate(run.runtime.task_log)
                if record.mode == TaskMode.REPLAYED
            ),
            10**9,
        )
        steady = warmup_iterations(run.runtime, threshold=0.7)
        return first_replay, steady if steady is not None else 10**9

    def both():
        return measure(30), measure(300)

    (multi_first, multi_steady), (fixed_first, fixed_steady) = (
        benchmark.pedantic(both, rounds=1, iterations=1)
    )
    save("ablation_sampling", format_table(
        ["identifier", "first replayed task", "steady from iteration"],
        [
            ["multi-scale", multi_first, multi_steady],
            ["fixed", fixed_first, fixed_steady],
        ],
        title="ablation: multi-scale sampling vs fixed full-buffer analysis",
    ))
    benchmark.extra_info["first_replay"] = {
        "multi-scale": multi_first, "fixed": fixed_first,
    }
    assert multi_first < 10**9, "multi-scale never replayed a trace"
    assert multi_steady < 10**9, "multi-scale never reached steady state"
    assert fixed_steady < 10**9, "fixed never reached steady state"
    # The responsiveness claim: the first replay lands well before the
    # fixed policy has even run its first analysis.
    assert multi_first < fixed_first
