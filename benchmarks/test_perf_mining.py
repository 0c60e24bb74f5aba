"""Mining throughput per suffix-array backend (perf trajectory anchor).

Not a paper figure: this suite tracks the repo's own hot path. It mines
the Figure 10 workload -- a 5000-token window of S3D's hash-token stream
-- with every suffix-array backend plus the seed composition (lambda-key
prefix doubling with three rank-compression passes), records tokens/sec
to ``benchmarks/results/perf_mining.txt``, and enforces this PR's
acceptance floor: the default ``sais`` pipeline must mine at least 3x the
seed's throughput. Future PRs extend the trajectory by beating the
numbers recorded here.
"""

import pytest

from repro.experiments.mining_perf import (
    measure_mining_throughput,
    s3d_token_window,
)
from repro.experiments.report import format_table


@pytest.mark.benchmark(group="perf_mining", min_rounds=1, max_time=5)
def test_perf_mining_backends(benchmark, save):
    tokens = s3d_token_window(num_tokens=5000)

    results = benchmark.pedantic(
        measure_mining_throughput,
        args=(tokens,),
        kwargs=dict(min_length=25, rounds=3),
        rounds=1,
        iterations=1,
    )

    seed = results["seed"]
    rows = []
    for name, m in sorted(
        results.items(), key=lambda kv: -kv[1].tokens_per_sec
    ):
        speedup = (
            m.tokens_per_sec / seed.tokens_per_sec
            if seed.tokens_per_sec
            else float("inf")
        )
        rows.append(
            [
                name,
                f"{m.seconds * 1e3:.2f} ms",
                f"{m.tokens_per_sec:,.0f}",
                f"{speedup:.2f}x",
            ]
        )
    save(
        "perf_mining",
        format_table(
            ["backend", "time", "tokens/sec", "vs seed"],
            rows,
            title=(
                "perf_mining: find_repeats throughput on a 5000-token "
                "S3D window (min_length=25)"
            ),
        ),
    )
    benchmark.extra_info["tokens_per_sec"] = {
        name: round(m.tokens_per_sec) for name, m in results.items()
    }

    # Determinism is load-bearing (Section 5.1): every backend and the
    # seed composition must produce identical mining output.
    reference = results["seed"].repeats
    for name, m in results.items():
        assert m.repeats == reference, f"{name} diverged from seed output"

    # The acceptance floor: the default pipeline is >= 3x the seed path.
    assert results["sais"].tokens_per_sec >= 3 * seed.tokens_per_sec, (
        f"sais {results['sais'].tokens_per_sec:,.0f} tok/s < 3x seed "
        f"{seed.tokens_per_sec:,.0f} tok/s"
    )
