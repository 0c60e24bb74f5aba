"""Section 6.3: task launch overheads of Apophenia.

The paper's two-node measurement: launching a task costs 7 us without
Apophenia and 12 us with it -- well under the 100 us trace replay cost, so
the front-end's work hides behind the asynchronous runtime. We report the
modeled virtual costs (the calibrated inputs) and benchmark the *actual*
wall-clock per-task cost of this reproduction's front-end (hashing + trie
+ job management), asserting it stays well under the replay budget too.
"""

import pytest

from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.experiments.overheads import launch_overheads
from repro.experiments.report import format_table
from repro.runtime.machine import PERLMUTTER
from repro.runtime.runtime import Runtime
from repro.runtime.privilege import Privilege
from repro.runtime.task import RegionRequirement, Task


@pytest.mark.benchmark(group="sec6.3", min_rounds=1, max_time=2)
def test_sec63_launch_overheads(benchmark, save):
    data = benchmark.pedantic(
        launch_overheads, kwargs=dict(num_tasks=30000, nodes=2),
        rounds=1, iterations=1,
    )
    rows = [
        ["modeled launch, no Apophenia", f"{data['modeled_launch_without'] * 1e6:.0f} us", "7 us"],
        ["modeled launch, Apophenia", f"{data['modeled_launch_with'] * 1e6:.0f} us", "12 us"],
        ["replay cost (per task)", f"{data['replay_cost'] * 1e6:.0f} us", "100 us"],
    ]
    save("sec63", format_table(
        ["quantity", "this reproduction", "paper"], rows,
        title="sec 6.3: task launch overheads",
    ))
    # The saved table holds the modeled (deterministic) rows only; the
    # measured front-end cost of this run goes to the benchmark report
    # and stdout (bench/ is where it is tracked against a bound).
    benchmark.extra_info.update(
        {k: f"{v * 1e6:.2f}us" for k, v in data.items()}
    )
    print("sec63 measured front-end per task:",
          benchmark.extra_info["measured_per_task_without"], "without /",
          benchmark.extra_info["measured_per_task_with"], "with Apophenia")
    assert data["modeled_launch_without"] == pytest.approx(7e-6)
    assert data["modeled_launch_with"] == pytest.approx(12e-6)
    # The front-end's real cost stays well under the replay budget, so it
    # can be hidden by the pipeline (the paper's conclusion).
    assert data["measured_per_task_with"] < data["replay_cost"]


@pytest.mark.benchmark(group="sec6.3", min_rounds=3)
def test_sec63_per_task_frontend_cost(benchmark):
    """Microbenchmark: steady-state per-task cost of execute_task."""
    runtime = Runtime(machine=PERLMUTTER, gpus=8, analysis_mode="fast",
                      keep_task_log=False)
    processor = ApopheniaProcessor(runtime, ApopheniaConfig())
    regions = [runtime.forest.create_region((64,)) for _ in range(8)]
    tasks = [
        Task(
            f"T{i % 40}",
            [
                RegionRequirement(regions[i % 8], Privilege.READ_ONLY),
                RegionRequirement(regions[(i + 3) % 8], Privilege.READ_WRITE),
            ],
        )
        for i in range(2000)
    ]

    def launch_batch():
        for task in tasks:
            processor.execute_task(task)

    benchmark(launch_batch)
