"""The runtime front-end: virtual costs, tracing integration, metrics."""

import pytest

from repro.runtime.costmodel import CostModel
from repro.runtime.machine import EOS, PERLMUTTER
from repro.runtime.privilege import Privilege
from repro.runtime.runtime import Runtime, TaskMode
from repro.runtime.task import task

RO = Privilege.READ_ONLY
WD = Privilege.WRITE_DISCARD


def chain_tasks(runtime, n, exec_cost=0.0):
    regions = [runtime.forest.create_region((8,)) for _ in range(n + 1)]
    return [
        task(f"T{i}", (regions[i], RO), (regions[i + 1], WD), exec_cost=exec_cost)
        for i in range(n)
    ]


class TestCosts:
    def test_untraced_analysis_cost(self):
        rt = Runtime(gpus=1)
        for t in chain_tasks(rt, 10):
            rt.execute_task(t)
        # 10 tasks x (launch 7us on app) + analysis 1ms each, back to back
        # from the first launch.
        assert rt.pipeline.analysis_clock == pytest.approx(7e-6 + 10 * 1e-3)
        assert rt.pipeline.app_clock == pytest.approx(10 * 7e-6)

    def test_apophenia_launch_cost(self):
        rt = Runtime(gpus=1, auto_tracing=True)
        rt.charge_launch()
        assert rt.pipeline.app_clock == pytest.approx(12e-6)

    def test_analysis_scales_with_nodes(self):
        small = Runtime(machine=PERLMUTTER, gpus=4)
        big = Runtime(machine=PERLMUTTER, gpus=64)
        assert big._analysis_cost > small._analysis_cost
        assert small.nodes == 1 and big.nodes == 16

    def test_record_then_replay_costs(self):
        cm = CostModel()
        rt = Runtime(gpus=1)
        tasks = chain_tasks(rt, 4)
        rt.begin_trace("t")
        for t in tasks:
            rt.execute_task(t)
        rt.end_trace("t")
        recorded_analysis = rt.pipeline.analysis_clock
        assert recorded_analysis == pytest.approx(7e-6 + 4 * cm.memo_cost)

        rt.begin_trace("t")
        for t in tasks:
            rt.execute_task(t)
        rt.end_trace("t")
        replay_analysis = rt.pipeline.analysis_clock - recorded_analysis
        assert replay_analysis == pytest.approx(4 * cm.replay_cost)

    def test_replay_issue_cost_on_exec_stage(self):
        cm = CostModel(replay_issue_quadratic=1e-7, replay_issue_quad_threshold=2)
        rt = Runtime(cost_model=cm, gpus=1)
        tasks = chain_tasks(rt, 4)
        rt.begin_trace("t")
        for t in tasks:
            rt.execute_task(t)
        rt.end_trace("t")
        exec_before = rt.pipeline.exec_clock
        rt.begin_trace("t")
        for t in tasks:
            rt.execute_task(t)
        rt.end_trace("t")
        stall = cm.replay_issue_cost(4)
        assert stall == pytest.approx(cm.replay_constant + 4 * cm.replay_issue_per_task + 1e-7 * 4)
        # The four replayed tasks (4 x alpha_r of analysis, no execution
        # cost) finish inside the stall.
        assert stall > 4 * cm.replay_cost
        assert rt.pipeline.exec_clock - exec_before == pytest.approx(stall)


class TestModes:
    def test_task_modes_logged(self):
        rt = Runtime(gpus=1)
        tasks = chain_tasks(rt, 2)
        rt.execute_task(tasks[0])
        rt.begin_trace("t")
        rt.execute_task(tasks[1])
        rt.end_trace("t")
        modes = [r.mode for r in rt.task_log]
        assert modes == [TaskMode.ANALYZED, TaskMode.RECORDED]

    def test_traced_fraction(self):
        rt = Runtime(gpus=1)
        tasks = chain_tasks(rt, 4)
        for t in tasks[:2]:
            rt.execute_task(t)
        rt.begin_trace("t")
        for t in tasks[2:]:
            rt.execute_task(t)
        rt.end_trace("t")
        assert rt.traced_fraction() == pytest.approx(0.5)

    def test_fallback_mode_swallows_mismatch(self):
        rt = Runtime(gpus=1, mismatch_policy="fallback")
        tasks = chain_tasks(rt, 3)
        rt.begin_trace("t")
        for t in tasks:
            rt.execute_task(t)
        rt.end_trace("t")
        # Replay a different sequence: falls back to analysis, no raise.
        other = chain_tasks(rt, 3)
        rt.begin_trace("t")
        for t in other:
            rt.execute_task(t)
        result = rt.end_trace("t")
        assert result == "aborted"
        assert rt.engine.mismatches == 1
        assert all(r.mode == TaskMode.ANALYZED for r in rt.task_log[3:])

    def test_full_mode_replay_preserves_dependences(self):
        """Idealized replay: dependencies derived during replay equal
        those from direct analysis of the same stream."""
        rt_direct = Runtime(gpus=1, analysis_mode="full")
        rt_traced = Runtime(gpus=1, analysis_mode="full")

        def issue(rt, trace=False):
            regions = [rt.forest.create_region((8,)) for _ in range(4)]
            out = []
            for rep in range(3):
                tasks = [
                    task("A", (regions[0], RO), (regions[1], WD)),
                    task("B", (regions[1], RO), (regions[2], WD)),
                    task("C", (regions[2], RO), (regions[3], WD)),
                ]
                if trace:
                    rt.begin_trace("t")
                for t in tasks:
                    rt.execute_task(t)
                if trace:
                    rt.end_trace("t")
                out.append(tasks)
            return out

        direct = issue(rt_direct, trace=False)
        traced = issue(rt_traced, trace=True)
        for rep in range(3):
            for td, tt in zip(direct[rep], traced[rep]):
                dd = rt_direct.dependences[td.uid].depends_on
                dt = rt_traced.dependences[tt.uid].depends_on
                # Compare shapes: number of dependencies within the rep.
                assert len(dd) == len(dt)


class TestMetrics:
    def test_iteration_throughput(self):
        rt = Runtime(gpus=1)
        for i in range(10):
            rt.set_iteration(i)
            for t in chain_tasks(rt, 3, exec_cost=1e-3):
                rt.execute_task(t)
        thr = rt.throughput(2)
        assert thr > 0
        # Analysis-bound: 3 tasks x 1ms analysis per iteration ~ 333 it/s.
        assert 250 < thr < 400

    def test_throughput_window_end(self):
        rt = Runtime(gpus=1)
        for i in range(10):
            rt.set_iteration(i)
            for t in chain_tasks(rt, 2):
                rt.execute_task(t)
        full = rt.throughput(0)
        windowed = rt.throughput(2, end_iteration=8)
        assert windowed > 0 and full > 0

    def test_throughput_requires_iterations(self):
        rt = Runtime(gpus=1)
        with pytest.raises(ValueError):
            rt.set_iteration(0)
            for t in chain_tasks(rt, 1):
                rt.execute_task(t)
            rt.throughput(5)

    def test_machine_node_math(self):
        assert Runtime(machine=EOS, gpus=1).nodes == 1
        assert Runtime(machine=EOS, gpus=8).nodes == 1
        assert Runtime(machine=EOS, gpus=16).nodes == 2
        assert Runtime(machine=PERLMUTTER, gpus=64).nodes == 16

    def test_bad_analysis_mode(self):
        with pytest.raises(ValueError):
            Runtime(analysis_mode="sometimes")

    def test_fence_serializes(self):
        rt = Runtime(gpus=1)
        for t in chain_tasks(rt, 2, exec_cost=5e-3):
            rt.execute_task(t)
        rt.fence()
        assert rt.pipeline.analysis_clock == rt.pipeline.exec_clock
