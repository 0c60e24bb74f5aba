"""Pipeline clock mechanics, cost model, and machine configs."""

import pytest

from repro.runtime.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.runtime.machine import EOS, PERLMUTTER
from repro.runtime.pipeline import Pipeline


class TestPipeline:
    def test_stages_serialize_per_task(self):
        p = Pipeline()
        done = p.execute(p.analyze(p.launch(1.0), 2.0), 3.0)
        assert done == pytest.approx(6.0)
        assert p.now == pytest.approx(6.0)

    def test_pipelining_overlaps_stages(self):
        p = Pipeline()
        for _ in range(10):
            p.execute(p.analyze(p.launch(0.0), 1.0), 0.5)
        # Analysis is the bottleneck: 10 x 1.0; exec trails by its last 0.5.
        assert p.analysis_clock == pytest.approx(10.0)
        assert p.exec_clock == pytest.approx(10.5)

    def test_exec_bottleneck(self):
        p = Pipeline()
        for _ in range(10):
            p.execute(p.analyze(p.launch(0.0), 0.1), 1.0)
        assert p.exec_clock == pytest.approx(0.1 + 10.0)

    def test_stall_accounting(self):
        p = Pipeline()
        p.execute(p.analyze(p.launch(0.0), 1.0), 1.0)
        # Execution waited 1.0 for the analysis before its 1.0 of work.
        assert p.exec_clock == pytest.approx(2.0)

    def test_ready_at_delays_analysis(self):
        p = Pipeline()
        p.analyze(5.0, 1.0)
        assert p.analysis_clock == pytest.approx(6.0)

    def test_advance_app(self):
        p = Pipeline()
        p.advance_app(3.0)
        assert p.app_clock == 3.0
        p.advance_app(1.0)  # never goes backwards
        assert p.app_clock == 3.0

    def test_busy_accounting(self):
        p = Pipeline()
        for _ in range(4):
            p.execute(p.analyze(p.launch(0.25), 0.5), 0.125)
        # Each stage is busy back to back once the first task reaches it.
        assert p.app_clock == pytest.approx(4 * 0.25)
        assert p.analysis_clock == pytest.approx(0.25 + 4 * 0.5)
        assert p.exec_clock == pytest.approx(0.25 + 4 * 0.5 + 0.125)


class TestCostModel:
    def test_paper_calibration(self):
        cm = DEFAULT_COST_MODEL
        assert cm.launch(False) == pytest.approx(7e-6)
        assert cm.launch(True) == pytest.approx(12e-6)
        assert cm.analysis_cost == pytest.approx(1e-3)
        assert cm.replay_cost == pytest.approx(1e-4)
        assert cm.memo_cost > cm.analysis_cost
        assert cm.replay_cost < cm.analysis_cost / 5

    def test_analysis_at_scale_monotone(self):
        cm = DEFAULT_COST_MODEL
        costs = [cm.analysis_at_scale(n) for n in (1, 2, 4, 8, 16)]
        assert costs == sorted(costs)
        assert costs[0] == pytest.approx(cm.analysis_cost)

    def test_replay_issue_cost(self):
        cm = CostModel(
            replay_constant=1e-3,
            replay_issue_per_task=1e-5,
            replay_issue_quadratic=1e-8,
            replay_issue_quad_threshold=100,
        )
        assert cm.replay_issue_cost(50) == pytest.approx(1e-3 + 50e-5)
        long = cm.replay_issue_cost(300)
        assert long == pytest.approx(1e-3 + 300e-5 + 1e-8 * 200 * 200)

    def test_default_has_no_quadratic_penalty(self):
        # The footnote-5 nonideality is opt-in (Figure 8 harness only).
        assert DEFAULT_COST_MODEL.replay_issue_quadratic == 0.0

    def test_comm_cost_grows_with_nodes(self):
        cm = DEFAULT_COST_MODEL
        assert cm.comm_cost(16, 1 << 20) > cm.comm_cost(2, 1 << 20)
        assert cm.comm_cost(2, 1 << 22) > cm.comm_cost(2, 1 << 18)

    def test_with_overrides(self):
        cm = DEFAULT_COST_MODEL.with_overrides(analysis_cost=5e-3)
        assert cm.analysis_cost == 5e-3
        assert DEFAULT_COST_MODEL.analysis_cost == 1e-3  # frozen original


class TestMachines:
    def test_paper_configs(self):
        assert PERLMUTTER.gpus_per_node == 4  # 4x A100
        assert PERLMUTTER.gpu_memory_gb == 40.0
        assert EOS.gpus_per_node == 8  # DGX H100
        assert EOS.gpu_memory_gb == 80.0
        assert EOS.interconnect == "infiniband"
        assert PERLMUTTER.interconnect == "slingshot"

    def test_nodes_for(self):
        assert PERLMUTTER.nodes_for(4) == 1
        assert PERLMUTTER.nodes_for(5) == 2
        assert PERLMUTTER.nodes_for(64) == 16
        with pytest.raises(ValueError):
            PERLMUTTER.nodes_for(0)

    def test_gpus_on_node(self):
        assert PERLMUTTER.gpus_on_node(6, 0) == 3
        assert PERLMUTTER.gpus_on_node(6, 1) == 3
        assert EOS.gpus_on_node(8, 0) == 8
