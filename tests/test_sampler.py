"""Ruler-function multi-scale sampling (Section 4.4, Figure 5)."""

import pytest

from repro.core.sampler import MultiScaleSampler, ruler, ruler_powers


class TestRuler:
    def test_first_values(self):
        # ruler(1..8) = 0 1 0 2 0 1 0 3
        assert [ruler(k) for k in range(1, 9)] == [0, 1, 0, 2, 0, 1, 0, 3]

    def test_powers_figure5(self):
        # 2**ruler: 1 2 1 4 1 2 1 8 -- the Figure 5 schedule for size 8.
        assert ruler_powers(8) == [1, 2, 1, 4, 1, 2, 1, 8]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ruler(0)


def sizes_over(sampler, n):
    """The sampler's answer at each of the first ``n`` arrivals."""
    return [sampler.size_at(op) for op in range(1, n + 1)]


class TestMultiScaleSampler:
    def test_figure5_schedule(self):
        """Buffer of 8, factor 1: slice sizes follow 1 2 1 4 1 2 1 8."""
        sampler = MultiScaleSampler(factor=1, capacity=8)
        sizes = sizes_over(sampler, 8)
        assert sizes == [1, 2, 1, 4, 1, 2, 1, 8]

    def test_factor_gates_triggers(self):
        sampler = MultiScaleSampler(factor=250, capacity=1000)
        sizes = sizes_over(sampler, 1000)
        triggers = [(i + 1, s) for i, s in enumerate(sizes) if s is not None]
        assert [t[0] for t in triggers] == [250, 500, 750, 1000]
        assert [t[1] for t in triggers] == [250, 500, 250, 1000]

    def test_slices_capped_at_capacity(self):
        sampler = MultiScaleSampler(factor=100, capacity=250)
        sizes = [s for s in sizes_over(sampler, 2000) if s]
        assert max(sizes) <= 250

    def test_schedule_is_periodic(self):
        sampler = MultiScaleSampler(factor=1, capacity=4)
        sizes = sizes_over(sampler, 12)
        assert sizes == [1, 2, 1, 4] * 3

    def test_full_buffer_sampled_regularly(self):
        """The largest slice (the full buffer) recurs, so long traces are
        eventually discoverable (the H2-H4/H5-H7 example of Figure 5)."""
        sampler = MultiScaleSampler(factor=1, capacity=8)
        sizes = sizes_over(sampler, 32)
        assert sizes.count(8) == 4

    def test_full_buffer_reached_at_paper_defaults(self):
        """factor=250, capacity=5000: the ratio (20) is not a power of two,
        yet every period must still end with a full-buffer slice --
        otherwise repeats longer than 4000 tokens are unfindable despite
        the 5000-token buffer."""
        sampler = MultiScaleSampler(factor=250, capacity=5000)
        sizes = [s for s in sizes_over(sampler, 250 * 64) if s]
        assert max(sizes) == 5000
        # Two full periods of 32 triggers, each ending at the capacity.
        assert len(sizes) == 64
        assert sizes[31] == 5000 and sizes[63] == 5000
        assert sizes.count(5000) == 2

    def test_full_buffer_reached_when_factor_does_not_divide(self):
        """ceil, not floor: capacity 5000 / factor 300 floors to 16 (a
        power of two) but 300 * 16 = 4800 still undershoots the buffer."""
        sampler = MultiScaleSampler(factor=300, capacity=5000)
        sizes = [s for s in sizes_over(sampler, 300 * 32) if s]
        assert max(sizes) == 5000
        assert sizes[-1] == 5000

    def test_ruler_shape_kept_for_non_power_of_two_ratio(self):
        """Extending the period preserves the ruler shape: every slice is
        factor * 2**ruler(k), capped at the capacity."""
        from repro.core.sampler import ruler

        factor, capacity = 250, 5000
        sampler = MultiScaleSampler(factor=factor, capacity=capacity)
        sizes = [s for s in sizes_over(sampler, 250 * 32) if s]
        expected = [
            min(factor * 2 ** ruler(k), capacity) for k in range(1, 33)
        ]
        assert sizes == expected

    def test_answer_is_a_function_of_the_arrival_count(self):
        """No clock of its own: asking out of order, or twice, answers
        exactly what asking in arrival order does."""
        sampler = MultiScaleSampler(factor=3, capacity=20)
        forward = sizes_over(sampler, 100)
        backward = [sampler.size_at(op) for op in range(100, 0, -1)]
        assert backward == forward[::-1]
        assert sizes_over(sampler, 100) == forward

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MultiScaleSampler(factor=0, capacity=8)
        with pytest.raises(ValueError):
            MultiScaleSampler(factor=1, capacity=0)

    def test_total_work_bound(self):
        """Sampled work is O(n log n) tokens over n arrivals: the log^2
        bound of Section 4.4 given the O(n log n) miner."""
        import math

        factor, capacity = 10, 640
        sampler = MultiScaleSampler(factor=factor, capacity=capacity)
        n = 6400
        total = sum(s for s in sizes_over(sampler, n) if s)
        bound = n * (math.log2(capacity / factor) + 2)
        assert total <= bound
