"""Ruler-function multi-scale buffer sampling (Section 4.4).

The trace finder accumulates tokens into a history buffer of fixed capacity
(``batchsize`` in the artifact's flags). Mining the whole buffer on every
trigger would be slow and unresponsive; mining only recent suffixes would
never find long traces. Apophenia resolves the tension by sampling slices
of the buffer whose sizes follow the *ruler function*:

    ruler(k) = exponent of the largest power of two dividing k

Every ``multi_scale_factor`` tasks (the paper suggests 250), the finder
analyzes the most recent ``multi_scale_factor * 2**ruler(k)`` tokens, where
``k`` counts triggers -- the arrival count over the factor, so the
schedule keeps no counter of its own. The resulting schedule analyzes
short recent windows frequently and exponentially longer windows
exponentially rarely, adding only a log factor over a single full-buffer
analysis: total work is O(n log^2 n) for an O(n log n) miner.
"""


def ruler(k):
    """The ruler function: largest ``e`` such that ``2**e`` divides ``k``."""
    if k <= 0:
        raise ValueError("ruler function is defined for positive integers")
    return (k & -k).bit_length() - 1


def ruler_powers(count):
    """First ``count`` values of ``2**ruler(k)`` for k = 1, 2, ...

    For a buffer of size 4 this yields 1, 2, 1, 4 -- the sampling schedule
    visualized in the paper's Figure 5.
    """
    return [2 ** ruler(k) for k in range(1, count + 1)]


class MultiScaleSampler:
    """Says, per arriving token, how much of the buffer to analyze.

    The schedule is a pure function of the arrival count: the sampler
    holds only its two parameters, and the finder's op clock
    (``TraceFinder.ops_observed``) is the one counter it reads.

    Parameters
    ----------
    factor:
        The ``multi_scale_factor``: granularity (in tasks) of triggers.
        ``factor == capacity`` is the "fixed" strawman Section 4.4
        improves on (the artifact's ``identifier_algorithm=fixed``):
        the whole buffer is mined each time it fills.
    capacity:
        The history buffer capacity (``batchsize``); slice sizes are capped
        to it, and the trigger count wraps when the largest slice reaches
        the capacity so the schedule stays periodic. Every period *must*
        end with a capacity-sized slice: a schedule that tops out below the
        buffer can never find repeats longer than its largest slice, making
        part of the buffer dead weight.
    """

    def __init__(self, factor=250, capacity=5000):
        if factor <= 0 or capacity <= 0:
            raise ValueError("factor and capacity must be positive")
        self.factor = factor
        self.capacity = capacity
        # Triggers per full period: the smallest power of two ``p`` with
        # factor * p >= capacity, so the period's final slice (the only k
        # in [1, p] with ruler(k) = log2(p)) is capacity-sized after
        # capping. Rounding *down* instead -- the natural reading of
        # "period = capacity / factor" -- silently strands the buffer tail
        # whenever the ratio is not a power of two: with the paper's
        # defaults (factor 250, capacity 5000) the largest slice would be
        # 4000 tokens and repeats longer than that would be unfindable
        # despite the 5000-token buffer.
        slices = -(-capacity // factor)  # ceil(capacity / factor)
        self._period = 1 << (slices - 1).bit_length()

    def size_at(self, op):
        """The slice size (in tokens, counted from the most recent) to
        analyze when the ``op``-th token arrives (``op >= 1``), or
        ``None`` if that arrival triggers no analysis."""
        if op % self.factor:
            return None
        k = (op // self.factor - 1) % self._period + 1
        return min(self.factor * 2 ** ruler(k), self.capacity)
