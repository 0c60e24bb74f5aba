"""Comparison metrics for repeat-finding algorithms.

Used by the ablation benchmarks to compare Algorithm 2 against the LZW,
tandem-repeat, and quadratic baselines on coverage and wall-clock cost.
"""

import time

from repro.core.repeats import covered_tokens


class FinderResult:
    """Outcome of running one finder over one window."""

    __slots__ = ("name", "coverage", "coverage_fraction", "seconds")

    def __init__(self, name, repeats, window_size, seconds):
        self.name = name
        self.coverage = covered_tokens(repeats)
        self.coverage_fraction = (
            self.coverage / window_size if window_size else 0.0
        )
        self.seconds = seconds

    def __repr__(self):
        return (
            f"FinderResult({self.name}: coverage={self.coverage_fraction:.2%}, "
            f"t={self.seconds * 1e3:.2f}ms)"
        )


def finder_comparison(finders, tokens, min_length=1):
    """Run every finder on the same window; returns ``[FinderResult]``.

    ``finders`` maps name -> callable with Algorithm 2's interface.
    """
    tokens = list(tokens)
    results = []
    for name, finder in finders.items():
        start = time.perf_counter()
        repeats = finder(tokens, min_length)
        elapsed = time.perf_counter() - start
        results.append(FinderResult(name, repeats, len(tokens), elapsed))
    return results
