#!/usr/bin/env python3
"""Where does ``submit`` spend its time on one benchmark workload?

    python3 scripts/profile_submit.py <workload> [--seed N] [--top K]
                                      [--wall name,...] [--quick] [--gc]
                                      [--alloc] [--cycles]

Builds one ``bench/workloads.py`` workload exactly as ``bench/run.py``
does (both are imported, nothing under ``bench/`` is changed), runs one
untimed warm round, then one round of the client loop under ``cProfile``
and prints the top functions by self time.

``--wall`` names functions as ``module:attribute.path`` (a function that
another module imported by name is named where it is *called* from, e.g.
``repro.core.candidates:canonical_rotation``). Each is wrapped with a
wall-clock accumulator for one further round with the profiler off --
``cProfile`` taxes every Python call and no native one, so it finds
candidates and distorts their sizes -- and reported as calls, total,
median, max and the number of calls over 1 ms: the ones that are the
``submit_p999_cal_us`` population.

``--gc`` runs one further round with the profiler off under a
``gc.callbacks`` probe and prints, per generation, the collections, their
total and maximum pause and the µs/task they cost; the tracked-object
count at each full collection; and the types most common among the
objects a young collection is about to promote (both young generations
are counted at the start of each generation-1 collection).

``--alloc`` runs one further round's client loop with the profiler off
under ``tracemalloc`` and prints the current and peak traced MB, and the
source lines holding the most memory when the loop ends (before the
deployment closes its sessions), by size, with block counts: what a
session keeps for its whole life shows up there.

``--cycles`` runs one further round with the collector disabled, closes
and drops the deployment, and prints what ``gc.collect()`` then finds,
by type: every object there is one that reference counting could not
free, so a closed session that is not acyclic shows up by the thousand.

This sizes work; it measures nothing against a bound. Claims go through
``bench/run.py``.
"""

import argparse
import contextlib
import cProfile
import functools
import gc
import importlib
import inspect
import pstats
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "bench"))

from run import count_tasks, plain_loop  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Deployment,
    build_schedule,
    build_templates,
)

#: A call at least this long is a burst a submit's caller can see.
BURST_S = 1e-3


def one_round(workload, templates, profile=None):
    """Build fresh tasks and a fresh deployment, then run the client
    loop (under ``profile`` when given). Returns the number of tasks
    submitted."""
    schedule = build_schedule(workload, templates)
    deployment = Deployment(workload)
    gc.collect()
    with profile or contextlib.nullcontext():
        plain_loop(deployment, schedule)
    deployment.close()
    return count_tasks(schedule)


def cycle_census(workload, templates):
    """One round and the deployment's close with the collector disabled;
    returns what ``gc.collect()`` then finds once the deployment is
    dropped, by type name."""
    schedule = build_schedule(workload, templates)
    deployment = Deployment(workload)
    gc.collect()
    gc.disable()
    try:
        plain_loop(deployment, schedule)
        deployment.close()
        del deployment, schedule
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what it finds to count it
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def resolve(name):
    """``module:attr.path`` -> ``(owner, attribute name, attribute)``.

    The attribute is read as stored (``inspect.getattr_static``), so a
    ``staticmethod`` or ``classmethod`` comes back as that object, not
    as the function or bound method a plain ``getattr`` would give."""
    module_name, _, path = name.partition(":")
    if not path:
        raise ValueError(f"{name!r}: expected module:attribute.path")
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, inspect.getattr_static(owner, leaf)


class WallClock:
    """Wraps named functions and keeps every call's wall-clock duration."""

    def __init__(self, names):
        self.durations = {name: [] for name in names}
        self._patched = []

    def __enter__(self):
        for name, durations in self.durations.items():
            owner, leaf, stored = resolve(name)
            self._patched.append((owner, leaf, stored))
            if isinstance(stored, (staticmethod, classmethod)):
                timed = self._timed(stored.__func__, durations.append)
                timed = type(stored)(timed)  # re-wrap as what it was
            else:
                timed = self._timed(stored, durations.append)
            setattr(owner, leaf, timed)
        return self

    def __exit__(self, *exc_info):
        for owner, leaf, stored in self._patched:
            setattr(owner, leaf, stored)
        self._patched.clear()

    @staticmethod
    def _timed(function, record):
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record(clock() - start)

        return timed

    def report(self, tasks):
        print(f"{'wall clock':<58}{'calls':>8}{'total ms':>10}"
              f"{'us/task':>9}{'median us':>11}{'max us':>10}{'>1ms':>6}")
        for name, durations in self.durations.items():
            total = sum(durations)
            median = statistics.median(durations) if durations else 0.0
            print(f"{name:<58}{len(durations):>8}{total * 1e3:>10.1f}"
                  f"{total / tasks * 1e6:>9.2f}{median * 1e6:>11.1f}"
                  f"{max(durations, default=0.0) * 1e6:>10.1f}"
                  f"{sum(d >= BURST_S for d in durations):>6}")


class GcProbe:
    """A ``gc.callbacks`` probe over one round: pause per generation,
    tracked objects at each full collection, and a census by type of
    the young generations at each generation-1 start (what that
    collection promotes to generation 2, less what it frees)."""

    def __init__(self):
        self.pauses = {generation: [] for generation in range(3)}
        self.tracked = []
        self.promoted = Counter()
        self._start = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        generation = info["generation"]
        if phase == "stop":
            self.pauses[generation].append(time.perf_counter() - self._start)
            return
        # The census runs before the clock starts: it is not the pause.
        if generation == 2:
            self.tracked.append(len(gc.get_objects()))
        elif generation == 1:
            for young in (0, 1):
                self.promoted.update(
                    type(o).__name__ for o in gc.get_objects(young)
                )
        self._start = time.perf_counter()

    def report(self, tasks, top):
        print(f"{'gc generation':<16}{'collections':>12}{'total ms':>10}"
              f"{'us/task':>9}{'max ms':>9}")
        for generation, pauses in self.pauses.items():
            total = sum(pauses)
            print(f"{'gen ' + str(generation):<16}{len(pauses):>12}"
                  f"{total * 1e3:>10.1f}{total / tasks * 1e6:>9.2f}"
                  f"{max(pauses, default=0.0) * 1e3:>9.1f}")
        print("tracked objects at each full collection:",
              ", ".join(f"{n:,}" for n in self.tracked) or "none")
        print(f"young objects at generation-1 starts, top {top} types:")
        for name, count in self.promoted.most_common(top):
            print(f"  {name:<40}{count:>12,}")


class AllocProbe:
    """``tracemalloc`` over one round's client loop: current and peak
    traced memory, and a snapshot of what is still held at its end."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc_info):
        self.current, self.peak = tracemalloc.get_traced_memory()
        self.snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__)]
        )
        tracemalloc.stop()

    def report(self, top):
        print(f"tracemalloc: {self.current / 1e6:.2f} MB held at the end"
              f" of the loop, {self.peak / 1e6:.2f} MB peak")
        print(f"{'held at the end, by line':<58}{'KiB':>10}{'blocks':>10}")
        for stat in self.snapshot.statistics("lineno")[:top]:
            frame = stat.traceback[0]
            path = Path(frame.filename)
            if path.is_relative_to(REPO_ROOT):
                path = path.relative_to(REPO_ROOT)
            site = f"{path}:{frame.lineno}"
            if len(site) > 57:
                site = "..." + site[-54:]
            print(f"{site:<58}{stat.size / 1024:>10.0f}{stat.count:>10,}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print, by self time")
    parser.add_argument("--wall", default="",
                        help="comma-separated module:attribute.path names"
                             " to time with the profiler off")
    parser.add_argument("--quick", action="store_true",
                        help="the benchmark's smoke-test size")
    parser.add_argument("--gc", action="store_true",
                        help="one more round under a gc.callbacks probe")
    parser.add_argument("--alloc", action="store_true",
                        help="one more round under tracemalloc")
    parser.add_argument("--cycles", action="store_true",
                        help="one more round with the collector off: what"
                             " only gc.collect() frees once it is closed")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()
    templates = build_templates(workload, args.seed)
    one_round(workload, templates)  # warm: imports, caches, allocator

    profile = cProfile.Profile()
    tasks = one_round(workload, templates, profile=profile)
    stats = pstats.Stats(profile, stream=sys.stdout)
    print(f"{args.workload} seed {args.seed}: {tasks} tasks,"
          f" {stats.total_tt / tasks * 1e6:.2f} us/task under cProfile")
    stats.sort_stats("tottime").print_stats(args.top)

    names = [name for name in args.wall.split(",") if name]
    if names:
        with WallClock(names) as wall:
            tasks = one_round(workload, templates)
        wall.report(tasks)
    if args.gc:
        probe = GcProbe()
        tasks = one_round(workload, templates, profile=probe)
        probe.report(tasks, args.top)
    if args.alloc:
        probe = AllocProbe()
        one_round(workload, templates, profile=probe)
        probe.report(args.top)
    if args.cycles:
        found = cycle_census(workload, templates)
        print(f"cycle census: {sum(found.values()):,} objects only"
              " gc.collect() frees after the deployment closed")
        for name, count in found.most_common(args.top):
            print(f"  {name:<40}{count:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
