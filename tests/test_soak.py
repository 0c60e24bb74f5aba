"""Soak guard: a session holds its learned state, not its stream.

One standalone session is driven through a stream of N tasks and a fresh
one through 3N; what each holds after its final flush is counted in
entries, not bytes. A stream that never repeats (``novel_stream``, the
shape of the benchmark's ``irregular_novel``) teaches nothing, so the
session must hold nothing that grows with it: the hasher's cache stays
within the history buffer and holds the same count at both lengths, the
finder's buffer is the history buffer, and the trie and the trace log
stay empty. The ``steady_s3d`` and ``adversarial_gen`` shapes do learn:
their trie and trace log are reported (``pytest -s``), not asserted on,
because candidate growth is the paper's default and the trace log keeps
one entry per fire.

Tier-1 runs a 500-token buffer at 3,000 and 9,000 tasks; the paper's
buffer at 60k and 180k tasks is ``benchmarks/test_soak_deep.py``.
"""

import pytest

from repro.api import open_session
from repro.apps.base import AppConfig, _CaptureExecutor, get_app
from repro.apps.generative import PHASE_GRAPHS
from repro.core.processor import ApopheniaConfig
from test_hashing import novel_stream

#: The benchmark's ``--quick`` buffer.
SMALL = ApopheniaConfig(batchsize=500, multi_scale_factor=25)


def app_tasks(name, count, **kwargs):
    """The first ``count`` launches of an untraced application (as the
    benchmark builds it), one iteration built at a time."""
    app = get_app(name)(AppConfig(mode="untraced", gpus=4, task_scale=0.1,
                                  keep_task_log=False), **kwargs)
    app.executor = feed = _CaptureExecutor()
    index = 0
    while count > 0:
        app.iteration(index)
        index += 1
        batch, feed.tasks = feed.tasks[:count], []
        count -= len(batch)
        yield from batch


#: The learning shapes, by their benchmark workload's name.
SHAPES = {
    "steady_s3d": lambda count: app_tasks("s3d", count),
    "adversarial_gen": lambda count: app_tasks(
        "generative", count, graph=PHASE_GRAPHS["adversarial"].with_seed(1)
    ),
}


def soak(tasks, config):
    """What a fresh standalone session holds, in entries, after
    ``tasks`` and a flush."""
    with open_session("soak", config=config) as session:
        for launched in tasks:
            session.submit(launched)
        session.flush()
        processor = session.processor
        return dict(
            hasher=len(processor.hasher._cache),
            finder=len(processor.finder.buffer),
            trie=len(processor.replayer.engine.trie.candidates),
            trace_log=len(processor.trace_log),
        )


def soak_twice(tasks, config, count):
    """What sessions hold after ``tasks(count)`` and ``tasks(3 *
    count)``; at both lengths the hasher and the finder stay within the
    history buffer."""
    sizes = [soak(tasks(n), config) for n in (count, 3 * count)]
    for held in sizes:
        assert held["hasher"] <= config.batchsize, held
        assert held["finder"] <= config.batchsize, held
    return sizes


def check_novel(config, count):
    """The novel stream learns nothing and holds the same entries at
    both lengths."""
    short, long = soak_twice(novel_stream, config, count)
    for held in (short, long):
        assert held["trie"] == held["trace_log"] == 0, held
    assert long["hasher"] == short["hasher"], (short, long)
    return short, long


def report_shape(name, config, count):
    """A learning shape: its trie and trace log are printed, not
    asserted on."""
    sizes = soak_twice(SHAPES[name], config, count)
    for n, held in zip((count, 3 * count), sizes):
        print(f"soak {name} {n} tasks: {held}")
    return sizes


def test_a_novel_stream_holds_no_more_at_three_times_the_length():
    short, _ = check_novel(SMALL, 3000)
    assert short["hasher"] == short["finder"] == SMALL.batchsize


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_learning_shapes_keep_their_buffers_bounded(name):
    report_shape(name, SMALL, 3000)
