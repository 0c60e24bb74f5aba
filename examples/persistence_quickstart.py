"""Persistence quickstart: evict without forgetting.

1. Serve half an s3d stream, then ``Session.dehydrate()`` -- the
   session's learned state (candidate trie, realized-replay records,
   op clocks, pending mining jobs) becomes one canonical, digest-stamped
   JSON document that survives any text transport.
2. Resume on a *fresh* backend with ``open_session(..., state=...)`` and
   serve the second half: the decision stream is byte-identical to a
   session that was never interrupted (the headline property of the
   ``persist`` suite).
3. Let the service do it automatically: with ``max_sessions=1`` and a
   ``session_state_budget``, opening a second tenant evicts the first
   *into* the token-budgeted spill store, and re-opening the first
   warm-starts it -- zero re-mining, gauges to prove it.

Run:  PYTHONPATH=src python examples/persistence_quickstart.py
"""

from repro import api
from repro.api import SessionState, open_session
from repro.apps.base import capture_stream
from repro.service import ApopheniaService

CONFIG = api.build_config(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)

SPLIT = 350


def drive(session, stream):
    for iteration, task in stream:
        session.set_iteration(iteration)
        session.submit(task)


def dehydrate_and_resume(stream):
    print("serving the first half, then dehydrating ...")
    with open_session("s3d", config=CONFIG) as session:
        drive(session, stream[:SPLIT])
        state = session.dehydrate()  # flushes: a fence-consistent point
    blob = state.dumps()
    print(f"  {state!r} -> {len(blob)} bytes of canonical JSON")
    restored = SessionState.loads(blob)  # schema + digest checked
    assert restored.dumps() == blob, "round trip must be byte-identical"

    print("resuming on a fresh backend with state= ...")
    with open_session("s3d", config=CONFIG, state=restored) as session:
        drive(session, stream[SPLIT:])
        session.flush()
        resumed = session.snapshot()
        stats = session.stats()
    print(f"  warm_starts={stats.warm_starts}, "
          f"traces fired={stats.traces_fired}")

    with open_session("s3d", config=CONFIG) as session:
        drive(session, stream[:SPLIT])
        session.flush()
        drive(session, stream[SPLIT:])
        session.flush()
        uninterrupted = session.snapshot()
    assert resumed.decisions == uninterrupted.decisions
    print("parity verdict: resumed decision stream is byte-identical to "
          "never having stopped")


def service_spill_tier(stream):
    print("service spill tier (max_sessions=1, budgeted state store):")
    service = ApopheniaService(
        CONFIG.with_overrides(max_sessions=1, session_state_budget=100_000)
    )
    first = open_session("s3d", backend=service)
    drive(first, stream[:SPLIT])
    first.flush()
    # A second tenant evicts s3d -- dehydrated, not forgotten.
    other = open_session("stencil", backend=service)
    held = service.backend_stats
    print(f"  after eviction: states_held={held['states_held']}, "
          f"state_tokens_held={held['state_tokens_held']}")
    # Re-admission pops the snapshot and warm-starts.
    resumed = open_session("s3d", backend=service)
    drive(resumed, stream[SPLIT:])
    resumed.flush()
    stats = resumed.stats()
    print(f"  after re-admission: warm_starts={stats.warm_starts}, "
          f"candidates ingested={stats.candidates_ingested}")
    resumed.close()
    other.close()


def main():
    stream = capture_stream("s3d", 700, task_scale=0.05)
    dehydrate_and_resume(stream)
    service_spill_tier(stream)


if __name__ == "__main__":
    main()
