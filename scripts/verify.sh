#!/usr/bin/env bash
# Repo verification: tier-1 tests plus the fast perf guards.
#
#   scripts/verify.sh            # lint + unit suite + perf_smoke + quick bench
#   VERIFY_FULL=1 scripts/verify.sh   # additionally the full benchmark suite
#                                     # and every examples/*.py
#
# Used by `make verify`; keep it in sync with the tier-1 command recorded
# in ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Static analysis first: the determinism & invariant linter (rules
# RPL001-RPL009, see `python -m repro.lint --list-rules`) over src/.
# Fails on any violation no reasoned `# replint: allow[...]` pragma
# accepts; runs before the tests because it is the cheapest gate.
echo "== static analysis"
python -m repro.lint src

echo "== tier-1 unit suite"
python -m pytest -x -q tests

# The marker subsets (api, replication, faults, trace, persist) all ran
# as part of tests/ above; select one on its own with `make api-check`,
# `make replication-check`, `make verify-chaos`, `make trace-check` or
# `make persist-check`.

# The perf_smoke-marked guards: the vectorised mining pipeline vs the
# scalar one on every construction on a 2k-token window, and the same
# window plus a corpus re-drive in a process where `import numpy` fails
# (both tests/test_sa_backends.py); the null-fault-plan hook-overhead
# guard (benchmarks/test_perf_faults.py), the trace-capture overhead
# guard (benchmarks/test_perf_trace.py) and the warm-start guard
# (benchmarks/test_perf_persist.py). What a layer costs per task is the
# benchmark's business (next step), not a guard's.
echo "== perf_smoke guards"
python -m pytest -x -q -m perf_smoke

# The end-to-end benchmark at smoke size (~5 s): all six workloads on all
# three backends through open_session().submit(), with its correctness
# ledger (failed must be 0) -- the full run is `make bench-e2e`.
echo "== end-to-end benchmark (quick)"
python3 bench/run.py --quick

if [ "${VERIFY_FULL:-0}" = "1" ]; then
    echo "== full suite (benchmarks included)"
    python -m pytest -x -q

    # Every example asserts what it prints; run them all so one cannot
    # rot unnoticed (~10 s together).
    echo "== examples"
    for example in examples/*.py; do
        echo "-- $example"
        python "$example" > /dev/null
    done
fi
