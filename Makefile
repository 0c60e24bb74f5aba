# Convenience targets; see ROADMAP.md for the canonical commands.

.PHONY: verify verify-full verify-chaos test bench bench-e2e bench-diff pairs profile api-check replication-check lint loc loc-budget corpus trace-check persist-check

## Tier-1 tests plus the perf_smoke guards (the pre-commit check).
verify:
	bash scripts/verify.sh

## Everything: benchmarks and every examples/*.py included.
verify-full:
	VERIFY_FULL=1 bash scripts/verify.sh

## The fault-injection / graceful-degradation suites on their own.
verify-chaos:
	PYTHONPATH=src python -m pytest -x -q -m faults tests

test:
	PYTHONPATH=src python -m pytest -x -q tests

bench:
	PYTHONPATH=src python -m pytest -q benchmarks

## The end-to-end benchmark (bench/README.md): six workloads, calibrated
## front-end cost per task plus the per-layer traced budget. Minutes;
## `make verify` runs the --quick size.
bench-e2e:
	python3 bench/run.py

## Run the benchmark on this tree and compare it to the committed report,
## writing nothing under bench/ (the run goes to $TMPDIR).
bench-diff:
	python3 bench/run.py --out "$${TMPDIR:-/tmp}/bench_head.json" && python3 bench/compare.py bench/results/latest.json "$${TMPDIR:-/tmp}/bench_head.json"

## The claim protocol: alternating bench/run.py --trace 0 pairs of two
## checkouts, PARENT (required) and CHANGE (default: this one), on
## WORKLOAD; per end-to-end metric both medians, the pairs the change
## won and the parent's IQR (unresolved where it exceeds the bound).
## Writes nothing under bench/.
CHANGE ?= .
pairs:
	python3 scripts/pairs.py $(PARENT) $(CHANGE) --workload $(WORKLOAD) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED)) $(if $(QUICK),--quick)

## Where one workload's submit time goes: one warm round, one round under
## cProfile (top functions by self time), and wall-clock accumulators for
## the functions named in WALL (module:attribute.path, comma-separated);
## GC=1 adds a round under a gc.callbacks probe (pauses per generation,
## tracked objects at full collections, what the young ones promote);
## ALLOC=1 adds a round under tracemalloc (current and peak MB, and the
## lines holding the most memory at the end of the loop, with blocks);
## CYCLES=1 adds a round with the collector off and prints what
## gc.collect() finds once the deployment is closed, by type.
## Sizes work; claims go through bench/run.py.
WORKLOAD ?= steady_s3d
profile:
	python3 scripts/profile_submit.py $(WORKLOAD) $(if $(SEED),--seed $(SEED)) $(if $(TOP),--top $(TOP)) $(if $(WALL),--wall $(WALL)) $(if $(GC),--gc) $(if $(ALLOC),--alloc) $(if $(CYCLES),--cycles)

## Public-API snapshot + client-facade suites on their own.
api-check:
	PYTHONPATH=src python -m pytest -q -m api tests

## The control-replication agreement suites on their own.
replication-check:
	PYTHONPATH=src python -m pytest -x -q -m replication tests

## The determinism & invariant linter (rules RPL001-RPL009) over src/.
lint:
	PYTHONPATH=src python -m repro.lint src

## Code lines of src/repro per package and in total (a line holding a
## token that is neither a comment nor part of a docstring), checked
## against size-budget.json -- which tier-1 also does.
loc:
	python3 scripts/loc.py

## Accept the current total as the new size budget (review the diff! --
## a PR that needs more code raises it deliberately, in-PR).
loc-budget:
	python3 scripts/loc.py --write

## The session-persistence (dehydrate/hydrate) suites on their own.
persist-check:
	PYTHONPATH=src python -m pytest -x -q -m persist tests

## The trace capture/re-drive corpus suites on their own.
trace-check:
	PYTHONPATH=src python -m pytest -x -q -m trace tests

## Regenerate the re-drive corpus fixtures (review the diff! -- same
## accept-the-delta workflow as loc-budget).
corpus:
	PYTHONPATH=src python -m repro.trace corpus tests/corpus
