"""The repo's one end-to-end benchmark.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--out PATH]

Drives each workload through the public facade
(``repro.api.open_session(...).submit()``) in a closed loop -- one client
thread, one process -- prints every metric by name with its unit, checks
that the outputs are correct, and attributes ``submit`` time to layers in
a separate traced pass. See ``bench/README.md`` for what each number
means and ``BENCHMARK.json`` for the names, directions and bounds.

With ``--workload`` and ``--trace`` both given, the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics for ``--trace 0``, the per-layer
metrics for ``--trace 1``.
"""

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from calibrate import CAL_REF_S, Calibrator  # noqa: E402
from layers import LAYER_METRICS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    ADMIT,
    WORKLOADS,
    Deployment,
    build_schedule,
    build_templates,
    stream_digest,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10

#: Operations between two runs of the calibration kernel.
SLICE_OPS = 2000
#: Untimed operations that warm the interpreter up before round 1.
WARMUP_OPS = 4000
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed rounds a run makes even when the time budget is spent.
MIN_ROUNDS = 3
#: The replay curve is sampled every this many tasks.
CURVE_STEP = 500
#: ``warmup_tasks`` is where the curve reaches this share of its end.
WARMUP_SHARE = 0.8
#: Full spans are kept for every this-many-th operation.
SPAN_SAMPLE_EVERY = 100
#: Untimed rounds that give the traced pass its untraced reference.
REFERENCE_ROUNDS = 2
#: Layer self times must add up to the traced loop within this share.
CLOSURE_TOLERANCE = 0.05

#: End-to-end metrics and their units (bounds live in BENCHMARK.json).
E2E_METRICS = {
    "submit_cal_us_per_task": "us",
    "submit_p50_cal_us": "us",
    "submit_p999_cal_us": "us",
    "untraced_fraction": "share",
    "warmup_tasks": "tasks",
    "peak_alloc_mb": "MB",
    "setup_s": "s",
}


class Ledger:
    """Operations attempted and failed, and why a run is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, count, message):
        self.failed += max(1, count)
        self.errors.append(message)


# ----------------------------------------------------------------------
# Client loops
# ----------------------------------------------------------------------
def timed_loop(deployment, schedule, calibrator, latencies):
    """Issue ``schedule``, timing it; returns CPU seconds of the client
    loop (``set_iteration`` + ``submit`` + re-admission + final flush).

    The kernel runs before each slice and once after the flush. One
    latency per operation is appended to ``latencies``.
    """
    sessions = deployment.sessions
    admit = deployment.admit
    clock = time.perf_counter
    cpu_clock = time.process_time
    record = latencies.append
    cpu = 0.0
    for start in range(0, len(schedule), SLICE_OPS):
        chunk = schedule[start:start + SLICE_OPS]
        calibrator.sample()
        cpu_start = cpu_clock()
        previous = clock()
        for tenant, iteration, task in chunk:
            if task is ADMIT:
                admit(tenant)
            else:
                session = sessions[tenant]
                if iteration is not None:
                    session.set_iteration(iteration)
                session.submit(task)
            now = clock()
            record(now - previous)
            previous = now
        cpu += cpu_clock() - cpu_start
    cpu_start = cpu_clock()
    deployment.flush()
    cpu += cpu_clock() - cpu_start
    calibrator.sample()
    return cpu


def plain_loop(deployment, schedule, curve=None):
    """Issue ``schedule`` untimed; with ``curve``, append ``(tasks,
    tasks_traced, rss_bytes)`` every :data:`CURVE_STEP` tasks and after
    the final flush."""
    sessions = deployment.sessions
    tasks = 0
    for tenant, iteration, task in schedule:
        if task is ADMIT:
            deployment.admit(tenant)
            continue
        session = sessions[tenant]
        if iteration is not None:
            session.set_iteration(iteration)
        session.submit(task)
        tasks += 1
        if curve is not None and tasks % CURVE_STEP == 0:
            curve.append((tasks, deployment.tasks_traced(), rss_bytes()))
    deployment.flush()
    if curve is not None:
        curve.append((tasks, deployment.tasks_traced(), rss_bytes()))


def traced_loop(deployment, schedule, calibrator, rec):
    """Issue ``schedule`` under ``api:*`` spans; returns ``(cpu_seconds,
    wall_seconds)`` of the client loop, kernel runs excluded."""
    sessions = deployment.sessions
    admit = deployment.admit
    begin, end = rec.begin, rec.end
    clock = time.perf_counter
    cpu_clock = time.process_time
    cpu = wall = 0.0
    request = 0
    for start in range(0, len(schedule), SLICE_OPS):
        chunk = schedule[start:start + SLICE_OPS]
        calibrator.sample()
        cpu_start = cpu_clock()
        wall_start = clock()
        for tenant, iteration, task in chunk:
            rec.request = request
            rec.sampling = request % SPAN_SAMPLE_EVERY == 0
            request += 1
            if task is ADMIT:
                begin("api:open_session")
                admit(tenant)
                end("api:open_session")
            else:
                session = sessions[tenant]
                if iteration is not None:
                    begin("api:set_iteration")
                    session.set_iteration(iteration)
                    end("api:set_iteration")
                begin("api:submit")
                session.submit(task)
                end("api:submit")
        wall += clock() - wall_start
        cpu += cpu_clock() - cpu_start
    rec.sampling = False
    cpu_start = cpu_clock()
    wall_start = clock()
    begin("api:flush")
    deployment.flush()
    end("api:flush")
    wall += clock() - wall_start
    cpu += cpu_clock() - cpu_start
    calibrator.sample()
    return cpu, wall


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def count_tasks(schedule):
    return sum(1 for _, _, task in schedule if task is not ADMIT)


def verify(workload, deployment, schedule, ledger, where):
    """Task conservation per session and the workload's own invariant;
    returns the round's decision digest."""
    submitted = Counter(
        tenant for tenant, _, task in schedule if task is not ADMIT
    )
    digests = []
    for tenant, session in enumerate(deployment.sessions):
        stats = session.stats()
        want = submitted[tenant]
        if not (stats.tasks_seen == want
                == stats.tasks_flushed + stats.tasks_traced):
            ledger.fail(
                abs(want - stats.tasks_seen)
                + abs(stats.tasks_seen - stats.tasks_flushed
                      - stats.tasks_traced),
                f"{where}: session {session.session_id} submitted {want},"
                f" saw {stats.tasks_seen}, flushed {stats.tasks_flushed},"
                f" traced {stats.tasks_traced}",
            )
        digests.append(session.snapshot().stable_digest())
        if workload.backend == "replicated" and \
                not session.handle.decisions_agree():
            ledger.fail(want, f"{where}: replicas of {session.session_id}"
                              " disagree on decisions")
    if workload.readmit and \
            deployment.backend.backend_stats["warm_starts"] < 1:
        ledger.fail(len(schedule), f"{where}: no tenant was warm-started")
    return hashlib.sha256("-".join(digests).encode()).hexdigest()[:16]


def check_digest(digest, reference, ledger, count, where):
    if digest != reference:
        ledger.fail(count, f"{where}: decision digest {digest} differs"
                           f" from the first round's {reference}")


def check_standalone_twins(workload, templates, deployment, ledger):
    """Each service tenant must decide exactly what the same stream
    decides alone on a standalone session with the same config."""
    for tenant, session in enumerate(deployment.sessions):
        twin = dataclasses.replace(
            workload, streams=(workload.streams[tenant],),
            backend="standalone",
        )
        alone = Deployment(twin)
        plain_loop(alone, build_schedule(twin, [templates[tenant]]))
        if alone.sessions[0].snapshot() != session.snapshot():
            ledger.fail(
                len(templates[tenant]),
                f"service tenant {session.session_id} decided differently"
                " from its standalone twin",
            )
        alone.close()


# ----------------------------------------------------------------------
# Phases of one workload's run
# ----------------------------------------------------------------------
def warm_up(workload, schedule):
    """Run the untimed prefix that warms the interpreter up, on a
    deployment of its own."""
    deployment = Deployment(workload)
    plain_loop(deployment, schedule[:WARMUP_OPS])
    deployment.close()


def setup_phase(workload, seed, repeats):
    """Set the workload up ``repeats`` times: generate the streams, build
    one round of fresh tasks, construct the backend and its sessions,
    and run the warm-up prefix. Returns the last set-up's templates and
    one calibrated CPU time per set-up (six kernel samples each: a
    set-up is short, and two would leave the factor itself noisy)."""
    samples = []
    for _ in range(repeats):
        templates = None  # every set-up starts from the same heap
        gc.collect()
        calibrator = Calibrator()
        calibrator.sample()
        templates = calibrator.run(build_templates, workload, seed)
        schedule = calibrator.run(build_schedule, workload, templates)
        calibrator.run(warm_up, workload, schedule)
        calibrator.sample()
        calibrator.sample()
        samples.append(calibrator.cpu * calibrator.factor())
    return templates, samples


def rss_bytes():
    """Resident set size of this process right now."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def quality_pass(workload, seed, ledger):
    """One untimed round: the deterministic metrics, peak memory, the
    reference digest, and the once-per-run checks.

    Runs before anything else of size has been allocated and freed in
    the process, so that the growth of the resident set over the round
    (sampled with the replay curve) is the memory of backend, sessions
    and buffered tasks and not a matter of which freed arenas the
    allocator happens to reuse.
    """
    templates = build_templates(workload, seed)
    schedule = build_schedule(workload, templates)
    tasks = count_tasks(schedule)
    ledger.attempted += len(schedule)
    curve = []
    gc.collect()
    rss_before = rss_bytes()
    deployment = Deployment(workload)
    plain_loop(deployment, schedule, curve)
    rss_peak = max(rss for _, _, rss in curve)
    digest = verify(workload, deployment, schedule, ledger, "quality pass")
    if workload.backend == "service" and not workload.readmit:
        check_standalone_twins(workload, templates, deployment, ledger)
    final = deployment.tasks_traced() / tasks
    warmup = tasks  # a stream that is never replayed never warms up
    if final > 0:
        warmup = next(
            (n for n, t, _ in curve if t / n >= WARMUP_SHARE * final), tasks
        )
    deployment.close()
    return {
        "untraced_fraction": 1.0 - final,
        "warmup_tasks": warmup,
        "peak_alloc_mb": (rss_peak - rss_before) / 1e6,
        "digest": digest,
    }


def timed_round(workload, templates, ledger, reference_digest, where):
    """One timed round; returns its calibrated numbers, or ``None`` when
    an operation raised."""
    schedule = build_schedule(workload, templates)
    tasks = count_tasks(schedule)
    ledger.attempted += len(schedule)
    deployment = Deployment(workload)
    calibrator = Calibrator()
    latencies = []
    gc.collect()
    try:
        cpu = timed_loop(deployment, schedule, calibrator, latencies)
    except Exception as exc:  # an operation failed: the round is void
        ledger.fail(len(schedule) - len(latencies),
                    f"{where}: {type(exc).__name__}: {exc}")
        return None
    digest = verify(workload, deployment, schedule, ledger, where)
    if reference_digest is not None:
        check_digest(digest, reference_digest, ledger, len(schedule), where)
    deployment.close()
    factor = calibrator.factor()
    latencies.sort()
    tail = len(latencies) // 100
    beyond = max(1, len(latencies) // 1000)
    return {
        "digest": digest,
        "tasks": tasks,
        "ops": len(latencies),
        "raw_us_per_task": cpu / tasks * 1e6,
        "cal_us_per_task": cpu / tasks * factor * 1e6,
        "p50_cal_us": latencies[len(latencies) // 2] * factor * 1e6,
        "p999_cal_us": latencies[-beyond] * factor * 1e6,
        # Everything p99.9 can fall in, for pooling over rounds.
        "tail_cal_us": [v * factor * 1e6 for v in latencies[-tail:]],
        "kernel_s": calibrator.samples,
    }


def measure_phase(workload, templates, seconds, min_rounds, ledger,
                  reference_digest):
    """Timed rounds until ``seconds`` are spent (at least ``min_rounds``,
    and exactly that many when ``seconds`` is ``None``). Every round's
    decision digest must equal ``reference_digest``, or the first
    round's when that is ``None``."""
    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        if index >= min_rounds:
            if seconds is None:
                break
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / index > seconds:
                break
        result = timed_round(workload, templates, ledger, reference_digest,
                             f"round {index + 1}")
        if result is None:
            break
        rounds.append(result)
        reference_digest = reference_digest or result["digest"]
    return rounds


def traced_round(workload, templates, ledger, reference_digest,
                 reference_cost, spans_path):
    """One round under the layer tracer; returns the per-layer table."""
    schedule = build_schedule(workload, templates)
    tasks = count_tasks(schedule)
    ledger.attempted += len(schedule)
    deployment = Deployment(workload)
    tracer = LayerTracer()
    calibrator = Calibrator()
    gc.collect()
    try:
        tracer.attach(deployment)
        cpu, wall = traced_loop(deployment, schedule, calibrator, tracer.rec)
    except Exception as exc:
        ledger.fail(len(schedule), f"traced round: "
                                   f"{type(exc).__name__}: {exc}")
        return None
    finally:
        tracer.detach()
    totals = {name: list(entry) for name, entry in tracer.rec.totals.items()}
    digest = verify(workload, deployment, schedule, ledger, "traced round")
    check_digest(digest, reference_digest, ledger, len(schedule),
                 "traced round")
    factor = calibrator.factor()
    table = tracer.metrics(deployment, totals, tasks, factor * 1e6)
    closure = sum(entry[2] for entry in totals.values()) / wall
    if tracer.rec.open_spans or abs(closure - 1.0) > CLOSURE_TOLERANCE:
        ledger.fail(len(schedule),
                    f"traced round: layer self times cover {closure:.3f} of"
                    f" the loop, {tracer.rec.open_spans} spans left open")
    table["trace.selftime_closure"] = closure
    table["trace.overhead_share"] = (
        cpu / tasks * factor * 1e6 / reference_cost - 1.0
    )
    deployment.close()
    tracer.rec.write_jsonl(spans_path)
    return table


def trace_phase(workload, templates, seconds, ledger, reference,
                spans_path):
    """The traced pass: untraced reference rounds unless ``reference``
    (digest, calibrated cost) is given, then traced rounds until
    ``seconds`` are spent (one when ``seconds`` is ``None``). Per-layer
    values are medians over the traced rounds."""
    started = time.perf_counter()
    if reference is None:
        rounds = measure_phase(workload, templates, None, REFERENCE_ROUNDS,
                               ledger, None)
        if len(rounds) < REFERENCE_ROUNDS:
            return None
        reference = (
            rounds[0]["digest"],
            statistics.median(r["cal_us_per_task"] for r in rounds),
        )
    tables = []
    while True:
        round_started = time.perf_counter()
        table = traced_round(workload, templates, ledger, *reference,
                             spans_path)
        if table is None:
            return None
        tables.append(table)
        now = time.perf_counter()
        if seconds is None or \
                now - started + 0.5 * (now - round_started) > seconds:
            break
    return {
        name: statistics.median(table[name] for table in tables)
        for name in LAYER_METRICS
    }, len(tables)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize(values):
    """Median and quartiles of one metric's per-round values."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def pooled_p999(rounds):
    """p99.9 of the per-operation latencies of all rounds together, and
    how many samples lie beyond it."""
    ops = sum(r["ops"] for r in rounds)
    beyond = max(1, ops // 1000)
    tail = sorted(v for r in rounds for v in r["tail_cal_us"])
    return tail[-beyond], beyond


def end_to_end(quality, rounds, setup_samples):
    out = {
        "submit_cal_us_per_task":
            summarize(r["cal_us_per_task"] for r in rounds),
        "submit_p50_cal_us": summarize(r["p50_cal_us"] for r in rounds),
        "setup_s": summarize(setup_samples),
    }
    # The value pools all rounds (a round alone has 60 samples beyond
    # its p99.9); the quartiles are those of the rounds' own p99.9.
    p999, beyond = pooled_p999(rounds)
    out["submit_p999_cal_us"] = {
        **summarize(r["p999_cal_us"] for r in rounds),
        "value": p999,
        "samples": sum(r["ops"] for r in rounds),
        "samples_beyond": beyond,
    }
    for name in ("untraced_fraction", "warmup_tasks", "peak_alloc_mb"):
        out[name] = {"value": quality[name], "q1": quality[name],
                     "q3": quality[name], "samples": 1}
    for name, unit in E2E_METRICS.items():
        out[name]["unit"] = unit
    return out


def diagnostics(rounds):
    """Numbers that do not repeat within a tenth here; for reading, not
    for comparing."""
    kernel = [s for r in rounds for s in r["kernel_s"]]
    return {
        "rounds": len(rounds),
        "tasks_per_round": rounds[0]["tasks"],
        "ops_per_round": rounds[0]["ops"],
        "submit_us_per_task":
            statistics.median(r["raw_us_per_task"] for r in rounds),
        "kernel_ms_min": min(kernel) * 1e3,
        "kernel_ms_median": statistics.median(kernel) * 1e3,
        "kernel_ms_max": max(kernel) * 1e3,
        "calibration_drift": max(kernel) / min(kernel),
        "calibration_ref_ms": CAL_REF_S * 1e3,
    }


# ----------------------------------------------------------------------
# One workload, both passes
# ----------------------------------------------------------------------
def run_workload(workload, seed, seconds, quick, trace, spans_dir):
    """Run one workload; ``trace`` is ``0`` (end-to-end only), ``1``
    (traced pass only) or ``None`` (both)."""
    ledger = Ledger()
    quality = quality_pass(workload, seed, ledger) if trace != 1 else None
    # Only the end-to-end pass reports setup_s, so only it repeats.
    templates, setup_samples = setup_phase(
        workload, seed, 1 if quick or trace == 1 else SETUP_REPEATS
    )
    result = {
        "why": workload.why,
        "config": dataclasses.asdict(workload.config()),
        "stream_digest": stream_digest(templates),
    }
    reference = None
    if quality is not None:
        rounds = measure_phase(
            workload, templates, None if quick else seconds,
            2 if quick else MIN_ROUNDS, ledger, quality["digest"],
        )
        if rounds:
            result["decision_digest"] = quality["digest"]
            result["end_to_end"] = end_to_end(quality, rounds, setup_samples)
            result["diagnostics"] = diagnostics(rounds)
            reference = (
                quality["digest"],
                result["end_to_end"]["submit_cal_us_per_task"]["value"],
            )
    if trace != 0 and not ledger.errors:
        spans_path = spans_dir / f"spans_{workload.name}.jsonl"
        traced = trace_phase(
            workload, templates,
            seconds if trace == 1 and not quick else None, ledger,
            reference, spans_path,
        )
        if traced is not None:
            table, count = traced
            result["per_layer"] = {
                name: {"value": table[name], "unit": unit}
                for name, unit in LAYER_METRICS.items()
            }
            result["traced_rounds"] = count
    result.update(
        correct=not ledger.errors,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failed_ops_share=ledger.failed / max(1, ledger.attempted),
        errors=ledger.errors,
    )
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def format_value(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_table(title, rows):
    """Aligned text table of ``(metric, unit, {workload: value})``."""
    names = sorted({w for _, _, values in rows for w in values},
                   key=list(WORKLOADS).index)
    header = [title, "unit"] + names
    body = [
        [metric, unit] + [
            format_value(values[w]) if w in values else "-" for w in names
        ]
        for metric, unit, values in rows
    ]
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    for row in [header] + body:
        print("  ".join(
            cell.ljust(width) if i < 2 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        ))
    print()


def print_report(report):
    workloads = report["workloads"]
    for section, units, title in (
        ("end_to_end", E2E_METRICS, "end-to-end"),
        ("per_layer", LAYER_METRICS, "per-layer (traced)"),
    ):
        rows = [
            (metric, unit, {
                name: w[section][metric]["value"]
                for name, w in workloads.items() if section in w
            })
            for metric, unit in units.items()
        ]
        if any(values for _, _, values in rows):
            print_table(title, rows)
    rows = [
        (key, "", {name: w["diagnostics"][key]
                   for name, w in workloads.items() if "diagnostics" in w})
        for key in ("rounds", "tasks_per_round", "submit_us_per_task",
                    "kernel_ms_min", "kernel_ms_median", "kernel_ms_max",
                    "calibration_drift")
    ]
    if any(values for _, _, values in rows):
        print_table("diagnostics", rows)
    print_table("correctness", [
        (key, "", {name: w[key] for name, w in workloads.items()})
        for key in ("attempted", "failed", "failed_ops_share")
    ])
    for name, w in workloads.items():
        for error in w["errors"]:
            print(f"FAILED {name}: {error}")


def driver_line(result, trace):
    """The one-line result the benchmark driver reads."""
    section = result.get("per_layer" if trace else "end_to_end", {})
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in section.items()
        },
    })


def run_isolated(name, args, spans_dir):
    """Run one workload in a process of its own and return its result.

    ``peak_alloc_mb`` is the growth of the resident set, which only means
    something in a process that has not yet allocated and freed another
    workload's heap; and no workload's timing should depend on the
    collector state the one before it left behind.
    """
    part = spans_dir / f".{name}.part.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out", str(part),
    ]
    if args.quick:
        command.append("--quick")
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    stderr = ""
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        stderr = done.stderr
        return json.loads(part.read_text())["workloads"][name]
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        return {
            "correct": False, "attempted": 1, "failed": 1,
            "failed_ops_share": 1.0,
            "errors": [f"no result ({type(exc).__name__}: {exc})"
                       f" {stderr[-500:]}"],
        }
    finally:
        part.unlink(missing_ok=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time each workload's measurement may take")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: traced pass only")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size: 2k tasks, 2 rounds")
    parser.add_argument("--out", type=Path,
                        help="write the results as JSON here (span files"
                             " go beside it)")
    args = parser.parse_args(argv)

    spans_dir = args.out.parent if args.out else BENCH_DIR / "results"
    spans_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema": SCHEMA_VERSION,
        "git_sha": git_sha() if args.out else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    if args.workload:
        workload = WORKLOADS[args.workload]
        report["workloads"][args.workload] = run_workload(
            workload.quick() if args.quick else workload, args.seed,
            args.seconds, args.quick, args.trace, spans_dir,
        )
    else:
        for name in WORKLOADS:
            report["workloads"][name] = run_isolated(name, args, spans_dir)
    print_report(report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True))
    if args.workload and args.trace is not None:
        print(driver_line(report["workloads"][args.workload], args.trace))
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
