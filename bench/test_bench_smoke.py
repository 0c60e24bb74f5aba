"""Smoke test of the benchmark itself (collected by the tier-1 run).

Runs ``run.py --quick`` (2k tasks per workload, 2 rounds) as a user
would and checks what does not depend on the machine's speed: the
schema, the exact metric and workload names ``BENCHMARK.json`` promises,
every correctness check, span closure, and that seeds and hash seeds do
what the README says. Nothing here depends on how fast the machine is:
the calibration is checked against a simulated clock.
"""

import json
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
E2E = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


def bench(script, *args, hashseed=None):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """``(report, out_path)`` of one full ``--quick`` run."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = bench("run.py", "--quick", "--out", out, hashseed=0)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), out


def test_report_has_the_contracts_names_and_units(quick):
    report, _ = quick
    assert report["schema"] == 1
    for key in ("python", "nproc", "seed", "seconds", "quick"):
        assert key in report
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for result in report["workloads"].values():
        assert {n: e["unit"] for n, e in result["end_to_end"].items()} == E2E
        assert {n: e["unit"] for n, e in result["per_layer"].items()} \
            == PER_LAYER
        for entry in result["end_to_end"].values():
            assert entry["value"] > 0  # the contract: never 0
            assert entry["q1"] <= entry["q3"] and entry["samples"] >= 1
        assert result["config"]["batchsize"] > 0
        assert result["diagnostics"]["rounds"] == 2


def test_every_correctness_check_passes(quick):
    report, _ = quick
    for name, result in report["workloads"].items():
        assert result["correct"] and not result["errors"], (name, result)
        assert result["failed"] == 0 and result["failed_ops_share"] == 0
        assert result["attempted"] >= 4 * 2000  # quality, 2 rounds, traced


def test_spans_close_and_are_written_out(quick):
    report, out = quick
    for name, result in report["workloads"].items():
        closure = result["per_layer"]["trace.selftime_closure"]["value"]
        assert abs(closure - 1.0) <= 0.05, (name, closure)
        lines = (out.parent / f"spans_{name}.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        assert spans and all(s["end"] >= s["start"] for s in spans)
        ids = {s["id"] for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert roots and all(
            s["name"].startswith(("api:", "gc:")) for s in roots
        )
        assert all(s["parent"] in ids for s in spans
                   if s["parent"] is not None)


def test_layers_show_up_only_where_they_run(quick):
    layers = {
        name: {k: v["value"] for k, v in result["per_layer"].items()}
        for name, result in quick[0]["workloads"].items()
    }
    for name, table in layers.items():
        assert (table["persist.calls"] > 0) == (name == "tenant_churn")
        assert (table["core.coordination.agreement_table_peak"] > 0) \
            == (name == "replicated_2n")
        assert (table["service.self_us_per_task"] > 0) \
            == (name in ("service_8x", "tenant_churn"))
    assert layers["irregular_novel"]["core.hashing.cache_hit_rate"] == 0
    assert layers["irregular_novel"]["core.candidates.live"] == 0
    assert layers["tenant_churn"]["service.warm_starts"] >= 1


def test_seed_changes_streams_and_hash_seed_changes_nothing(quick):
    report, _ = quick
    other = bench("run.py", "--quick", "--trace", 0, "--seed", 2,
                  "--out", quick[1].parent / "seed2.json")
    assert other.returncode == 0, other.stdout + other.stderr
    seed2 = json.loads((quick[1].parent / "seed2.json").read_text())
    for name, result in report["workloads"].items():
        assert result["stream_digest"] != \
            seed2["workloads"][name]["stream_digest"], name
    # The same seed under another PYTHONHASHSEED: same streams, same
    # decisions. (This is also the driver's --trace 0 invocation.)
    again = bench("run.py", "--quick", "--workload", "steady_s3d",
                  "--trace", 0, "--out", quick[1].parent / "again.json",
                  hashseed=12345)
    assert again.returncode == 0, again.stdout + again.stderr
    line = json.loads(again.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == E2E
    first = report["workloads"]["steady_s3d"]
    second = json.loads((quick[1].parent / "again.json").read_text())
    second = second["workloads"]["steady_s3d"]
    for key in ("stream_digest", "decision_digest"):
        assert first[key] == second[key], key


def test_driver_line_of_the_traced_pass():
    done = bench("run.py", "--quick", "--workload", "tenant_churn",
                 "--trace", 1)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is True and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == PER_LAYER


def test_compare_accepts_a_file_against_itself_and_flags_a_loss(quick):
    report, out = quick
    same = bench("compare.py", out, out)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.count("\n") == len(WORKLOADS) + 1
    entry = report["workloads"]["service_8x"]["end_to_end"]["peak_alloc_mb"]
    entry["value"] = entry["q1"] = entry["q3"] = entry["value"] * 2
    worse = out.parent / "worse.json"
    worse.write_text(json.dumps(report))
    lost = bench("compare.py", out, worse)
    assert lost.returncode == 1 and "peak_alloc_mb: worse" in lost.stdout


def test_calibrated_cost_of_a_fixed_loop_is_stable(monkeypatch):
    """Five repeats of a fixed loop on a machine whose speed drifts 3x
    agree within 5% once rescaled by the interleaved kernel.

    The machine is simulated (a virtual CPU clock that the kernel and the
    loop advance at the current speed), so the test checks the rescaling
    and cannot flake. On the real sandbox the same claim holds for ten
    seconds of measurement (see README) but not for a test-sized loop:
    with the real clock this test failed one trial in three.
    """
    sys.path.insert(0, str(BENCH_DIR))
    import calibrate

    machine = {"now": 0.0, "speed": 1.0}

    def work(seconds_at_full_speed):
        machine["now"] += seconds_at_full_speed / machine["speed"]

    monkeypatch.setattr(calibrate, "time", types.SimpleNamespace(
        process_time=lambda: machine["now"]))
    monkeypatch.setattr(calibrate, "kernel", lambda: work(3.1e-3))

    raw, calibrated = [], []
    for speeds in ((1.0, 1.0), (0.5, 0.52), (0.8, 0.75), (1.5, 1.45),
                   (0.6, 0.7)):
        calibrator = calibrate.Calibrator()
        for slice_index in range(8):
            machine["speed"] = speeds[slice_index % 2]
            calibrator.run(work, 50e-3)
        calibrator.sample()
        raw.append(calibrator.cpu)
        calibrated.append(calibrator.cpu * calibrator.factor())
    assert max(raw) / min(raw) > 2.5
    assert max(calibrated) / min(calibrated) < 1.05
    expected = 8 * 50e-3 * calibrate.CAL_REF_S / 3.1e-3
    assert statistics.median(calibrated) == pytest.approx(expected, rel=0.05)
