"""The benchmark's own tests, on the reduced ``--smoke`` scale.

Run from the repository root::

    python -m pytest benchsuite/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchsuite"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("serve-mix", "graph-eval", "graph-eval-sharded", "log-study")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "benchsuite" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_the_layer_split(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    shard = any(v for k, v in metrics.items() if k.startswith("shard."))
    logcache = any(v for k, v in metrics.items() if k.startswith("logcache."))
    assert shard == (workload == "graph-eval-sharded")
    assert logcache == (workload == "log-study")
    assert metrics["trace.coverage"] > 0
    if workload == "graph-eval":
        assert metrics["resultcache.hit_ratio"] == 0
        assert metrics["engine.evaluate_ms"] > 0 and metrics["sparql.evaluate_ms"] > 0
    if workload == "serve-mix":
        assert 0 < metrics["resultcache.hit_ratio"] < 1
        assert metrics["trees.validate_us"] > 0 and metrics["battery.analyze_us"] > 0


def test_same_seed_gives_same_inputs():
    import datagen

    for stream in (datagen.mix_stream, datagen.graph_stream, datagen.sharded_stream):
        assert stream(5, datagen.SMOKE, 3) == stream(5, datagen.SMOKE, 3)
        assert stream(5, datagen.SMOKE, 3) != stream(6, datagen.SMOKE, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchsuite", tmp_path / "benchsuite", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "graph-eval", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    real = checks.observed_answer

    def corrupted(message, result):
        answer = real(message, result)
        return {**answer, "tampered": True}

    monkeypatch.setattr(checks, "observed_answer", corrupted)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)
    code = run.main(["--workload", "graph-eval", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["metrics"] == {}


def test_reconcile_catches_lost_requests():
    stats = {
        "metrics": {"endpoints": {"rpq": {
            "requests": 5, "ok": 3, "errors": {"bad_request": 1}, "shed": 0, "timeouts": 0,
            "cache_hits": 2, "cache_misses": 3, "coalesced": 0,
        }}},
        "cache": {"hits": 2, "misses": 3},
    }
    problems = checks.reconcile(stats, {"rpq": 5})
    assert any("ok+errors+shed+timeouts" in p for p in problems)
    stats["metrics"]["endpoints"]["rpq"]["ok"] = 4
    assert checks.reconcile(stats, {"rpq": 5}) == []
    assert any("client sent 6" in p for p in checks.reconcile(stats, {"rpq": 6}))


def test_timings_are_scaled_to_the_reference_host_speed():
    ref = hostspeed.REFERENCE_MS
    assert hostspeed.scaled_s(0.9, ref) == 0.9
    assert hostspeed.scaled_s(0.9, ref * 1.5) == pytest.approx(0.9 / 1.5)  # a slow phase shrinks the time
    assert hostspeed.calibration_ms(repeats=1) > 0


def test_environment_flags_host_drift(monkeypatch):
    env = run.environment(ROOT)
    monkeypatch.setattr(hostspeed, "calibration_ms", lambda repeats: env["calibration_ms_start"] * 1.5)
    run.host_end(env)
    assert env["host_drift"] is True and "jiffies_start" not in env
    assert 0.0 <= env["steal_share"] <= 1.0
