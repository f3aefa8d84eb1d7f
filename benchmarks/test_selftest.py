"""Self-test of the benchmark at toy size (50-step grid, a few dozen paths).

Run from the repository root with ``python3 -m pytest -q benchmarks``.  Every
workload runs twice untraced and twice traced; each run must pass its output
checks and emit exactly the metrics ``BENCHMARK.json`` declares, with their
units, and every count must repeat exactly between the two runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bytes", "abs")


def _run(workload, trace, cwd=ROOT, extra=("--size", "toy")):
    args = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), *extra]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_emitted_and_counts_repeat(workload, trace):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    results = []
    for _ in range(2):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
            proc.stdout
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        results.append(result["metrics"])
    for name, unit in declared.items():
        if unit in EXACT_UNITS:
            assert results[0][name]["value"] == results[1][name]["value"], name


def test_missing_hook_target_is_absent(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import brokergame as bg
    import tracing

    monkeypatch.delattr(bg.analytics, "stress_to_json")
    grid = bg.TimeGrid(1.0, 50)
    tracer = tracing.Tracer()
    with tracer.hooks():
        bg.sim.run_experiment(bg.DEFAULT_PARAMS, grid, bg.StrategyConfig(), 8, base_seed=3)
    metrics = tracer.metrics()
    assert "brokergame.analytics.stress_to_json" in tracer.absent
    assert "analytics.stress_to_json_s" not in metrics
    assert metrics["sim.path_steps"] == 4 * 8 * 50
    assert metrics["odes.table_calls"] > 0


def test_fails_without_package_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare, extra=())
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    shutil.rmtree(bare)
