"""What the traced benchmark run needs from the package, checked without
running it: ``benchmarks/tracing.py`` is read, never edited, and a hook
whose target is gone would silently drop its metrics from the traced run."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import brokergame as bg
from brokergame.odes import DeterministicTable

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"
# per-path metrics that benchmarks/workloads.py, tracing.py and the
# experiment report read from each arm
ARM_KEYS = ("blown", "max_inventory_gap", "max_cash_gap", "wealth_broker", "notional")


def _tracing():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_target_exists():
    for modname, attr, _, _ in _tracing().HOOKS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"


def test_table_call_is_counted_on_the_class():
    assert "__call__" in vars(DeterministicTable)


def test_arm_metrics_keep_the_keys_the_benchmark_reads():
    sources = (BENCHMARKS / "workloads.py").read_text() + TRACING.read_text()
    assert all(f'"{key}"' in sources for key in ARM_KEYS)
    params, grid = bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, 50)
    bundle = bg.build_coefficients(params, grid)
    config = bg.StrategyConfig(signal_source="flow")
    _, per_arm = bg.run_experiment(params, grid, config, 6, base_seed=3, bundle=bundle)
    recorded, _ = bg.simulate_recorded(params, bundle, config, 4, 3)
    assert sorted(per_arm) == ["benchmark1", "benchmark2", "benchmark3", "optimal"]
    for metrics, paths in [(m, 6) for m in per_arm.values()] + [(recorded, 4)]:
        for key in ARM_KEYS:
            assert metrics[key].shape == (paths,), key


def test_block_dev_is_a_finite_float():
    block_dev = bg.build_coefficients(bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, 50)).broker.block_dev
    assert isinstance(block_dev, float) and math.isfinite(block_dev)


def test_traced_runs_count_every_path_step():
    # the traced run binds the step loop's config, eps and record to name its
    # spans and count its path steps; a step loop it cannot bind would leave
    # the traced stress sweep's conservation-gap gate empty
    tracing = _tracing()
    params, grid = bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, 50)
    bundle = bg.build_coefficients(params, grid)
    runs = (
        (4 * 6, lambda: bg.sim.run_experiment(params, grid, bg.StrategyConfig(signal_source="flow"),
                                              6, base_seed=3, bundle=bundle, chunk_size=4)),
        ((4 + 2) * 5, lambda: bg.analytics.stress_runner(params, {"kappa_signal": [0.5, 1.5]},
                                                         grid, bg.StrategyConfig(), 5,
                                                         base_seed=3)),
    )
    for path_arms, run in runs:
        tracer = tracing.Tracer()
        with tracer.hooks():
            run()
        assert not tracer.broken
        assert tracer.counts["sim.path_steps"] == path_arms * grid.steps
        metrics = tracer.metrics()
        assert all(metrics[f"sim.step_loop_s.{arm}"] > 0.0 for arm in tracing.ARMS)
        assert tracer.health["max_inventory_gap"] < 1e-8
