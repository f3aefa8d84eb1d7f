"""What the traced benchmark run needs from the package, checked without
running it: ``benchmarks/tracing.py`` is read, never edited, and a hook
whose target is gone would silently drop its metrics from the traced run."""

import importlib
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import brokergame as bg
from brokergame.odes import DeterministicTable
from brokergame.sim import _draw_noise, _simulate_core, _Tables

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
    # the traced stress sweep's conservation-gap gate empty and path-bands
    # without its step-loop metrics.  On a grid longer than a slab each arm
    # of an experiment runs over several calls, whose eps add up to it; a
    # recorded batch runs in one
    tracing = _tracing()
    params = bg.DEFAULT_PARAMS
    arm_spans = [f"sim.step_loop_s.{arm}" for arm in tracing.ARMS]
    for steps in (50, 2 * bg.sim.NOISE_SLAB + 3):
        grid = bg.TimeGrid(1.0, steps)
        bundle = bg.build_coefficients(params, grid)
        runs = (
            (4 * 6, arm_spans, lambda: bg.sim.run_experiment(
                params, grid, bg.StrategyConfig(signal_source="flow"), 6, base_seed=3,
                bundle=bundle, chunk_size=4)),
            ((4 + 2) * 5, arm_spans, lambda: bg.analytics.stress_runner(
                params, {"kappa_signal": [0.5, 1.5]}, grid, bg.StrategyConfig(), 5,
                base_seed=3)),
            (7, ["sim.step_loop_record_s"], lambda: bg.sim.simulate_recorded(
                params, bundle, bg.StrategyConfig(), 7, 3)),
        )
        for path_arms, spans, run in runs:
            tracer = tracing.Tracer()
            with tracer.hooks():
                run()
            assert not tracer.broken
            assert tracer.counts["sim.path_steps"] == path_arms * steps
            assert tracer.counts["sim.blown_path_arms"] == 0
            metrics = tracer.metrics()
            assert all(metrics[span] > 0.0 for span in spans)
            assert tracer.health["max_inventory_gap"] < 1e-8


def test_traced_run_counts_a_path_blown_in_an_early_slab_once():
    # an absurd signal noise blows every path of the optimal arm (which runs
    # the flow filter) at step 2, in the first of three slabs: each of its
    # path-arms is counted once, and its flags and blow steps are those of
    # one whole-horizon step loop
    tracing = _tracing()
    grid = bg.TimeGrid(1.0, 2 * bg.sim.NOISE_SLAB + 3)
    bundle = bg.build_coefficients(bg.DEFAULT_PARAMS, grid)
    params = bg.DEFAULT_PARAMS.replace(sigma_signal=1e140)
    config = bg.StrategyConfig(signal_source="flow", seed=3)
    tracer = tracing.Tracer()
    with tracer.hooks(), np.errstate(over="ignore", invalid="ignore"):
        _, per_arm = bg.sim.run_experiment(params, grid, config, 6, bundle=bundle,
                                           chunk_size=4)
    q0, eps = _draw_noise(3, range(6), grid.steps)
    tables = _Tables(params, params, bundle)
    blown = 0
    for arm, got in per_arm.items():
        expect, _ = _simulate_core(tables, replace(config, broker_mode=arm), eps, q0,
                                   record=False)
        assert np.array_equal(got["blown"], expect["blown"]), arm
        assert np.array_equal(got["blow_step"], expect["blow_step"]), arm
        blown += int(got["blown"].sum())
    assert per_arm["optimal"]["blown"].all()
    assert (per_arm["optimal"]["blow_step"] < bg.sim.NOISE_SLAB).all()
    assert tracer.counts["sim.blown_path_arms"] == blown
