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

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


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


def test_block_dev_is_a_finite_float():
    block_dev = bg.build_coefficients(bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, 50)).broker.block_dev
    assert isinstance(block_dev, float) and math.isfinite(block_dev)
