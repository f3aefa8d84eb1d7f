"""The benchmark's workloads: what one repetition runs and how its output is checked.

Every workload goes through the package's public API, the way the CLI
command it mirrors does, and writes the same files that command writes.
A repetition returns its outputs; checking happens after the timed region.

Output gates:

* on every seed: zero blown path-arms, no excluded paths, conservation gaps
  below ``GAP_LIMIT``, report text (path-bands: CSV bytes) identical across
  the repetitions of one run, finite CSVs of the right shape, and on
  ``experiment-flow`` at full size benchmarks 2 and 3 significantly positive
  (mean > 0, p < 0.01);
* at ``DEFAULT_SEED`` and full size, on the first repetition (the others
  are identical to it): every value in ``reference.json``
  (report means, stds and p-values, band and path summaries), recorded from
  the seed code, agrees to ``RTOL`` relative (plus ``ATOL`` absolute for values
  near zero).  Reassociating a sum moves these values near 1e-12 relative;
  a wrong term in the step loop or a solver moves them by far more than 1e-6.
  p-values get no absolute slack, so tiny ones are still compared.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

DEFAULT_SEED = 1729      # the CLI default seed; reference values are recorded here
HOLDOUT_SEED = 4242      # never used while tuning; later claims must also hold here
CLI_CHUNK = 2500         # the CLI's default chunk size
GAP_LIMIT = 1e-8
RTOL = 1e-6
ATOL = 1e-9

# steps of the time grid and paths per repetition
SIZES = {
    "full": {
        "experiment-flow": {"steps": 1000, "paths": 5000},
        "stress-sweep": {"steps": 50, "paths": 200},
        "path-bands": {"steps": 1000, "paths": 1000},
    },
    "toy": {
        "experiment-flow": {"steps": 50, "paths": 60, "chunk": 30},
        "stress-sweep": {"steps": 50, "paths": 20},
        "path-bands": {"steps": 50, "paths": 20},
    },
}


@dataclass
class Context:
    bg: object               # the brokergame package
    name: str
    size: str
    seed: int
    grid: object
    paths: int
    chunk: int
    threads: int
    bundle: object           # coefficient bundle from set-up
    out_dir: str
    tracer: object = None    # set on traced repetitions
    first_text: str | None = None

    @property
    def path_arms(self) -> int:
        """Path-arm pairs one repetition simulates."""
        if self.name == "experiment-flow":
            return 4 * self.paths
        if self.name == "stress-sweep":
            return 4 * self.paths * (1 + 2 * len(self.bg.LEARNING_PARAMS))
        return 1 + self.paths

    @property
    def mc_path_arms(self) -> int:
        """Path-arm pairs of the timed Monte Carlo call (``mc_s``) of one repetition:
        on path-bands the band paths of ``simulate_recorded`` only."""
        return self.paths if self.name == "path-bands" else self.path_arms


# -- repetitions --------------------------------------------------------------

def _experiment_flow(ctx: Context) -> dict:
    bg = ctx.bg
    cfg = bg.StrategyConfig(signal_source="flow", seed=ctx.seed)
    t0 = time.perf_counter()
    report, per_arm = bg.sim.run_experiment(
        bg.DEFAULT_PARAMS, ctx.grid, cfg, ctx.paths, base_seed=ctx.seed,
        bundle=ctx.bundle, chunk_size=ctx.chunk, threads=ctx.threads)
    mc_s = time.perf_counter() - t0
    text = bg.analytics.report_to_json(report)
    with open(os.path.join(ctx.out_dir, "report.json"), "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    bg.analytics.report_to_csv(report, os.path.join(ctx.out_dir, "report.csv"))
    return {"report": report, "per_arm": per_arm, "text": text, "mc_s": mc_s}


def _stress_sweep(ctx: Context) -> dict:
    bg = ctx.bg
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    cfg = bg.StrategyConfig(signal_source="price", seed=ctx.seed)
    t0 = time.perf_counter()
    sr = bg.analytics.stress_runner(bg.DEFAULT_PARAMS, sweep, ctx.grid, cfg, ctx.paths,
                                    base_seed=ctx.seed, chunk_size=ctx.chunk,
                                    threads=ctx.threads)
    mc_s = time.perf_counter() - t0
    text = bg.analytics.stress_to_json(sr)
    with open(os.path.join(ctx.out_dir, "stress.json"), "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    bg.analytics.stress_to_csv(sr, os.path.join(ctx.out_dir, "stress.csv"))
    return {"stress": sr, "text": text, "mc_s": mc_s}


def _path_bands(ctx: Context) -> dict:
    """The CLI ``path`` command with band paths, reusing the set-up bundle."""
    import numpy as np

    bg, b = ctx.bg, ctx.bundle
    cfg = bg.StrategyConfig(seed=ctx.seed)
    result = bg.sim.simulate_path(bg.DEFAULT_PARAMS, b.trader, b.broker, b.flow, cfg,
                                  seed=ctx.seed)
    t0 = time.perf_counter()
    metrics, rec = bg.sim.simulate_recorded(bg.DEFAULT_PARAMS, b, cfg, ctx.paths, ctx.seed)
    mc_s = time.perf_counter() - t0
    with ctx.tracer.span("bench.bands") if ctx.tracer else contextlib.nullcontext():
        bands = {}
        for name in bg.sim.RECORD_SERIES:
            bands[f"p05_{name}"] = np.percentile(rec[name], 5.0, axis=1)
            bands[f"p95_{name}"] = np.percentile(rec[name], 95.0, axis=1)
    del rec
    bg.sim.export_path_csv(result, os.path.join(ctx.out_dir, "path.csv"), bands=bands)
    bg.sim.export_filter_csv(result, b.trader, b.broker, b.flow,
                             os.path.join(ctx.out_dir, "filters.csv"))
    return {"result": result, "metrics": metrics, "mc_s": mc_s}


# one repetition of each workload: Context -> outputs (with "mc_s", the
# seconds spent in the public Monte Carlo call)
RUN = {"experiment-flow": _experiment_flow, "stress-sweep": _stress_sweep,
       "path-bands": _path_bands}


# -- checks -------------------------------------------------------------------

def _report_values(prefix: str, report) -> dict:
    out = {}
    for i, b in sorted(report.benchmarks.items()):
        out[f"{prefix}b{i}.mean"] = b.mean
        out[f"{prefix}b{i}.std"] = b.std
        out[f"{prefix}b{i}.p_value"] = b.p_value
    return out


def _report_failures(label: str, report, paths: int) -> list:
    bad = []
    for arm, n in sorted(report.blown_paths.items()):
        if n:
            bad.append(f"{label}: {n} blown paths on {arm}")
    for i, b in sorted(report.benchmarks.items()):
        if b.n_excluded or b.n_effective != paths:
            bad.append(f"{label}: benchmark {i} excluded {b.n_excluded} paths")
        if not (math.isfinite(b.mean) and math.isfinite(b.std) and 0.0 <= b.p_value <= 1.0):
            bad.append(f"{label}: benchmark {i} statistics not finite")
    return bad


def _gap_failures(label: str, inv_gap: float, cash_gap: float) -> list:
    bad = []
    if not inv_gap < GAP_LIMIT:
        bad.append(f"{label}: inventory conservation gap {inv_gap:.3e} >= {GAP_LIMIT:g}")
    if not cash_gap < GAP_LIMIT:
        bad.append(f"{label}: cash conservation gap {cash_gap:.3e} >= {GAP_LIMIT:g}")
    return bad


def _read_csv(path: str, columns: int, rows: int):
    """Parse a CSV written by the package; returns (header, float columns)."""
    with open(path, newline="", encoding="ascii") as fh:
        table = list(csv.reader(fh))
    header, body = table[0], table[1:]
    if len(header) != columns or len(body) != rows or any(len(r) != columns for r in body):
        raise ValueError(f"{os.path.basename(path)}: expected {rows} rows of {columns} columns")
    cols = [[float(r[j]) for r in body] for j in range(columns)]
    if not all(math.isfinite(v) for col in cols for v in col):
        raise ValueError(f"{os.path.basename(path)}: non-finite value")
    return header, cols


def check_rep(ctx: Context, out: dict) -> tuple[dict, list, dict]:
    """(values compared with the reference, failures, health numbers)."""
    bg = ctx.bg
    values, bad, health = {}, [], {}
    if "text" in out:
        if ctx.first_text is None:
            ctx.first_text = out["text"]
        elif out["text"] != ctx.first_text:
            bad.append("report text differs from the first repetition of this run")

    if ctx.name == "experiment-flow":
        report, per_arm = out["report"], out["per_arm"]
        bad += _report_failures("report", report, ctx.paths)
        health["max_inventory_gap"] = max(float(m["max_inventory_gap"].max())
                                          for m in per_arm.values())
        health["max_cash_gap"] = max(float(m["max_cash_gap"].max()) for m in per_arm.values())
        bad += _gap_failures("experiment", health["max_inventory_gap"], health["max_cash_gap"])
        health["blown_path_arms"] = sum(int(m["blown"].sum()) for m in per_arm.values())
        if ctx.size == "full":
            for i in (2, 3):
                b = report.benchmarks[i]
                if not (b.mean > 0.0 and b.p_value < 0.01):
                    bad.append(f"benchmark {i}: mean {b.mean:.3g}, p {b.p_value:.3g} "
                               "(expected mean > 0, p < 0.01)")
        values = _report_values("", report)

    elif ctx.name == "stress-sweep":
        sr = out["stress"]
        n_cells = 2 * len(bg.LEARNING_PARAMS)
        if len(sr.cells) != n_cells:
            bad.append(f"stress sweep has {len(sr.cells)} cells, expected {n_cells}")
        reports = [("base", sr.base)] + [(f"{c.param}x{c.multiplier:g}", c.report)
                                         for c in sr.cells]
        for label, rep in reports:
            bad += _report_failures(label, rep, ctx.paths)
            values.update(_report_values(f"{label}.", rep))
        health["blown_path_arms"] = sum(sum(r.blown_paths.values()) for _, r in reports)
        if ctx.tracer is not None:
            health.update(ctx.tracer.health)
            bad += _gap_failures("stress", health["max_inventory_gap"], health["max_cash_gap"])

    else:
        result, metrics = out["result"], out["metrics"]
        health["max_inventory_gap"] = max(result.max_inventory_gap,
                                          float(metrics["max_inventory_gap"].max()))
        health["max_cash_gap"] = max(result.max_cash_gap, float(metrics["max_cash_gap"].max()))
        health["blown_path_arms"] = int(result.blown) + int(metrics["blown"].sum())
        if health["blown_path_arms"]:
            bad.append(f"{health['blown_path_arms']} blown path-arms")
        bad += _gap_failures("paths", health["max_inventory_gap"], health["max_cash_gap"])
        rows = ctx.grid.steps + 1
        n_series = len(bg.sim.RECORD_SERIES)
        files = (("path.csv", 1 + 3 * n_series + 4), ("filters.csv", 10))
        digest = hashlib.sha256()
        try:
            for fname, _ in files:
                with open(os.path.join(ctx.out_dir, fname), "rb") as fh:
                    digest.update(fh.read())
            if ctx.first_text is None:      # parse once; later files must be identical
                ctx.first_text = digest.hexdigest()
                for fname, ncols in files:
                    header, cols = _read_csv(os.path.join(ctx.out_dir, fname), ncols, rows)
                    for h, col in zip(header, cols):
                        values[f"{fname}.{h}.mean"] = sum(col) / rows
            elif digest.hexdigest() != ctx.first_text:
                bad.append("csv output differs from the first repetition of this run")
        except (OSError, ValueError, IndexError) as exc:
            bad.append(f"csv: {exc}")
        values["path.wealth_broker"] = result.wealth_broker
        values["path.wealth_trader"] = result.wealth_trader
        values["path.notional"] = result.notional
        values["bands.wealth_broker.mean"] = float(metrics["wealth_broker"].mean())
        values["bands.notional.mean"] = float(metrics["notional"].mean())
    return values, bad, health


def reference_failures(values: dict, reference: dict) -> list:
    bad = []
    for key, ref in sorted(reference.items()):
        got = values.get(key)
        if got is None:
            bad.append(f"reference value {key} missing from the output")
        elif not abs(got - ref) <= (RTOL * max(abs(got), abs(ref))
                                    + (0.0 if key.endswith("p_value") else ATOL)):
            bad.append(f"{key} = {got!r}, reference {ref!r} (rtol {RTOL:g})")
    return bad


def load_reference(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)
