"""Command-line front end.

Subcommands::

    coeffs      solve and export every deterministic coefficient table
    diag        existence diagnostic (eigenvalues + scaled determinant)
    path        simulate one path (optionally with percentile bands)
    experiment  Monte Carlo outperformance run against all benchmarks
    stress      +/-50% sweep of the agents' learning parameters

Configuration is an INI file whose defaults reproduce the baseline
experiment; any unknown section or key is rejected, and every value and
flag is checked before a command runs.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from . import analytics
from .broker import export_broker_csv
from .errors import BrokerGameError, SimulationBlowupError, ValidationError
from .odes import TimeGrid, write_columns_csv
from .params import ModelParams
from .sim import (RECORD_SERIES, StrategyConfig, build_coefficients, export_filter_csv,
                  export_path_csv, run_experiment, simulate_path, simulate_recorded)
from .trader import export_trader_csv


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on", "normal"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


# section -> key -> (the part of RunConfig it sets, caster)
_KEYS = {
    "grid": {"horizon": ("grid", float), "steps": ("grid", int)},
    "model": {f.name: ("params", float) for f in dataclasses.fields(ModelParams)},
    "strategy": {"signal_source": ("strategy", str), "mispecify_qi": ("strategy", _parse_bool),
                 "unwind_tail": ("strategy", int)},
    "experiment": {"paths": ("run", int), "seed": ("strategy", int), "chunk": ("run", int)},
    "output": {"out_dir": ("run", str)},
}
# flag -> the (section, key) it overrides
_FLAGS = {"seed": ("experiment", "seed"), "paths": ("experiment", "paths"),
          "mode": ("strategy", "signal_source"), "mispecify_qi": ("strategy", "mispecify_qi"),
          "c_belief": ("model", "c_belief"), "out_dir": ("output", "out_dir")}


@dataclasses.dataclass
class RunConfig:
    params: ModelParams = ModelParams()
    grid: TimeGrid = TimeGrid()
    strategy: StrategyConfig = StrategyConfig()
    paths: int = 10000
    chunk: int = 2500
    out_dir: str = "."


def _load_config(args) -> RunConfig:
    """Read the INI file named by ``--config`` and the flags over it.

    Unknown sections or keys are errors, and every value, from the file or
    a flag, is checked here, whatever the command.
    """
    parser = configparser.ConfigParser()
    if args.config is not None and not parser.read(args.config):
        raise ValidationError(f"config file not found: {args.config}")
    parts = {"params": {}, "grid": {}, "strategy": {}, "run": {}}
    for section in parser.sections():
        if section not in _KEYS:
            raise ValidationError(f"unknown config section '{section}'")
        for key, raw in parser[section].items():
            if key not in _KEYS[section]:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")
            part, caster = _KEYS[section][key]
            try:
                parts[part][key] = caster(raw)
            except ValueError as exc:
                raise ValidationError(f"field '{section}.{key}': {exc}") from exc
    for flag, (section, key) in _FLAGS.items():
        if getattr(args, flag) is not None:
            parts[_KEYS[section][key][0]][key] = getattr(args, flag)
    return RunConfig(params=ModelParams(**parts["params"]), grid=TimeGrid(**parts["grid"]),
                     strategy=StrategyConfig(**parts["strategy"]), **parts["run"])


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_coeffs(cfg: RunConfig) -> int:
    bundle = build_coefficients(cfg.params, cfg.grid, with_flow=False)
    export_trader_csv(bundle.trader, _outpath(cfg, "trader_coefficients.csv"))
    export_broker_csv(bundle.broker, _outpath(cfg, "broker_coefficients.csv"))
    _write_eigen_csv(bundle.broker, _outpath(cfg, "eigenvalues.csv"))
    print(f"wrote coefficient tables to {cfg.out_dir}")
    return 0


def _write_eigen_csv(broker, path) -> None:
    ev = broker.eigvals.values
    write_columns_csv(path, ["eig1", "eig2", "eig3", "eig4"],
                      [ev[:, j] for j in range(4)])


def cmd_diag(cfg: RunConfig) -> int:
    bundle = build_coefficients(cfg.params, cfg.grid, with_flow=False)
    _write_eigen_csv(bundle.broker, _outpath(cfg, "eigenvalues.csv"))
    ev = bundle.broker.eigvals.values
    det = np.abs(bundle.broker.det_scaled.values).max()
    top3 = ev[:, :3].max()
    lam4 = np.abs(ev[:, 3]).max()
    ok = (top3 < 0.0) and (lam4 <= 1e-8)
    print(f"max leading eigenvalue      : {top3:.6e}")
    print(f"max |fourth eigenvalue|     : {lam4:.6e}")
    print(f"max |row-scaled determinant|: {det:.6e}")
    print(f"reduced-vs-full block gap   : {bundle.broker.block_dev:.6e}")
    print("existence diagnostic:", "clean" if ok else "FLAGGED")
    return 0 if ok else 3


def cmd_path(cfg: RunConfig, n_band: int) -> int:
    if n_band < 1:
        raise ValidationError(f"--paths ({n_band}) must be >= 1")
    bundle = build_coefficients(cfg.params, cfg.grid)
    result = simulate_path(cfg.params, bundle.trader, bundle.broker, bundle.flow,
                           cfg.strategy)
    bands = None
    n_blown = 0
    if n_band > 1:
        metrics, rec = simulate_recorded(cfg.params, bundle, cfg.strategy, n_band,
                                         cfg.strategy.seed)
        n_blown = int(metrics["blown"].sum())
        bands = {}
        for name in RECORD_SERIES:
            bands[f"p05_{name}"] = np.percentile(rec[name], 5.0, axis=1)
            bands[f"p95_{name}"] = np.percentile(rec[name], 95.0, axis=1)
    export_path_csv(result, _outpath(cfg, "path.csv"), bands=bands)
    export_filter_csv(result, bundle.trader, bundle.broker, bundle.flow,
                      _outpath(cfg, "filters.csv"))
    print(f"wrote path.csv and filters.csv to {cfg.out_dir}")
    if bands is not None:
        print(f"blown band paths: {n_blown} of {n_band}")
    # the series and bands are still written (flagged, not dropped)
    if result.blown:
        raise SimulationBlowupError(
            f"path produced a non-finite state at step {result.blow_step}"
        )
    if n_blown:
        raise SimulationBlowupError(
            f"{n_blown} of {n_band} band paths produced a non-finite state"
        )
    return 0


def cmd_experiment(cfg: RunConfig, benchmarks: str) -> int:
    report, _ = run_experiment(cfg.params, cfg.grid, cfg.strategy, cfg.paths,
                               chunk_size=cfg.chunk)
    if benchmarks != "all":
        keep = {int(benchmarks)}
        report = dataclasses.replace(
            report, benchmarks={i: b for i, b in report.benchmarks.items() if i in keep}
        )
    with open(_outpath(cfg, "report.json"), "w", encoding="ascii") as fh:
        fh.write(analytics.report_to_json(report) + "\n")
    analytics.report_to_csv(report, _outpath(cfg, "report.csv"))
    for i, b in sorted(report.benchmarks.items()):
        print(f"benchmark {i}: out = {b.mean:.2f} ({b.std:.0f}), "
              f"p = {b.p_value:.2e}, excluded = {b.n_excluded}")
    return 0


def cmd_stress(cfg: RunConfig) -> int:
    sweep = {name: [0.5, 1.5] for name in analytics.LEARNING_PARAMS}
    sr = analytics.stress_runner(cfg.params, sweep, cfg.grid, cfg.strategy, cfg.paths,
                                 chunk_size=cfg.chunk)
    with open(_outpath(cfg, "stress.json"), "w", encoding="ascii") as fh:
        fh.write(analytics.stress_to_json(sr) + "\n")
    analytics.stress_to_csv(sr, _outpath(cfg, "stress.csv"))
    for cell in sr.cells:
        means = {i: round(b.mean, 1) for i, b in sorted(cell.report.benchmarks.items())}
        print(f"{cell.param} x{cell.multiplier}: {means}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="brokergame",
                                 description="broker / informed-trader game simulator")
    ap.add_argument("--config", help="INI configuration file")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--paths", type=int)
    ap.add_argument("--mode", choices=("price", "flow", "naive"),
                    help="broker's signal source")
    ap.add_argument("--benchmark", choices=("1", "2", "3", "all"), default="all")
    ap.add_argument("--mispecify-qi", dest="mispecify_qi", action="store_true", default=None,
                    help="draw the trader's true initial inventory from N(0,1)")
    ap.add_argument("--c-belief", dest="c_belief", type=float,
                    help="the broker's belief in her own influence (sets [model] c_belief)")
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("command", choices=("coeffs", "diag", "path", "experiment", "stress"))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "coeffs":
            return cmd_coeffs(cfg)
        if args.command == "diag":
            return cmd_diag(cfg)
        if args.command == "path":
            return cmd_path(cfg, n_band=cfg.paths if args.paths is not None else 1)
        if args.command == "experiment":
            return cmd_experiment(cfg, args.benchmark)
        return cmd_stress(cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BrokerGameError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
