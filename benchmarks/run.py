"""Benchmark of the brokergame package: one workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload experiment-flow --seed 1729 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
processes of importing the package plus one coefficient build on the
workload's grid), ``wall_s`` (mean repetition time), ``path_arms_per_s``
(path-arms of the public Monte Carlo call over the seconds spent in it,
summed over repetitions; on stress-sweep that call is ``stress_runner``,
builds included) and ``peak_rss_mb`` (``ru_maxrss`` of this process).
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--trace 1`` reports the per-layer metrics of ``tracing.py`` instead: the
traced set-up build plus the median over traced repetitions, interleaved
with untraced repetitions that give the tracing overhead.

Repetitions run back to back until ``--seconds`` have passed; each is then
checked (``workloads.py``).  The last line of standard output is the result
object; a manifest with the configuration, every sample and the numerical
health of the solve is written beside the workload's output files in
``benchmarks/out/<workload>/``.  The package is imported from ``src/`` of
the checkout this file sits in; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing              # stdlib only, so numpy's import stays inside setup_s
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3        # this process plus two fresh ones
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-repetition ratios: the set-up build adds nothing to them
RATIOS = ("sim.parallel_efficiency", "trace.coverage")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Metric name -> unit as declared in BENCHMARK.json ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def import_package():
    """Import brokergame from this checkout's ``src``; returns (module, seconds)."""
    if not (SRC / "brokergame" / "__init__.py").is_file():
        sys.exit(f"benchmark: package source {SRC / 'brokergame'} not found")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import brokergame
    elapsed = time.perf_counter() - t0
    if Path(brokergame.__file__).resolve().parent != (SRC / "brokergame").resolve():
        sys.exit(f"benchmark: imported brokergame from {brokergame.__file__}, not {SRC}")
    return brokergame, elapsed


def setup_probe(steps: int) -> float:
    """Time one set-up in a fresh process: import plus one coefficient build."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", str(steps)],
                          cwd=str(ROOT), capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision():
    """Commit of the checkout (None unless the checkout itself is a git repository;
    the ceiling keeps git from finding a repository above it)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def solve_health(bundle, params) -> dict:
    """Numerical health of the set-up solve: admissibility margin, existence
    eigenvalues and the reduced-vs-full block gap."""
    try:
        margin = 1.0 + params.fee_informed * bundle.trader.f3.values
        eig = bundle.broker.eigvals.values
        return {"min_admissibility_margin": float(margin.min()),
                "max_leading_eigenvalue": float(eig[:, :3].max()),
                "max_abs_fourth_eigenvalue": float(abs(eig[:, 3]).max()),
                "block_dev": float(bundle.broker.block_dev)}
    except AttributeError as exc:
        return {"unavailable": str(exc)}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    # repetition times: the machine's speed shifts over seconds to minutes, so a
    # median jumps between speed regimes while the mean averages over them
    return statistics.fmean(xs) if xs else 0.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(wl.RUN))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: tiny grid and path counts for the self-test")
    ap.add_argument("--setup-probe", type=int, metavar="STEPS", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is None and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    if args.seconds is None and args.setup_probe is None:
        args.seconds = float(spec()["run_seconds"])
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bg, import_s = import_package()
    if args.setup_probe is not None:
        t0 = time.perf_counter()
        bg.build_coefficients(bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, args.setup_probe))
        print(repr(import_s + time.perf_counter() - t0))
        return 0

    import numpy as np
    import scipy

    size = wl.SIZES[args.size][args.workload]
    grid = bg.TimeGrid(1.0, size["steps"])
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    units = metric_units("per_layer" if args.trace else "end_to_end")

    # -- set-up: one build here (traced on a traced run), more in fresh processes
    setup_layers = {}
    t0 = time.perf_counter()
    if tracer:
        with tracer.hooks():
            bundle = bg.sim.build_coefficients(bg.DEFAULT_PARAMS, grid)
        setup_layers = tracer.metrics()
    else:
        bundle = bg.sim.build_coefficients(bg.DEFAULT_PARAMS, grid)
    setup_samples = [import_s + time.perf_counter() - t0]
    if not args.trace:
        setup_samples += [setup_probe(size["steps"]) for _ in range(SETUP_SAMPLES - 1)]

    threads = os.cpu_count() or 1        # the CLI default, threads = 0: all cores
    ctx = wl.Context(bg=bg, name=args.workload, size=args.size, seed=args.seed, grid=grid,
                     paths=size["paths"], chunk=size.get("chunk", wl.CLI_CHUNK),
                     threads=threads, bundle=bundle, out_dir=str(out_dir))
    reference = None
    if args.size == "full" and args.seed == wl.DEFAULT_SEED:
        reference = wl.load_reference(str(HERE / "reference.json")).get(args.workload)
        if reference is None:
            sys.exit(f"benchmark: no reference values for {args.workload}")

    # -- repetitions
    walls, traced_walls, mc_seconds, layer_reps = [], [], [], []
    failures, health = [], {}
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    while True:
        traced = bool(tracer) and rep % 2 == 1
        ctx.tracer = tracer if traced else None
        attempted += ctx.path_arms
        try:
            if traced:
                tracer.reset()
                with tracer.hooks(), tracer.span("rep") as root:
                    out = wl.RUN[ctx.name](ctx)
                wall = root.t1 - root.t0
            else:
                t0 = time.perf_counter()
                out = wl.RUN[ctx.name](ctx)
                wall = time.perf_counter() - t0
        except bg.BrokerGameError as exc:
            failures.append(f"repetition {rep}: {type(exc).__name__}: {exc}")
            failed += ctx.path_arms
            out = None
        if out is not None:
            values, bad, rep_health = wl.check_rep(ctx, out)
            if reference is not None:     # first checked repetition; the rest match it
                bad += wl.reference_failures(values, reference)
                reference = None
            for k, v in rep_health.items():
                health[k] = max(health.get(k, v), v)
            if bad:
                failures += [f"repetition {rep}: {b}" for b in bad]
                failed += ctx.path_arms
            if traced:
                traced_walls.append(wall)
                layer_reps.append(tracer.metrics(root))
            else:
                walls.append(wall)
                mc_seconds.append(out["mc_s"])
            del out
        rep += 1
        if time.perf_counter() - start >= args.seconds and rep >= (2 if tracer else 1):
            break

    # -- metrics
    if tracer:
        names = sorted({k for m in layer_reps for k in m} & units.keys())
        metrics = {}
        for name in names:
            v = median([m[name] for m in layer_reps if name in m])
            v = v if name in RATIOS else v + setup_layers.get(name, 0)
            metrics[name] = round(v) if units[name] in ("count", "bytes") else v
        block_dev = getattr(getattr(bundle, "broker", None), "block_dev", None)
        if block_dev is not None:
            metrics["broker.block_dev"] = float(block_dev)
        metrics["trace.wall_s"] = mean(traced_walls)
        metrics["trace.overhead_s"] = mean(traced_walls) - mean(walls)
    else:
        metrics = {"setup_s": median(setup_samples), "wall_s": mean(walls),
                   "path_arms_per_s": (ctx.mc_path_arms * len(mc_seconds) / sum(mc_seconds)
                                       if mc_seconds else 0.0),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    failed_frac = failed / attempted

    manifest = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "holdout_seed": wl.HOLDOUT_SEED,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_revision": git_revision(),
        "grid": {"horizon": grid.horizon, "steps": grid.steps},
        "paths": ctx.paths, "path_arms_per_rep": ctx.path_arms, "chunk": ctx.chunk,
        "threads": threads,
        "samples": {"setup_s": setup_samples, "wall_s": walls, "traced_wall_s": traced_walls,
                    "mc_s": mc_seconds},
        "health": {**solve_health(bundle, bg.DEFAULT_PARAMS), **health},
        "absent_hooks": sorted(set(tracer.absent) | tracer.broken) if tracer else [],
        "attempted": attempted, "failed": failed, "failed_frac": failed_frac,
        "failures": failures, "metrics": metrics,
    }
    manifest_path = out_dir / ("manifest-trace.json" if args.trace else "manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  wall samples {len(walls)} untraced, {len(traced_walls)} traced; "
          f"set-up samples {len(setup_samples)}")
    print(f"  failed_frac {failed_frac:.6g} ({failed} of {attempted} path-arms)")
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  manifest {manifest_path.relative_to(ROOT)}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
