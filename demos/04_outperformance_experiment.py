"""Outperformance of the adaptive broker over three internalisation rules.

Benchmarks: (1) externalise the informed flow and unwind inventory linearly,
(2) internalise everything and unwind linearly, (3) externalise both client
flows.  Every strategy runs on the same noise for each path, and the
wealth gap is normalised per million dollars traded.

This demo uses 2,000 paths for speed; the full 10,000-path runs live in the
acceptance tests and behind ``brokergame experiment``.
"""

import time

import brokergame as bg

grid = bg.TimeGrid(1.0, 1000)
params = bg.DEFAULT_PARAMS
n_paths = 2000

for source in ("price", "flow"):
    t0 = time.time()
    report, _ = bg.run_experiment(params, grid, bg.StrategyConfig(signal_source=source),
                                  n_paths, base_seed=20240901)
    took = time.time() - t0
    print(f"signal source = {source}  ({n_paths} paths, {took:.1f}s)")
    for i, b in sorted(report.benchmarks.items()):
        stars = "***" if b.p_value < 1e-3 else ("*" if b.p_value < 0.05 else "")
        print(f"  vs benchmark {i}: {b.mean:7.1f}  (std {b.std:5.0f})  "
              f"p = {b.p_value:.2g} {stars}")
    raw = report.raw_performance
    print("  raw wealth: " + ", ".join(
        f"{arm} {raw[arm][0]:.2f} ({raw[arm][1]:.2f})" for arm in
        ("optimal", "benchmark1", "benchmark2", "benchmark3")))
    print()

print("with price-based learning the adaptive broker is statistically")
print("indistinguishable from benchmark 1; reading the signal out of the")
print("client's flow instead is worth roughly a transaction fee per notional.")
