"""How well can the broker read the client's private signal?

Three estimators side by side on the same paths: filtering prices (poor - the
signal-to-noise ratio is low), filtering the client's trading flow (sharp),
and the naive algebraic inversion of the client's rate.  Also shows how an
unobserved initial client inventory poisons the flow-based estimates as the
horizon approaches.
"""

import os

import numpy as np

import brokergame as bg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

grid = bg.TimeGrid(1.0, 1000)
params = bg.DEFAULT_PARAMS
bundle = bg.build_coefficients(params, grid)
n_paths = 400


def diagnostics(config):
    """Filter diagnostics of the same 400 recorded paths under ``config``."""
    _, rec = bg.simulate_recorded(params, bundle, config, n_paths, 2024)
    return bg.filter_diagnostics(bundle.trader, rec)


clean = diagnostics(bg.StrategyConfig(signal_source="flow"))

rmse_price = np.sqrt(clean["mse_price"])
rmse_flow = np.sqrt(clean["mse_flow"])
print(f"price-filter rmse (median over {n_paths} paths): {np.median(rmse_price):.4f}")
print(f"flow-filter  rmse (median over {n_paths} paths): {np.median(rmse_flow):.6f}")
print(f"flow filter wins on {np.mean(clean['mse_flow'] < clean['mse_price']):.1%} of paths")
print(f"median max |flow - naive| estimate gap       : "
      f"{np.median(clean['max_alt_naive_diff']):.2e}")

mis = diagnostics(bg.StrategyConfig(signal_source="flow", mispecify_qi=True))
cp = np.median(np.abs(mis["alt_naive_checkpoints"]), axis=1)
print("with a hidden initial client inventory, the flow estimate drifts from")
print("the clean reference as the horizon approaches (median abs gap):")
for label, v in zip(("t=0.25", "t=0.50", "t=0.75", "t~T"), cp):
    print(f"  {label}: {v:.3g}")

one = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                       bg.StrategyConfig(signal_source="flow"), seed=11)
bg.export_filter_csv(one, bundle.trader, bundle.broker, bundle.flow,
                     os.path.join(OUT, "filters_one_path.csv"))
print(f"one-path estimator series written to {OUT}/filters_one_path.csv")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(10, 3.4), sharey=True)
    axes[0].plot(one.t, one.signal, lw=1.2, label="signal")
    axes[0].plot(one.t, one.alpha_hat_price, lw=0.8, label="price filter")
    axes[0].set_title("learning from prices")
    axes[0].legend(fontsize=7)
    axes[1].plot(one.t, one.signal, lw=1.2, label="signal")
    axes[1].plot(one.t, one.alpha_hat_flow, lw=0.8, label="flow filter")
    axes[1].set_title("learning from the client's flow")
    axes[1].legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(os.path.join(OUT, "filter_quality.png"), dpi=130)
    print("plot saved: filter_quality.png")
