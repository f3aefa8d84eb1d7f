"""What is the broker's belief in her own influence worth?

The broker's model says the client's rate responds to her lit-market speed
with loading c * f2: c = 1 is the baseline, c = 0 a broker who thinks the
client ignores her.  With terminal penalties turned way down, the difference
between the two feedback rules is dominated by how each leans against the
CLIENT's inventory: the believing broker front-runs the client's predictable
unwind harder, and unwinds her own book less in the lit market.
"""

import numpy as np
from scipy import stats as sps

import brokergame as bg
from brokergame.sim import CoefficientBundle

grid = bg.TimeGrid(1.0, 1000)
params = bg.DEFAULT_PARAMS.replace(beta0_trader=1e-5, beta0_broker=1e-5)

trader = bg.solve_trader(params, grid)
br1 = bg.solve_broker(params.replace(c_belief=1.0), trader, grid)
br0 = bg.solve_broker(params.replace(c_belief=0.0), trader, grid)
flow = bg.flow_filter_coefficients(trader, params, grid)

_, rec = bg.simulate_recorded(params, CoefficientBundle(trader, br1, flow),
                              bg.StrategyConfig(signal_source="price"), 200, 909)

w1, w0 = br1.gains.values, br0.gains.values
states = (rec["q_broker"], rec["alpha_hat_price"], rec["flow"], rec["q_trader_belief"])
diff = sum((w1[:, j, None] - w0[:, j, None]) * s for j, s in enumerate(states))

rho_qb = sps.spearmanr(diff.ravel(), rec["q_broker"].ravel()).statistic
rho_qi = sps.spearmanr(diff.ravel(), rec["q_trader"].ravel()).statistic
print("rate difference (believing minus non-believing broker), pooled states:")
print(f"  spearman vs broker inventory : {rho_qb:+.3f}")
print(f"  spearman vs client inventory : {rho_qi:+.3f}")
print()
print("gain-row differences (c=1 minus c=0):")
for k in (0, 500, 900):
    d = w1[k] - w0[k]
    print(f"  t = {k / grid.steps:.1f}: on q_broker {d[0]:+.4f}, on signal {d[1]:+.4f}, "
          f"on flow {d[2]:+.5f}, on q_client {d[3]:+.4f}")
print()
print("when long, the believing broker unwinds less in the lit market (she")
print("expects the client to absorb inventory), and she leans harder against")
print("the client's own position - the strongly negative client-inventory")
print("association above.")
