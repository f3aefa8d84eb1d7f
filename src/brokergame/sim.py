"""Coupled market simulation and the Monte Carlo experiment driver.

One Euler-Maruyama step advances price, signal, noise flow, both inventories,
both cash accounts and the estimators, with controls held constant over each
interval and computed from left-endpoint states.  Both agents trade by
linear feedback, the client at rows ``(f1, f2, f3)`` on ``(signal, nu_hat,
q_trader)`` and the broker at her rule's row on her state, and one function,
``_feedback``, forms either rate.  ``_Tables`` forms once what reads only the
parameter set, each estimator's update folded into a one-step affine map
``x' = c[k] x + gain[k] obs_k`` on its observation among it.  At a few
hundred paths the step loop is bound by the count of numpy calls per step,
at a few thousand by the bytes they move.  So it forms only what the arm
reads: each of the broker's estimates runs only where the rule reads it,
each filter also where the series are recorded, and their diagnostics come
from the records.  A record stores only the states the step advances that
have dynamics of their own; it forms both rates, the naive readout and both
cash accounts (each its start plus the running sum of the step's trade
costs) on read with the step's operations, and the broker's belief of the
client's inventory is that inventory unless the two can differ.  Quantities
of one shape sit in ``(rows, paths)`` blocks, so that one call forms the dt
products, the absolute traded rates, the three trade costs or the loaded
noise.  A block's per-row constants are spread to full shape rather than
broadcast as a column, which numpy runs several times slower, and each value
is formed with the operations of the row-by-row step, in its order, so the
results are bit-identical to it.  The step stays elementwise: a BLAS matrix
product rounds a path's values differently with the width of its chunk.
Paths are vectorised, and every path owns its own seeded random stream so
results are independent of chunking; the streams are drawn in blocks of
paths into one time-major buffer, which a recorded batch places inside its
own record's last three stored series.  An experiment chunk fills its buffer
``NOISE_SLAB`` steps at a time and advances every arm over each slab,
continuing each path's stream and each arm's state, so the results are also
independent of the slab length.  An arm builds its set-up (rule table and
spread constants) on the chunk's first slab and keeps it with its state.

Every broker rule (the optimal rate, its inventory-unwind fallback and the
three benchmarks) is a time-varying linear feedback table on one state,
``(q_broker, alpha_est, flow, q_trader_belief, eta)``, so one step loop, with
no branch on the rule, serves every arm.  The experiment runs each arm on the
same Gaussian increments, which is what makes the outperformance statistics
tight; the stress sweep adds each stressed cell's optimal arm to the same
per-chunk pass.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .broker import BrokerCoefficients, solve_brokers
from .errors import ValidationError
from .filters import (FlowFilterCoefficients, flow_filter_coefficients, price_filter_gain,
                      trader_filter_gain)
from .odes import TimeGrid, _is_integer, write_columns_csv
from .params import ModelParams
from .trader import TraderCoefficients, solve_trader

__all__ = [
    "StrategyConfig",
    "CoefficientBundle",
    "build_coefficients",
    "build_bundles",
    "PathResult",
    "simulate_path",
    "simulate_recorded",
    "filter_diagnostics",
    "run_experiment",
    "export_path_csv",
    "export_filter_csv",
    "RECORD_SERIES",
]

BROKER_MODES = ("optimal", "benchmark1", "benchmark2", "benchmark3")
SIGNAL_SOURCES = ("price", "flow", "naive")

RECORD_SERIES = (
    "price", "signal", "flow", "rate_broker", "rate_trader",
    "q_broker", "q_trader", "q_trader_belief", "cash_broker", "cash_trader",
    "nu_hat", "alpha_hat_price", "alpha_hat_flow", "alpha_hat_naive",
)
# the states the step advances: the series a path can start from
# (``simulate_path``'s ``init``); a record stores those ``_stored_series`` names
INIT_STATES = (
    "price", "signal", "flow", "q_broker", "q_trader", "q_trader_belief",
    "cash_broker", "cash_trader", "nu_hat", "alpha_hat_price", "alpha_hat_flow",
)
NOISE_BLOCK = 32                   # paths per block of the noise draw
NOISE_SLAB = 50                    # steps per slab of an experiment chunk's noise
# nodes per block of a series a record forms on read: at 200 and 1,000 paths
# 64 reads as fast as 16 or 256 or faster, and the whole series slower,
# with one block's temporaries (BENCH_lean-record.json, form_nodes_choice)
FORM_NODES = 64


def _check_counts(**counts) -> None:
    """Each count (``n_paths``, ``chunk_size``) must be an integer >= 1."""
    if not all(map(_is_integer, counts.values())):
        names = " and ".join(f"{key} ({value!r})" for key, value in counts.items())
        raise ValidationError(f"{names} must be {'integers' if len(counts) > 1 else 'an integer'}")
    if min(counts.values()) < 1:
        names = " and ".join(f"{key} ({value})" for key, value in counts.items())
        raise ValidationError(f"{names} must be >= 1")


@dataclass(frozen=True)
class StrategyConfig:
    """What the broker does on a simulated path.

    Benchmarks ignore ``signal_source``.  ``mispecify_qi`` draws the trader's
    true initial inventory from a standard normal while the broker's belief
    stays at zero; in that mode the broker falls back to a plain inventory
    unwind over the last ``unwind_tail`` steps when she relies on a
    flow-derived signal estimate (which degrades near the horizon).  Path
    ``n`` draws its noise from ``default_rng(seed ^ n)``; a run's seed
    override replaces ``seed`` here, the one place it is checked.
    """

    broker_mode: str = "optimal"
    signal_source: str = "price"
    mispecify_qi: bool = False
    seed: int = 1729
    unwind_tail: int = 10

    def __post_init__(self):
        if self.broker_mode not in BROKER_MODES:
            raise ValidationError(f"broker_mode must be one of {BROKER_MODES}")
        if self.signal_source not in SIGNAL_SOURCES:
            raise ValidationError(f"signal_source must be one of {SIGNAL_SOURCES}")
        if not (_is_integer(self.seed) and _is_integer(self.unwind_tail)):
            raise ValidationError(f"seed ({self.seed!r}) and unwind_tail ({self.unwind_tail!r}) "
                                  "must be integers")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.unwind_tail < 0:
            raise ValidationError("unwind_tail must be >= 0")
        # a numpy integer seed and the equal int write one report
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class CoefficientBundle:
    trader: TraderCoefficients
    broker: BrokerCoefficients
    flow: FlowFilterCoefficients | None


def build_coefficients(params: ModelParams, grid: TimeGrid,
                       with_flow: bool = True) -> CoefficientBundle:
    """Solve every deterministic table needed by the simulator: a batch of
    one of ``build_bundles``."""
    return build_bundles([params], grid, with_flow)[0]


def build_bundles(params_seq, grid: TimeGrid, with_flow: bool = True) -> list:
    """One ``CoefficientBundle`` per parameter set, with the broker's matrix
    Riccati of every set solved in one stacked march (``solve_brokers``) and
    each scalar Riccati once per distinct value of the parameters it reads,
    its table shared by the sets that read it.  Each bundle is bit-identical
    to the one its set builds alone."""
    solved = {}
    traders = [solve_trader(p, grid, solved) for p in params_seq]
    brokers = solve_brokers(params_seq, traders, grid)
    flows = [flow_filter_coefficients(tr, p, grid) if with_flow else None
             for p, tr in zip(params_seq, traders)]
    return [CoefficientBundle(*tables) for tables in zip(traders, brokers, flows)]


@dataclass
class PathResult:
    """Full record of one simulated path (every series has steps+1 nodes)."""

    grid: TimeGrid
    config: StrategyConfig
    seed: int
    t: np.ndarray
    price: np.ndarray
    signal: np.ndarray
    flow: np.ndarray
    rate_broker: np.ndarray
    rate_trader: np.ndarray
    q_broker: np.ndarray
    q_trader: np.ndarray
    q_trader_belief: np.ndarray
    cash_broker: np.ndarray
    cash_trader: np.ndarray
    nu_hat: np.ndarray
    alpha_hat_price: np.ndarray
    alpha_hat_flow: np.ndarray
    alpha_hat_naive: np.ndarray
    # (steps+1, 4) terms of the rate on q_broker, alpha_est, flow and
    # q_trader_belief, formed from the record with the products that form
    # rate_broker; benchmarks 1 and 3 also pass on rate_trader, which is not
    # among them
    components: np.ndarray
    wealth_broker: float             # cash + inventory marked at the last price
    wealth_trader: float
    notional: float                  # integral of price * (|nu|+|eta|+|xi|)
    blown: bool
    blow_step: int
    max_inventory_gap: float
    max_cash_gap: float


class _Tables:
    """Grid-index arrays consumed by the stepper (plain ndarrays only), each
    formed once per parameter set.

    The trader side (the client's feedback rows, his speed-filter gain and
    its folded map) comes from ``trader_true``, or from the bundle's trader
    when it is None; everything the broker computes — her feedback gains,
    her filters and their folded maps, and the loadings she uses to invert
    the client's rate — comes from the bundle, solved under
    ``params_model`` (the stress sweep's mispecified model).  The cost
    coefficients are the market's, ``params_true``'s.
    """

    def __init__(self, params_true: ModelParams, params_model: ModelParams,
                 bundle: CoefficientBundle, trader_true: TraderCoefficients | None = None):
        tr_model, br, fl = bundle.trader, bundle.broker, bundle.flow
        tr = trader_true if trader_true is not None else tr_model
        p = params_true
        self.grid = tr.grid
        n, dt = self.grid.steps, self.grid.dt
        # trader side (true dynamics of the client): his rate is the feedback
        # rows (f1, f2, f3) on (signal, nu_hat, q_trader)
        self.client = np.stack([tr.f1.values, tr.f2.values, tr.f3.values])
        self.gain_nu = trader_filter_gain(tr.var_nu.values, p)
        # each filter is a one-step affine map x' = c[k] x + gain[k] obs_k: the
        # speed filter observes dy = dprice - signal dt, the price filter dz =
        # dprice - impact_dt nu and the flow filter ztil' - (1 + g6 dt) ztil -
        # g9 dt nu
        self.c_nu = 1.0 - p.theta_speed * dt - self.gain_nu * (p.perm_impact * dt)
        # broker side (her model of the client and of the signal)
        self.f3_belief = tr_model.f3.values
        # the belief loadings vanish at the horizon: the naive readout reuses
        # the last interior node, and multiplies by its reciprocal
        self.inv_f1b_c = 1.0 / tr_model.f1.values[np.minimum(np.arange(n + 1), n - 1)]
        self.gain_price = price_filter_gain(br.var_alpha.values, params_model)
        kappa_dt = params_model.kappa_signal * dt
        self.c_price = 1.0 - kappa_dt - self.gain_price * dt
        self.gains = br.gains.values
        self.inv_scale = None
        if fl is not None:
            self.inv_scale = fl.inv_scale.values
            self.gain_flow = (fl.drift_signal.values * fl.var_alt.values
                              + params_model.sigma_signal * fl.noise_mix.values)
            self.c_flow = 1.0 - kappa_dt - self.gain_flow * fl.drift_signal.values * dt
            self.carry_ztil = 1.0 + fl.drift_obs.values * dt
            self.g9_dt = fl.drift_rate.values * dt
        # the cost coefficients of trading at (eta, nu, flow): the client's
        # fee, the broker's temporary impact and the uninformed flow's fee
        self.cost_coefs = (p.fee_informed, p.temp_impact, p.fee_uninformed)
        self.true = p


def _broker_rule(tables: _Tables, config: StrategyConfig) -> np.ndarray:
    """Feedback row of the broker's rate under ``config``, shape (steps+1, 5).

    The broker trades ``rule[k] . y`` at step ``k``, where ``y = (q_broker,
    alpha_est, flow, q_trader_belief, eta)``.  The optimal rule reads its
    gains; with a mispecified client inventory and a flow-derived signal
    estimate it unwinds inventory over the last ``unwind_tail`` steps
    instead.  Benchmark 1 externalises the informed flow and unwinds
    inventory linearly, 2 internalises everything and unwinds linearly,
    3 externalises both client flows.  The unwind denominator is floored at
    one step near the horizon.
    """
    grid = tables.grid
    n = grid.steps
    unwind = -1.0 / np.maximum(grid.horizon - np.arange(n + 1) * grid.dt, grid.dt)
    rule = np.zeros((n + 1, 5))
    mode = config.broker_mode
    if mode == "optimal":
        rule[:, :4] = tables.gains
        if config.mispecify_qi and config.signal_source in ("flow", "naive"):
            tail = slice(max(n - config.unwind_tail, 0), None)
            rule[tail] = 0.0
            rule[tail, 0] = unwind[tail]
    elif mode == "benchmark1":
        rule[:, 0] = unwind
        rule[:, 4] = 1.0
    elif mode == "benchmark2":
        rule[:, 0] = unwind
    else:                                  # benchmark3
        rule[:, 2] = 1.0
        rule[:, 4] = 1.0
    return rule


def _draw_noise(base_seed: int, path_indices, steps: int, out: np.ndarray | None = None,
                streams: list | None = None):
    """Per-path streams: one initial-inventory draw then the step increments.

    Path n uses ``default_rng(base_seed ^ n)``; the draw order is fixed so
    every strategy arm sees bit-identical noise for a given path index.  The
    increments are ``(steps, paths, 3)``, a view of a time-major ``(steps, 3,
    paths)`` buffer (``out`` when given) in which each normal component of a
    step is contiguous over paths.  Paths are drawn ``NOISE_BLOCK`` at a time
    into a path-major block, one contiguous row per path, and each block
    goes into the buffer in one transposed assignment.

    ``streams`` carries the paths' generators from one slab of steps to the
    next: an empty list is filled with them, each left after the increments
    it drew, and a call given them again draws each path's next ``steps``
    increments from them, reads nothing of ``path_indices`` and returns
    ``q0`` None.  A generator draws the same numbers whether its increments
    come in one call or in slabs.
    """
    fresh = not streams
    m = len(path_indices) if fresh else len(streams)
    noise = np.empty((steps, 3, m)) if out is None else out
    q0 = np.empty(m) if fresh else None
    block = np.empty((min(NOISE_BLOCK, m), steps, 3))
    for lo in range(0, m, NOISE_BLOCK):
        rows = block[:min(NOISE_BLOCK, m - lo)]
        hi = lo + len(rows)
        if fresh:
            rngs = [np.random.default_rng(base_seed ^ int(n)) for n in path_indices[lo:hi]]
            q0[lo:hi] = [rng.standard_normal() for rng in rngs]
            if streams is not None:
                streams += rngs
        else:
            rngs = streams[lo:hi]
        for rng, row in zip(rngs, rows):
            rng.standard_normal(out=row)
        noise[:, :, lo:hi] = rows.transpose(1, 2, 0)
    return q0, noise.transpose(0, 2, 1)


def _arm_setup(tables: _Tables, config: StrategyConfig, record: bool, m: int) -> tuple:
    """What the step loop of one arm over ``m`` paths forms before its first
    step: the rule's table and the state columns it reads, which of the
    broker's estimates run and the per-row constants spread over the paths.
    ``_simulate_core`` builds it on a batch's first call and keeps it in
    ``carry`` for the later ones; what reads only the parameter set, the
    folded filter maps among it, ``_Tables`` holds."""
    p = tables.true
    dt = tables.grid.dt
    rule = _broker_rule(tables, config).T
    # the rate sums only the state columns the rule ever reads; each of the
    # broker's estimates runs only where the rule reads it, and each filter
    # (price, flow) also where the series are recorded, while a record forms
    # the naive readout on read.  The flow filter and the naive readout share
    # the client's rate net of its believed inventory loading, gamma
    active = [j for j in range(5) if rule[j].any()]
    source = SIGNAL_SOURCES.index(config.signal_source)
    run_price, run_flow, run_naive = (1 in active and source == j for j in range(3))
    run_price = run_price or record
    run_flow = (run_flow or record) and tables.inv_scale is not None

    # constants folded once per batch: noise loadings sigma*sqrt(dt) of
    # (price, signal, flow) (the signal's price-noise loading, nonzero when
    # rho != 0, is applied on its own), decays 1 - kappa*dt of (flow,
    # signal) and the cost coefficients of (eta, nu, flow).  A per-row
    # constant is spread over the paths: numpy's same-shape loops are
    # several times faster than broadcasting a column
    sqdt = math.sqrt(dt)
    rho_c = math.sqrt(max(0.0, 1.0 - p.rho * p.rho))
    spread = lambda *rows: np.repeat(np.array(rows)[:, None], m, axis=1)
    loads = spread(p.sigma_price * sqdt, p.sigma_signal * rho_c * sqdt, p.sigma_flow * sqdt)
    decay = spread(1.0 - p.kappa_flow * dt, 1.0 - p.kappa_signal * dt)
    cost_coef = spread(*tables.cost_coefs)
    return rule, active, source, run_price, run_flow, run_naive, loads, decay, cost_coef


def _feedback(terms, out=None) -> np.ndarray:
    """A linear feedback rate: the sum of ``row * state`` over the ``(row,
    state)`` pairs of ``terms``, added in their order.  The step passes each
    table's value at one node, a record a column of them over a block of
    nodes, so a formed rate equals the step's bit for bit."""
    (row, state), *rest = terms
    out = np.multiply(row, state, out=out)
    for row, state in rest:
        out += row * state
    return out


def _trade_costs(coef, rate, price, rate_dt, out=None) -> np.ndarray:
    """The cost ``(coef * rate + price) * (rate * dt)`` of trading at
    ``rate`` over a step, ``rate_dt`` being ``rate * dt``: the step forms the
    costs of (eta, nu, flow) with it, and a record its cash accounts."""
    out = np.multiply(coef, rate, out=out)
    out += price
    out *= rate_dt
    return out


def _stored_series(config: StrategyConfig, init: dict | None) -> tuple:
    """The series a record of a batch stores: the states the step advances
    (``INIT_STATES``) less the two cash accounts, which a record forms from
    their starts and the stored rows, and less the broker's belief of the
    client's inventory where it is the client's inventory bit for bit.  Both
    advance by the same client trade, so they stay equal unless
    ``mispecify_qi`` draws the client's start or ``init`` names either; the
    step then keeps no belief of its own either."""
    apart = config.mispecify_qi or not {"q_trader", "q_trader_belief"}.isdisjoint(init or ())
    return tuple(name for name in INIT_STATES if name not in ("cash_broker", "cash_trader")
                 and (apart or name != "q_trader_belief"))


class _Record(Mapping):
    """A recorded batch's ``RECORD_SERIES``, each ``(steps+1, paths)``.

    ``rows`` holds the stored series (``_stored_series``) and ``cash`` each
    path's starting cash of both accounts.  The client's rate, the naive
    readout and the broker's rate are formed on read, ``FORM_NODES`` nodes at
    a time into one new array, from the stored series, the arm's rule and
    the named tables of ``_Tables``; each rate is the step's own
    ``_feedback`` over a block of nodes.  Each cash account is formed on
    read as its start plus the running sum, node by node, of the trade
    costs (``_trade_costs``) of price and the three rates, whose blocks are
    formed ``FORM_NODES`` nodes at a time.  Every formed series takes the
    step's operations in its order, so it equals the value the step formed
    bit for bit; the broker's rate reads only the series of the rule's
    active columns.  Each read forms a new array from the stored rows as
    they are then; a membership test forms nothing.
    """

    def __init__(self, rows: dict, tables: _Tables, setup: tuple, cash: dict):
        self.rows = rows
        self.cash = cash
        self._tables = tables
        self._rule, self._active, source = setup[:3]
        self._coef = dict(zip(("rate_trader", "rate_broker", "flow"), tables.cost_coefs))
        # the state each rule column reads, as in the step's y
        self._reads = ("q_broker", f"alpha_hat_{SIGNAL_SOURCES[source]}", "flow",
                       "q_trader_belief", "rate_trader")

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.rows:
            return self.rows[name]
        if name == "q_trader_belief":          # not stored: the client's inventory
            return self.rows["q_trader"]
        if name not in RECORD_SERIES:
            raise KeyError(name)
        if name in self.cash:
            return self._cash(name)
        out = np.empty_like(self.rows["price"])
        for lo in range(0, len(out), FORM_NODES):
            nodes = slice(lo, lo + FORM_NODES)
            out[nodes] = self._block(name, nodes)
        return out

    def __contains__(self, name) -> bool:
        return name in RECORD_SERIES

    def __iter__(self):
        return iter(RECORD_SERIES)

    def __len__(self) -> int:
        return len(RECORD_SERIES)

    def _block(self, name: str, nodes: slice) -> np.ndarray:
        """Series ``name`` at ``nodes``: a stored row's view or a formed block
        of a rate or the naive readout; a cash account is no block of nodes."""
        if name in self.rows or name == "q_trader_belief":
            return self[name][nodes]
        with np.errstate(over="ignore", invalid="ignore"):
            if name == "rate_trader":
                states = (self.rows[state][nodes] for state in ("signal", "nu_hat", "q_trader"))
                return _feedback(zip(self._tables.client[:, nodes, None], states))
            if name == "alpha_hat_naive":
                gamma = self._tables.f3_belief[nodes, None] * self._block("q_trader_belief", nodes)
                np.subtract(self._block("rate_trader", nodes), gamma, out=gamma)
                gamma *= self._tables.inv_f1b_c[nodes, None]
                return gamma
            if name == "rate_broker":
                return _feedback((self._rule[j, nodes, None], self._block(self._reads[j], nodes))
                                 for j in self._active)
        raise KeyError(name)

    def term(self, j: int, nodes: slice) -> np.ndarray:
        """Rule column ``j`` times the state it reads, at ``nodes``."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._rule[j, nodes, None] * self._block(self._reads[j], nodes)

    def _cost(self, rate: str, nodes: slice) -> np.ndarray:
        """The trade cost of ``rate`` over the steps at ``nodes``."""
        r = self._block(rate, nodes)
        return _trade_costs(self._coef[rate], r, self.rows["price"][nodes],
                            r * self._tables.grid.dt)

    def _cash(self, name: str) -> np.ndarray:
        """Cash account ``name``: node ``k + 1`` is node ``k`` plus step
        ``k``'s flows, added row by row as the step adds them: the broker's
        own flow ``cost_flow - cost_nu``, then less the client's payment
        ``-cost_eta``, which the client's account adds."""
        out = np.empty_like(self.rows["price"])
        out[0] = self.cash[name]
        steps = len(out) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, steps, FORM_NODES):
                nodes = slice(lo, min(lo + FORM_NODES, steps))
                client = self._cost("rate_trader", nodes)
                np.negative(client, out=client)
                if name == "cash_trader":
                    for now, nxt, pay in zip(out[lo:], out[lo + 1:], client):
                        np.add(now, pay, out=nxt)
                else:
                    own = self._cost("flow", nodes)
                    own -= self._cost("rate_broker", nodes)
                    for now, nxt, flow, pay in zip(out[lo:], out[lo + 1:], own, client):
                        np.add(now, flow, out=nxt)
                        nxt -= pay
        return out


def _simulate_core(tables: _Tables, config: StrategyConfig, eps: np.ndarray,
                   q0_draw: np.ndarray | None, record: bool, init: dict | None = None,
                   record_block: np.ndarray | None = None, carry: dict | None = None):
    """Advance a batch of paths under the config's broker rule.

    Returns (metrics, records): every metric is ``(paths,)``; records are
    None unless ``record``, and then a read-only mapping (``_Record``) of
    exactly the ``RECORD_SERIES``, each ``(steps+1, paths)``.  It stores the
    states the step advances less the cash accounts (``_stored_series``: 8
    series, 9 where the belief is kept apart) as the rows of
    ``record_block`` (a ``(stored, steps+1, paths)`` array, new when not
    given), in ``INIT_STATES`` order, and each path's starting cash; it forms
    the two rates, the naive readout and both cash accounts on read, so the
    step copies none of them and runs the naive readout only where the rule
    reads it.  Step ``k`` records node ``k`` of every stored series at its
    top and reads increment ``k`` only within itself, so increment ``k`` may
    sit in node ``k + 1`` of the block.

    A call advances the batch by the steps of its increments ``eps``, the
    whole horizon unless ``carry`` is given.  ``carry`` holds the batch
    between slabs of steps: given empty, the call builds the arm's set-up
    (``_arm_setup``), starts the batch from ``init`` and ``q0_draw`` and
    leaves both there; given again, it continues the batch, reads neither
    and builds nothing, so a later slab costs only its steps.  Every metric
    is the batch's value after the call's steps, except ``blown``, which
    flags the paths that blew within them, so a blown path is flagged in one
    slab only.
    """
    p = tables.true
    grid = tables.grid
    n_steps = grid.steps
    dt = grid.dt
    m = eps.shape[1]
    if not carry:
        if config.signal_source == "flow" and tables.inv_scale is None:
            raise ValidationError("signal_source='flow' requires flow-filter coefficients")
        init = init or {}
        unknown = sorted(set(init) - set(INIT_STATES))
        if unknown:
            raise ValidationError(f"init names no state: {unknown}; states are {INIT_STATES}")
        stored = _stored_series(config, init)
    k0 = carry["step"] if carry else 0
    k1 = k0 + eps.shape[0]
    if not k0 < k1 <= n_steps or (carry is None and k1 < n_steps):
        raise ValueError(f"increments for steps {k0}..{k1} of a {n_steps}-step batch")
    setup = carry["setup"] if carry else _arm_setup(tables, config, record, m)
    rule, active, source, run_price, run_flow, run_naive, loads, decay, cost_coef = setup
    need_gamma = run_flow or run_naive
    load_sig0 = p.sigma_signal * p.rho * math.sqrt(dt)
    impact_dt = p.perm_impact * dt
    f_client, f3b, inv_f1b_c = tables.client, tables.f3_belief, tables.inv_f1b_c
    gain_nu, c_nu = tables.gain_nu, tables.c_nu
    gain_price, c_price = tables.gain_price, tables.c_price
    if run_flow:
        gain_flow, inv_scale, c_flow = tables.gain_flow, tables.inv_scale, tables.c_flow
        carry_ztil, g9_dt = tables.carry_ztil, tables.g9_dt

    if carry:                          # the batch where its last slab left it
        (price, price_next, x, acct_b, acct_i, belief, nu_hat, a_price, a_flow, probed, book,
         gaps, notional, blow_step, gamma, ztil, rec) = carry["state"]
    else:
        def full(key, default):
            value = init.get(key, default)
            try:
                return np.full(m, float(value))
            except (TypeError, ValueError):
                raise ValidationError(f"init[{key!r}] must be a number, got {value!r}") from None

        price = full("price", p.price_init)
        price_next = np.empty(m)
        # (eta, nu, flow, signal): one call forms their dt products, one the
        # absolute values of the traded rates (eta, nu, flow) and one decays
        # (flow, signal); the broker's rate nu is formed at the top of each step
        x = np.empty((4, m))
        x[2] = full("flow", 0.0)
        x[3] = full("signal", p.signal_init)
        # each side's account is one (2, paths) array of (cash, inventory), so a
        # client trade, the broker's own flows and the conservation gaps each
        # take one call for both rows
        acct_b = np.stack([full("cash_broker", 0.0), full("q_broker", 0.0)])
        acct_i = np.stack([full("cash_trader", 0.0), full("q_trader", 0.0)])
        if config.mispecify_qi:
            acct_i[1] += q0_draw
        # the belief is kept apart only where it can differ from the client's
        # inventory; elsewhere it is that inventory
        belief = full("q_trader_belief", 0.0) if "q_trader_belief" in stored else None
        nu_hat = full("nu_hat", 0.0)
        a_price = full("alpha_hat_price", 0.0)
        a_flow = full("alpha_hat_flow", 0.0)
        # an estimate enters the blow-up probe where its filter runs; one that
        # does not move enters only if it starts non-finite
        probed = [a for a, runs in ((a_price, run_price), (a_flow, run_flow))
                  if runs or not np.isfinite(a).all()]
        # what acct_b + acct_i must equal: the starting books plus the integral
        # of the broker's own flow, (cost_xi - cost_nu, nu - xi)
        book = acct_b + acct_i
        gaps = np.zeros((2, m))        # running max of |acct_b + acct_i - book|
        notional = np.zeros(m)         # sum of traded value, trapezoid weights
        blow_step = np.full(m, -1, dtype=np.int64)
        rec = None
        if record:
            if record_block is None:
                record_block = np.empty((len(stored), n_steps + 1, m))
            rec = _Record(dict(zip(stored, record_block)), tables, setup,
                          {"cash_broker": acct_b[0].copy(), "cash_trader": acct_i[0].copy()})
        _feedback(zip(f_client[:, 0], (x[3], nu_hat, acct_i[1])), out=x[0])
        gamma = ztil = None
        if need_gamma:
            gamma = x[0] - f3b[0] * (acct_i[1] if belief is None else belief)
            if run_flow:
                ztil = gamma * inv_scale[0]
    eta, nu, flow, signal = x
    flow_signal = x[2:]
    x_b, q_b = acct_b
    x_i, q_i = acct_i
    q_ib = q_i if belief is None else belief
    client_y = (signal, nu_hat, q_i)   # the states the client's rate reads

    gap = np.empty((2, m))
    own = np.empty((2, m))             # the broker's own flow over a step
    # one step's flows by row: 0 the client's payment -cost_eta, 1-4 (eta,
    # nu, flow, signal) dt, 5-7 the costs (coef r + price) r dt of r = eta,
    # nu, flow, 8 impact_dt nu.  Rows 0-1 are the client's flow, (-cost_eta,
    # eta dt), which enters his account and leaves hers; every block a call
    # reads is contiguous, which numpy runs faster than strided rows
    flows = np.empty((9, m))
    client, x_dt, costs, impact = flows[0:2], flows[1:5], flows[5:8], flows[8]
    shocks = np.empty((3, m))          # noise times its loading, (price, signal, flow)
    dprice = np.empty(m)
    obs = np.empty(m)
    traded = np.empty(m)
    probe = np.empty(m)
    blown = np.zeros(m, dtype=bool)
    a_naive = None
    noise = eps.transpose(0, 2, 1)     # (slab steps, 3, paths)

    with np.errstate(over="ignore", invalid="ignore"):
        # the horizon's node has a top and no step
        for k in range(k0, k1 + (k1 == n_steps)):
            if run_naive:
                a_naive = gamma * inv_f1b_c[k]
            y = (q_b, (a_price, a_flow, a_naive)[source], flow, q_ib, eta)
            _feedback([(rule[j, k], y[j]) for j in active], out=nu)

            if record:
                now = dict(price=price, signal=signal, flow=flow, q_broker=q_b, q_trader=q_i,
                           q_trader_belief=q_ib, nu_hat=nu_hat, alpha_hat_price=a_price,
                           alpha_hat_flow=a_flow)
                for name, row in rec.rows.items():
                    row[k] = now[name]

            # |eta| + |nu| + |flow|, summed row by row in that order; the
            # cost rows, formed later in the step, hold the absolute values
            np.abs(x[:3], out=costs)
            np.add.reduce(costs, axis=0, out=traded)
            traded *= price
            if 0 < k < n_steps:
                notional += traded
            else:
                notional += 0.5 * traded

            if k == n_steps:
                break

            np.multiply(loads, noise[k - k0], out=shocks)
            np.multiply(x, dt, out=x_dt)
            np.multiply(nu, impact_dt, out=impact)
            _trade_costs(cost_coef, x[:3], price, x_dt[:3], out=costs)
            np.negative(costs[0], out=client[0])
            np.subtract(costs[2], costs[1], out=own[0])
            np.subtract(x_dt[1], x_dt[2], out=own[1])
            acct_b += own
            acct_b -= client
            acct_i += client
            book += own
            if belief is not None:
                belief += x_dt[0]

            np.add(impact, price, out=price_next)
            price_next += x_dt[3]
            price_next += shocks[0]
            np.subtract(price_next, price, out=dprice)
            price, price_next = price_next, price
            np.subtract(dprice, x_dt[3], out=obs)
            obs *= gain_nu[k]
            nu_hat *= c_nu[k]
            nu_hat += obs
            if run_price:
                np.subtract(dprice, impact, out=obs)
                obs *= gain_price[k]
                a_price *= c_price[k]
                a_price += obs
            flow_signal *= decay
            if load_sig0:                  # the signal loads on price noise when rho != 0
                signal += load_sig0 * noise[k - k0, 0]
            signal += shocks[1]
            flow += shocks[2]

            _feedback(zip(f_client[:, k + 1], client_y), out=eta)
            if need_gamma:
                gamma = f3b[k + 1] * q_ib
                np.subtract(eta, gamma, out=gamma)
                if run_flow:
                    ztil_next = gamma * inv_scale[k + 1]
                    innov = ztil_next - carry_ztil[k] * ztil
                    innov -= g9_dt[k] * nu
                    innov *= gain_flow[k]
                    a_flow *= c_flow[k]
                    a_flow += innov
                    ztil = ztil_next

            np.add(acct_b, acct_i, out=gap)
            gap -= book
            np.abs(gap, out=gap)
            np.fmax(gaps, gap, out=gaps)

            # a non-finite account makes its gap non-finite, and a non-finite
            # probe makes the sum non-finite, so a finite sum clears every
            # path at once
            np.add(gap[0], gap[1], out=probe)
            probe += price
            probe += nu_hat
            for estimate in probed:
                probe += estimate
            if not math.isfinite(np.add.reduce(probe)):
                fresh = ~np.isfinite(probe) & (blow_step < 0)
                blow_step[fresh] = k + 1
                blown |= fresh

    if carry is not None:
        carry.update(step=k1, state=(price, price_next, x, acct_b, acct_i, belief, nu_hat,
                                     a_price, a_flow, probed, book, gaps, notional, blow_step,
                                     gamma, ztil, rec), setup=setup)
    with np.errstate(over="ignore", invalid="ignore"):
        wealth_b = x_b + q_b * price
        wealth_i = x_i + q_i * price
    metrics = {
        "wealth_broker": wealth_b,
        "wealth_trader": wealth_i,
        "notional": notional * dt,
        "blown": blown,
        "blow_step": blow_step.copy(),
        "max_inventory_gap": gaps[1].copy(),
        "max_cash_gap": gaps[0].copy(),
    }
    return metrics, rec


def simulate_path(params: ModelParams, trader: TraderCoefficients,
                  broker: BrokerCoefficients, flow: FlowFilterCoefficients | None,
                  config: StrategyConfig = StrategyConfig(), seed: int | None = None,
                  init: dict | None = None) -> PathResult:
    """Simulate one path with a full record of every series.

    ``trader``/``broker``/``flow`` are the tables solved under ``params``;
    ``init`` overrides initial states by series name.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    tables = _Tables(params, params, CoefficientBundle(trader, broker, flow))
    metrics, rec = _record_batch(tables, config, [0], init)
    series = {name: rec[name][:, 0].copy() for name in RECORD_SERIES}
    scalars = {key: value[0].item() for key, value in metrics.items()}
    # the rate's terms: each rule column times the state it reads, node by node
    components = np.concatenate([rec.term(j, slice(None)) for j in range(4)], axis=1)
    return PathResult(grid=trader.grid, config=config, seed=config.seed, t=trader.grid.times,
                      components=components, **scalars, **series)


def simulate_recorded(params: ModelParams, bundle: CoefficientBundle,
                      config: StrategyConfig, n_paths: int, base_seed: int):
    """Record full series for a batch of paths; returns (metrics, records).

    The records map each of the ``RECORD_SERIES`` to its ``(steps+1,
    n_paths)`` array.  They store 8 of the states the step advances, 9 with
    ``mispecify_qi`` (the broker's belief of the client's inventory, which
    is otherwise the client's inventory), and form ``rate_trader``,
    ``alpha_hat_naive``, ``rate_broker``, ``cash_broker`` and
    ``cash_trader`` on read, each a new array bit-identical to the step's
    value; a cash account is its start plus the running sum of the step's
    trade costs.  A formed series reads the stored rows as they are when it
    is read, so an edit to a stored row moves every series formed from it
    (an edited ``price`` moves both cash accounts from the next node on).
    Where the belief is not kept apart, ``q_trader_belief`` is the
    ``q_trader`` row itself, so a write into one writes into both.  The
    rate's components are not stored (``simulate_path`` forms them for
    its one path).  The batch's noise is drawn into its record, so its peak
    allocation is the stored rows plus ``(n_paths,)`` temporaries, and one
    series more for each formed one the caller holds.  ``base_seed``
    replaces ``config.seed``.
    """
    _check_counts(n_paths=n_paths)
    config = replace(config, seed=base_seed)
    return _record_batch(_Tables(params, params, bundle), config, range(n_paths))


def _record_batch(tables: _Tables, config: StrategyConfig, path_indices,
                  init: dict | None = None):
    """Run the paths ``path_indices`` with a record; returns (metrics, records).

    The block holds the series ``_stored_series`` names (no cash account),
    and the noise is drawn into nodes ``1..steps`` of its last three
    (``nu_hat``, ``alpha_hat_price``, ``alpha_hat_flow``), so the batch
    allocates its stored rows and nothing else of their size.
    """
    steps = tables.grid.steps
    block = np.empty((len(_stored_series(config, init)), steps + 1, len(path_indices)))
    q0, eps = _draw_noise(config.seed, path_indices, steps,
                          out=block[-3:, 1:].transpose(1, 0, 2))
    return _simulate_core(tables, config, eps, q0, record=True, init=init,
                          record_block=block)


def filter_diagnostics(trader: TraderCoefficients, rec: dict) -> dict:
    """Per-path filter quality of recorded paths.

    ``rec`` is :func:`simulate_recorded`'s record and ``trader`` the broker's
    model of the client (``bundle.trader``).  ``mse_price``/``mse_flow``:
    each filter's mean squared error against the signal.  The gap is the
    flow estimate's distance to the naive readout ``(rate_trader - f3
    q_trader) / f1`` fed the TRUE client inventory, so a mispecified belief
    cannot hide the drift; at the horizon, where ``f1`` vanishes, the
    readout uses the last interior node.  ``max_alt_naive_diff``: its
    largest value over nodes ``k <= steps - 10`` (0 if none).
    ``alt_naive_checkpoints`` ``(4, paths)``: its value at nodes ``steps //
    4``, ``steps // 2``, ``3 steps // 4`` and ``max(steps - 10, 0)``.
    """
    signal, a_flow = rec["signal"], rec["alpha_hat_flow"]
    n = signal.shape[0] - 1
    last = np.minimum(np.arange(n + 1), n - 1)[:, None]
    naive_true = rec["rate_trader"] - rec["q_trader"] * trader.f3.values[last]
    naive_true *= 1.0 / trader.f1.values[last]
    diff = np.abs(a_flow - naive_true)
    # summed node by node in time order, so no value depends on the batch size
    return {
        "mse_price": np.add.accumulate(np.square(rec["alpha_hat_price"] - signal))[-1] / (n + 1),
        "mse_flow": np.add.accumulate(np.square(a_flow - signal))[-1] / (n + 1),
        "max_alt_naive_diff": np.fmax.reduce(diff[:max(n - 9, 0)], axis=0, initial=0.0),
        "alt_naive_checkpoints": diff[[n // 4, n // 2, (3 * n) // 4, max(n - 10, 0)]],
    }


def _run_jobs(jobs, base_seed: int, n_paths: int, chunk_size: int):
    """Run every ``(tables, arm config)`` job on the same noise, over the
    steps of the grid all their tables share.

    The chunks of paths run one after another on the calling thread.  A
    chunk draws its noise (path ``n`` from ``base_seed ^ n``) ``NOISE_SLAB``
    steps at a time into one buffer, reused over slabs and chunks, and
    advances every job over a slab before it draws the next, so no chunk
    holds its whole horizon of noise.  Between slabs it keeps the paths'
    generators and each job's ``carry``, whose set-up is built on the
    chunk's first slab; a grid of one slab keeps neither.  Returns one
    metrics dict per job, in job order, with the chunks concatenated in path
    order.  The caller has checked the counts.
    """
    steps, = {tables.grid.steps for tables, _ in jobs}
    buffer = np.empty(min(NOISE_SLAB, steps) * 3 * min(chunk_size, n_paths))
    sliced = steps > NOISE_SLAB

    def run_chunk(paths):
        m = len(paths)
        streams = [] if sliced else None
        carries = [{} if sliced else None for _ in jobs]
        blown = np.zeros((len(jobs), m), dtype=bool)
        for k in range(0, steps, NOISE_SLAB):
            slab = min(NOISE_SLAB, steps - k)
            q0, eps = _draw_noise(base_seed, paths, slab, streams=streams,
                                  out=buffer[:slab * 3 * m].reshape(slab, 3, m))
            last = [_simulate_core(tables, config, eps, q0, record=False, carry=carry)[0]
                    for (tables, config), carry in zip(jobs, carries)]
            blown |= [metrics["blown"] for metrics in last]
        return [{**metrics, "blown": flags} for metrics, flags in zip(last, blown)]

    results = [run_chunk(range(lo, min(lo + chunk_size, n_paths)))
               for lo in range(0, n_paths, chunk_size)]
    return [{key: np.concatenate([out[j][key] for out in results], axis=-1)
             for key in results[0][j]}
            for j in range(len(jobs))]


def run_experiment(params: ModelParams, grid: TimeGrid, config: StrategyConfig,
                   n_paths: int, base_seed: int | None = None,
                   bundle: CoefficientBundle | None = None,
                   chunk_size: int = 2500, threads: int = 1):
    """Simulate the optimal strategy and all three benchmarks on coupled noise.

    Every chunk of paths runs once per strategy arm on the same Gaussian
    increments (seed ``base_seed ^ index``; ``base_seed`` replaces
    ``config.seed``).  ``bundle`` is built from ``params`` when not given,
    with the flow filter's tables only for a flow config; a given bundle
    must have been solved on ``grid``.  Returns an
    :class:`~brokergame.analytics.ExperimentReport` plus the raw per-path
    metric arrays keyed by arm name.  ``threads`` is accepted and ignored
    until the benchmark's workloads stop passing it.
    """
    from .analytics import build_experiment_report   # deferred: avoids module cycle

    if base_seed is not None:
        config = replace(config, seed=base_seed)
    _check_counts(n_paths=n_paths, chunk_size=chunk_size)
    if bundle is None:
        bundle = build_coefficients(params, grid, config.signal_source == "flow")
    elif bundle.trader.grid != grid:
        raise ValidationError(f"bundle solved on {bundle.trader.grid}, not on {grid}")
    tables = _Tables(params, params, bundle)
    jobs = [(tables, replace(config, broker_mode=arm)) for arm in BROKER_MODES]
    per_arm = dict(zip(BROKER_MODES, _run_jobs(jobs, config.seed, n_paths, chunk_size)))
    report = build_experiment_report(per_arm, params=params, model_params=params, config=config)
    return report, per_arm


def export_path_csv(result: PathResult, path_or_file, bands: dict | None = None) -> None:
    """Full state/control/estimate time series of one path; optional extra
    percentile-band columns (name -> array) appended on the right.

    The ``comp_*`` columns are ``result.components``: they sum to
    ``rate_broker`` except on benchmarks 1 and 3, whose rate adds
    ``rate_trader``."""
    header = ["t"] + list(RECORD_SERIES) + [
        "comp_inventory", "comp_signal", "comp_flow", "comp_qtrader",
    ]
    cols = [result.t] + [getattr(result, name) for name in RECORD_SERIES]
    cols += [result.components[:, j] for j in range(4)]
    if bands:
        for name in sorted(bands):
            header.append(name)
            cols.append(bands[name])
    write_columns_csv(path_or_file, header, cols)


def export_filter_csv(result: PathResult, trader: TraderCoefficients,
                      broker: BrokerCoefficients, flow: FlowFilterCoefficients | None,
                      path_or_file) -> None:
    """Estimator-focused per-path CSV including the deterministic variances."""
    n = result.grid.steps + 1
    var_alt = flow.var_alt.values if flow is not None else np.zeros(n)
    header = ["t", "signal", "alpha_hat_price", "alpha_hat_flow", "alpha_hat_naive",
              "rate_broker", "nu_hat", "var_nu", "var_alpha", "var_alt"]
    cols = [result.t, result.signal, result.alpha_hat_price, result.alpha_hat_flow,
            result.alpha_hat_naive, result.rate_broker, result.nu_hat,
            trader.var_nu.values, broker.var_alpha.values, var_alt]
    write_columns_csv(path_or_file, header, cols)
