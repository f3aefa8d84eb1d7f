"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: module-level callables are
replaced by timing wrappers in every ``brokergame`` module that binds them,
which is where their callers look them up, and the originals are put back
after each traced repetition.  ``DeterministicTable.__call__`` is only
counted, never given a span, because it runs about 100,000 times per build.

A span records its name, parent, wall interval and the CPU time of its own
thread.  Spans opened on a worker thread with nothing open on that thread
take the innermost open span of the main thread as parent (the call that
submitted the work).  A span's self time is its duration minus the part of
its interval covered by child spans.  ``odes`` primitives (``rk4_integrate``,
``write_columns_csv``) are timers: they get spans of their own but stay
inside their caller's self time, so ``broker.solve_broker_s`` still holds
the full 4x4 solve, as each solver's time should.

A hook whose target no longer exists is skipped and its metrics are left out
of the result instead of failing the run, so refactors of the package do not
break the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name, timer)
HOOKS = (
    ("brokergame.sim", "build_coefficients", "sim.build_coefficients_s", False),
    ("brokergame.sim", "run_experiment", "sim.run_experiment", False),
    ("brokergame.sim", "simulate_recorded", "sim.simulate_recorded", False),
    ("brokergame.sim", "_draw_noise", "sim.draw_noise_s", False),
    ("brokergame.sim", "_simulate_core", None, False),   # named per call
    ("brokergame.trader", "solve_trader", "trader.solve_trader_s", False),
    ("brokergame.filters", "flow_filter_coefficients",
     "filters.flow_filter_coefficients_s", False),
    ("brokergame.broker", "solve_broker", "broker.solve_broker_s", False),
    ("brokergame.broker", "solve_price_filter_variance",
     "broker.solve_price_filter_variance_s", False),
    ("brokergame.broker", "solve_reduced_riccati", "broker.solve_reduced_riccati_s", False),
    ("brokergame.broker", "existence_diagnostic", "broker.existence_diagnostic_s", False),
    ("brokergame.analytics", "build_experiment_report",
     "analytics.build_experiment_report_s", False),
    ("brokergame.analytics", "report_to_json", "analytics.report_to_json_s", False),
    ("brokergame.analytics", "stress_to_json", "analytics.stress_to_json_s", False),
    ("brokergame.odes", "rk4_integrate", "odes.rk4_integrate_s", True),
    ("brokergame.odes", "write_columns_csv", "odes.write_columns_csv_s", True),
)

ARMS = ("optimal", "benchmark1", "benchmark2", "benchmark3")
STEP_LOOP_SPANS = tuple(f"sim.step_loop_s.{arm}" for arm in ARMS) + ("sim.step_loop_record_s",)
# Monte Carlo calls whose worker time forms sim.parallel_efficiency
MC_SPANS = ("sim.run_experiment", "sim.simulate_recorded")
# coefficient work run_experiment may do itself; not part of its Monte Carlo wall
BUILD_SPANS = ("sim.build_coefficients_s", "trader.solve_trader_s")

SELF_TIME_METRICS = (
    "odes.rk4_integrate_s", "odes.write_columns_csv_s",
    "trader.solve_trader_s", "filters.flow_filter_coefficients_s",
    "broker.solve_price_filter_variance_s", "broker.solve_reduced_riccati_s",
    "broker.existence_diagnostic_s", "broker.solve_broker_s",
    "sim.draw_noise_s", *STEP_LOOP_SPANS,
    "analytics.build_experiment_report_s", "analytics.report_to_json_s",
    "analytics.stress_to_json_s",
)
# metric -> span whose hook must exist for it to be reported
REQUIRES = {
    "odes.rk4_integrate_calls": "odes.rk4_integrate_s",
    "odes.csv_bytes": "odes.write_columns_csv_s",
    "sim.path_steps": "sim.step_loop",
    "sim.blown_path_arms": "sim.step_loop",
    "sim.parallel_efficiency": "sim.step_loop",
    **{name: "sim.step_loop" for name in STEP_LOOP_SPANS},
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    timer: bool
    t0: float
    t1: float = 0.0
    cpu: float = 0.0
    tags: dict = field(default_factory=dict)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Installs the hooks, collects spans and counts, and restores the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.health: dict[str, float] = {}
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.reset()

    # -- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self.counts = {"odes.table_calls": 0, "odes.rk4_integrate_calls": 0,
                       "odes.csv_bytes": 0, "sim.path_steps": 0,
                       "sim.blown_path_arms": 0}
        self.health = {"max_inventory_gap": 0.0, "max_cash_gap": 0.0}

    def _count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, timer: bool = False, **tags):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and ident != self._main else None
        sp = Span(next(self._ids), parent, name, timer, 0.0, tags=tags)
        stack.append(sp.sid)
        cpu0 = time.thread_time()
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            sp.cpu = time.thread_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    # -- installing hooks --------------------------------------------------
    def _bind_everywhere(self, original, replacement) -> None:
        """Replace every binding of ``original`` in the brokergame modules."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "brokergame" or modname.startswith("brokergame.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _make_wrapper(self, fn, span_name: str | None, timer: bool):
        tracer = self
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        if span_name is None:            # _simulate_core: one span per arm
            @functools.wraps(fn)
            def step_loop(*args, **kwargs):
                try:
                    a = bound(args, kwargs)
                    label = ("sim.step_loop_record_s" if a["record"]
                             else f"sim.step_loop_s.{a['config'].broker_mode}")
                    path_steps = int(a["eps"].shape[0]) * int(a["eps"].shape[1])
                except (TypeError, KeyError, AttributeError, IndexError):
                    # the step loop changed shape: its metrics become absent
                    tracer.broken.add("sim.step_loop")
                    return fn(*args, **kwargs)
                with tracer.span(label):
                    out = fn(*args, **kwargs)
                metrics = out[0]
                tracer._count("sim.path_steps", path_steps)
                tracer._count("sim.blown_path_arms", int(metrics["blown"].sum()))
                with tracer._lock:
                    h = tracer.health
                    h["max_inventory_gap"] = max(h["max_inventory_gap"],
                                                 float(metrics["max_inventory_gap"].max()))
                    h["max_cash_gap"] = max(h["max_cash_gap"],
                                            float(metrics["max_cash_gap"].max()))
                return out
            return step_loop

        if span_name == "sim.run_experiment":
            @functools.wraps(fn)
            def run_experiment(*args, **kwargs):
                # workers that actually run: one chunk runs serially, without the pool
                a = bound(args, kwargs)
                threads = a.get("threads") or 1
                try:
                    chunks = math.ceil(int(a["n_paths"]) / max(1, int(a["chunk_size"])))
                except (KeyError, TypeError, ValueError):
                    chunks = threads
                workers = min(threads, chunks) if threads > 1 and chunks > 1 else 1
                with tracer.span(span_name, threads=workers):
                    return fn(*args, **kwargs)
            return run_experiment

        if span_name == "odes.write_columns_csv_s":
            @functools.wraps(fn)
            def write_csv(*args, **kwargs):
                target = bound(args, kwargs).get("path_or_file")
                with tracer.span(span_name, timer=True):
                    out = fn(*args, **kwargs)
                if isinstance(target, (str, os.PathLike)):
                    tracer._count("odes.csv_bytes", os.path.getsize(target))
                return out
            return write_csv

        counter = "odes.rk4_integrate_calls" if span_name == "odes.rk4_integrate_s" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer._count(counter)
            with tracer.span(span_name, timer=timer):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        self.installed = set()
        self.absent = []
        for modname, attr, span_name, timer in HOOKS:
            label = span_name or "sim.step_loop"
            fn = getattr(sys.modules.get(modname), attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._bind_everywhere(fn, self._make_wrapper(fn, span_name, timer))
            self.installed.add(label)
        table = getattr(sys.modules.get("brokergame.odes"), "DeterministicTable", None)
        call = getattr(table, "__call__", None) if table is not None else None
        if call is None or "__call__" not in vars(table):
            self.absent.append("brokergame.odes.DeterministicTable.__call__")
            return
        tracer = self

        @functools.wraps(call)
        def counted(self_, t):
            tracer.counts["odes.table_calls"] += 1   # coefficient builds run on one thread
            return call(self_, t)

        self._patches.append((table, "__call__", call))
        table.__call__ = counted
        self.installed.add("odes.table_calls")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def hooks(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reducing spans to metrics ----------------------------------------
    def metrics(self, root: Span | None = None) -> dict:
        """Per-layer values of the spans and counts recorded since ``reset``.

        With ``root`` (the repetition span) also returns the share of its
        wall time covered by its direct children as ``trace.coverage``.
        """
        children: dict[int, list[Span]] = {}
        by_id = {sp.sid: sp for sp in self.spans}
        for sp in self.spans:
            children.setdefault(sp.parent, []).append(sp)

        def self_time(sp: Span) -> float:
            kids = [(c.t0, c.t1) for c in children.get(sp.sid, ()) if not c.timer]
            return (sp.t1 - sp.t0) - _union_length(kids)

        out: dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS}
        out["sim.build_coefficients_s"] = 0.0     # inclusive: the whole build
        for sp in self.spans:
            if sp.name == "sim.build_coefficients_s":
                out[sp.name] += sp.t1 - sp.t0
            elif sp.name in out:
                out[sp.name] += self_time(sp)
        out.update(self.counts)

        def mc_ancestor(sp: Span):
            p = by_id.get(sp.parent)
            while p is not None and p.name not in MC_SPANS:
                p = by_id.get(p.parent)
            return p

        busy = 0.0
        for sp in self.spans:
            if (sp.name == "sim.draw_noise_s" or sp.name in STEP_LOOP_SPANS) and mc_ancestor(sp):
                busy += sp.cpu
        capacity = 0.0
        for sp in self.spans:
            if sp.name in MC_SPANS:
                builds = [(c.t0, c.t1) for c in children.get(sp.sid, ()) if c.name in BUILD_SPANS]
                capacity += sp.tags.get("threads", 1) * ((sp.t1 - sp.t0) - _union_length(builds))
        out["sim.parallel_efficiency"] = busy / capacity if capacity > 0.0 else 0.0

        if root is not None:
            wall = root.t1 - root.t0
            kids = [(c.t0, c.t1) for c in children.get(root.sid, ())]
            out["trace.coverage"] = _union_length(kids) / wall
        return {k: v for k, v in out.items() if self.reports(k)}

    def reports(self, metric: str) -> bool:
        """Whether the hook behind ``metric`` was installed and understood its calls."""
        if metric.startswith("trace."):
            return True
        hook = REQUIRES.get(metric, metric)
        return hook in self.installed and hook not in self.broken
