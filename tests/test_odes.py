import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brokergame as bg
from brokergame.errors import IntegrationBlowupError, TableRangeError
from brokergame.odes import StageLattice, write_columns_csv

from oracles import riccati_constant_solution


def test_grid_nodes_exact():
    g = bg.TimeGrid(1.0, 1000)
    t = g.times
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    assert len(t) == 1001


def test_grid_validation():
    with pytest.raises(bg.ValidationError):
        bg.TimeGrid(1.0, 1)
    with pytest.raises(bg.ValidationError):
        bg.TimeGrid(-1.0, 100)


@pytest.mark.parametrize("steps", [50.0, 2.5, True, "50", None])
def test_grid_rejects_a_step_count_that_is_no_integer(steps):
    # a typed error at construction, not numpy's TypeError on first use
    with pytest.raises(bg.ValidationError, match="steps must be an integer"):
        bg.TimeGrid(1.0, steps)


def test_grid_stores_a_numpy_step_count_as_an_int():
    g = bg.TimeGrid(1.0, np.int64(50))
    assert type(g.steps) is int and g == bg.TimeGrid(1.0, 50)
    assert np.array_equal(g.times, bg.TimeGrid(1.0, 50).times)


def test_rk4_zero_field_constant():
    g = bg.TimeGrid(2.0, 50)
    tab = bg.rk4_integrate(lambda i, y: 0.0 * y, np.asarray(3.5), StageLattice(g))
    assert np.all(tab.values == 3.5)


def test_rk4_backward_linear_field_exact():
    g = bg.TimeGrid(1.0, 100)
    tab = bg.rk4_integrate(lambda i, y: -1.0 + 0.0 * y, np.asarray(0.0),
                           StageLattice(g, direction="backward"))
    assert np.allclose(tab.values, g.horizon - g.times, rtol=0, atol=1e-14)


def test_rk4_exponential():
    g = bg.TimeGrid(1.0, 1000)
    tab = bg.rk4_integrate(lambda i, y: y, np.asarray(1.0), StageLattice(g))
    assert abs(tab.at_index(1000) - math.e) < 1e-10


def test_rk4_fourth_order_convergence():
    # coarse grids keep truncation well above round-off
    errs = []
    for n in (20, 40):
        g = bg.TimeGrid(1.0, n)
        tab = bg.rk4_integrate(lambda i, y: y, np.asarray(1.0), StageLattice(g))
        errs.append(np.abs(tab.values - np.exp(g.times)).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_rk4_blowup_names_time():
    g = bg.TimeGrid(1.0, 100)
    with pytest.raises(IntegrationBlowupError, match="t="):
        bg.rk4_integrate(lambda i, y: y * y, np.asarray(3.0), StageLattice(g))


def test_stacked_blowup_names_the_first_non_finite_member():
    # y' = y^2 has its pole at t = 1 / y(0): beyond the horizon from 0.5,
    # at t = 1/3 from 3, so only member 1 blows up, on an array state and
    # on a list state (marched as a list of floats) alike
    g = bg.TimeGrid(1.0, 100)
    for boundary, rhs in ((np.array([0.5, 3.0]), lambda i, y: y * y),
                          ([0.5, 3.0], lambda i, y: [v * v for v in y])):
        with pytest.raises(IntegrationBlowupError, match="'pair' produced a non-finite value "
                                                         "in member 1 at t=") as info:
            bg.rk4_integrate(rhs, boundary, StageLattice(g), name="pair")
        assert info.value.member == 1


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("substeps", [1, 4])
def test_scalar_riccati_float_march_equals_array_march(direction, substeps):
    # a scalar state is marched as a Python float, which rounds as numpy
    # does: the same Riccati on a shape-(1,) array state gives the same bytes
    g = bg.TimeGrid(1.0, 120)
    lattice = StageLattice(g, substeps=substeps, direction=direction)
    quad = bg.DeterministicTable("quad", g, -0.7 - 0.2 * np.cos(5.0 * g.times))
    const = bg.DeterministicTable("const", g, 1.0 + 0.5 * np.sin(3.0 * g.times))
    lin, y0 = -1.9, 0.3
    tab = bg.solve_scalar_riccati(quad, lin, const, y0, lattice)
    sign = 1.0 if direction == "forward" else -1.0
    q, c = sign * quad(lattice.times), sign * const(lattice.times)
    l = sign * np.full(lattice.times.shape, lin)
    ref = bg.rk4_integrate(lambda i, y: c[i] + l[i] * y + q[i] * y * y, np.array([y0]),
                           lattice)
    assert tab.values.shape == (g.steps + 1,)
    assert tab.values.tobytes() == ref.values[:, 0].tobytes()


def test_scalar_riccati_reads_arrays_on_its_lattice():
    # an array already on the stage lattice is read as it is; one of any
    # other length is rejected rather than misaligned
    g = bg.TimeGrid(1.0, 120)
    lattice = StageLattice(g, substeps=2)
    quad = bg.DeterministicTable("quad", g, -0.7 - 0.2 * np.cos(5.0 * g.times))
    tab = bg.solve_scalar_riccati(quad, -1.9, 1.0, 0.3, lattice)
    same = bg.solve_scalar_riccati(quad(lattice.times), -1.9, 1.0, 0.3, lattice)
    assert same.values.tobytes() == tab.values.tobytes()
    for wrong in (quad.values, quad(lattice.times)[:-1]):
        with pytest.raises(bg.ValidationError, match="stage lattice"):
            bg.solve_scalar_riccati(wrong, -1.9, 1.0, 0.3, lattice)


def test_float_march_blowup_raises_the_typed_error():
    # Python floats overflow to inf without a warning or an OverflowError;
    # the march still stops at the first non-finite grid node and names it
    g = bg.TimeGrid(1.0, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrationBlowupError, match="'pole' produced") as info:
            bg.solve_scalar_riccati(1.0, 0.0, 0.0, 3.0, StageLattice(g, substeps=4),
                                    name="pole")
    # y' = y^2 from y(0) = 3 has its pole at t = 1/3
    t = float(str(info.value).split("t=")[1])
    assert 1.0 / 3.0 < t < 0.5


def test_riccati_steady_state():
    # y' = b^2 - 2 theta y - p y^2 from 0 settles at the positive root
    b, theta, pq = 60.0, 10.0, 1e-6
    g = bg.TimeGrid(1.0, 1000)
    tab = bg.solve_scalar_riccati(-pq, -2.0 * theta, b * b, 0.0, StageLattice(g))
    target = (-theta + math.sqrt(theta * theta + pq * b * b)) / pq
    assert abs(tab.at_index(1000) - target) / target < 1e-3
    assert abs(target - 179.99838) < 1e-3


def test_riccati_degenerate_quadratic_matches_linear():
    g = bg.TimeGrid(1.0, 400)
    lin, const = -1.3, 0.7
    lattice = StageLattice(g)
    tab = bg.solve_scalar_riccati(0.0, lin, const, 0.2, lattice)
    ref = bg.rk4_integrate(lambda i, y: const + lin * y, np.asarray(0.2), lattice)
    assert np.abs(tab.values - ref.values).max() < 1e-12


def test_riccati_oracle_satisfies_ode():
    # independent validation of the closed form used as an oracle
    q, l, c, y0 = -0.8, -2.0, 1.5, 0.1
    t = np.linspace(0.05, 0.95, 9)
    h = 1e-6
    num = (riccati_constant_solution(q, l, c, y0, t + h)
           - riccati_constant_solution(q, l, c, y0, t - h)) / (2 * h)
    y = riccati_constant_solution(q, l, c, y0, t)
    assert np.abs(num - (c + l * y + q * y * y)).max() < 1e-7


def test_riccati_constant_random_draws_match_oracle():
    rng = np.random.default_rng(31)
    g = bg.TimeGrid(1.0, 1000)
    lattice = StageLattice(g)
    worst = 0.0
    for _ in range(10):
        q = -rng.uniform(0.1, 2.0)
        l = -rng.uniform(0.5, 3.0)
        c = rng.uniform(0.5, 3.0)
        y0 = rng.uniform(0.0, 0.5)
        tab = bg.solve_scalar_riccati(q, l, c, y0, lattice)
        worst = max(worst, np.abs(tab.values
                                  - riccati_constant_solution(q, l, c, y0, g.times)).max())
    assert worst < 1e-8


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(0.5, 6.0), c=st.floats(-1.0, 1.0),
       y1=st.floats(-2.0, 2.0))
def test_backward_then_forward_consistency(a, b, c, y1):
    g = bg.TimeGrid(1.0, 1000)
    backward, forward = StageLattice(g, direction="backward"), StageLattice(g)
    rhs_on = lambda lattice: lambda i, y: a * math.sin(b * lattice.times[i]) * y + c
    back = bg.rk4_integrate(rhs_on(backward), np.asarray(y1), backward)
    fwd = bg.rk4_integrate(rhs_on(forward), np.asarray(back.at_index(0)), forward)
    assert abs(fwd.at_index(g.steps) - y1) < 1e-8


def test_table_interpolation_and_range():
    g = bg.TimeGrid(1.0, 10)
    tab = bg.DeterministicTable("lin", g, g.times * 2.0)
    assert abs(tab(0.55) - 1.1) < 1e-14   # linear data interpolates exactly
    assert tab(0.0) == 0.0 and tab(1.0) == 2.0
    with pytest.raises(TableRangeError):
        tab(1.5)
    with pytest.raises(TableRangeError):
        tab(-0.2)


def test_table_matrix_values_interpolate():
    g = bg.TimeGrid(1.0, 4)
    vals = np.stack([np.eye(2) * k for k in range(5)])
    tab = bg.DeterministicTable("m", g, vals)
    mid = tab(0.375)   # halfway between nodes 1 and 2
    assert np.allclose(mid, np.eye(2) * 1.5)


def test_table_csv_round_trip():
    g = bg.TimeGrid(1.0, 5)
    tab = bg.DeterministicTable("x", g, np.pi * g.times)
    buf = io.StringIO()
    write_columns_csv(buf, ["t", "value"], [g.times, tab.values])
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "t,value"
    parsed = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    buf2 = io.StringIO()
    write_columns_csv(buf2, ["t", "value"],
                      [[r[0] for r in parsed], [r[1] for r in parsed]])
    assert buf2.getvalue() == text


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("substeps", [1, 2, 4])
@pytest.mark.parametrize("horizon, steps", [(1.0, 50), (2.5, 37)])
def test_stage_lattice_matches_scalar_evaluation(direction, substeps, horizon, steps):
    g = bg.TimeGrid(horizon, steps)
    t = g.times
    scalar = bg.DeterministicTable("s", g, 2.0 + np.sin(1.3 * t) + 0.1 * t * t)
    matrix = bg.DeterministicTable(
        "m", g, 3.0 + np.cos(np.multiply.outer(t, np.arange(1.0, 17.0)) / 7.0).reshape(-1, 4, 4))
    lattice = StageLattice(g, substeps, direction)
    seen = []
    bg.rk4_integrate(lambda i, y: seen.append(i) or 0.0 * y, 0.0, lattice)

    # march order: step k, substep j, stages at offsets 0, 1, 1, 2 half-substeps
    sign = 1 if direction == "forward" else -1
    ks = range(steps) if direction == "forward" else range(steps, 0, -1)
    expected = [2 * substeps * k + sign * (2 * j + off)
                for k in ks for j in range(substeps) for off in (0, 1, 1, 2)]
    assert lattice.times.shape == (2 * substeps * steps + 1,)
    assert np.all(np.diff(lattice.times) > 0.0)
    assert seen == expected

    # the stage times RK4 forms from the step start: start, +h/2, +h/2, +h
    sub = sign * g.dt / substeps
    stage_times = [t[k] + j * sub + frac * sub
                   for k in ks for j in range(substeps) for frac in (0.0, 0.5, 0.5, 1.0)]
    for tab in (scalar, matrix):
        on_lattice = tab(lattice.times)
        for n, (s, i) in enumerate(zip(stage_times, seen)):
            exact = np.asarray(tab(s))
            assert np.all(np.abs(on_lattice[i] - exact) <= 4.0 * np.spacing(np.abs(exact)))
            if n % 4 != 3:   # the first three stages run at the lattice time itself
                assert s == lattice.times[i]


def test_stage_lattice_validation():
    g = bg.TimeGrid(1.0, 10)
    with pytest.raises(bg.ValidationError, match="direction"):
        StageLattice(g, direction="sideways")
    for substeps in (0, -1, 1.5):
        with pytest.raises(bg.ValidationError, match="substeps"):
            StageLattice(g, substeps=substeps)


def test_coefficient_tables_second_order_in_dt(params):
    # tabled inputs are interpolated linearly between nodes, so halving dt
    # quarters the change of every table (RK4 alone would give 16)
    builds = [bg.build_coefficients(params, bg.TimeGrid(1.0, n)) for n in (500, 1000, 2000)]
    tables = {
        "f1": lambda b: b.trader.f1, "f2": lambda b: b.trader.f2, "f3": lambda b: b.trader.f3,
        "gains": lambda b: b.broker.gains, "g0": lambda b: b.broker.g0,
        "var_alt": lambda b: b.flow.var_alt, "g2": lambda b: b.broker.g2,
    }
    for name, get in tables.items():
        at = [np.array([get(b).at_index(round(b.trader.grid.steps * t))
                        for t in (0.0, 0.25, 0.5, 0.75)]) for b in builds]
        ratio = np.abs(at[0] - at[1]).max() / np.abs(at[1] - at[2]).max()
        assert 3.5 < ratio < 4.5, (name, ratio)
