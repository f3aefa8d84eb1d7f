import json
import os
import time

import numpy as np
import pytest

from brokergame import cli
from brokergame.cli import main


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture()
def small_ini(tmp_path):
    return _write(tmp_path / "small.ini",
                  "[grid]\nsteps = 120\n\n[experiment]\npaths = 12\nseed = 5\n")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_coeffs_outputs(tmp_path, small_ini):
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out), "coeffs"]) == 0
    for name in ("trader_coefficients.csv", "broker_coefficients.csv", "eigenvalues.csv"):
        assert (out / name).exists()
    lines = _read(out / "eigenvalues.csv").decode().strip().split("\n")
    assert lines[0] == "eig1,eig2,eig3,eig4"
    assert len(lines) == 1 + 121
    assert all(len(ln.split(",")) == 4 for ln in lines[1:])


def test_coeffs_zero_impact_f2_column(tmp_path):
    ini = _write(tmp_path / "p0.ini",
                 "[grid]\nsteps = 80\n\n[model]\nperm_impact = 0\n")
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "coeffs"]) == 0
    lines = _read(out / "trader_coefficients.csv").decode().strip().split("\n")
    cols = lines[0].split(",")
    j = cols.index("f2")
    assert all(float(ln.split(",")[j]) == 0.0 for ln in lines[1:])


def test_invalid_config_exit_code(tmp_path, capsys):
    ini = _write(tmp_path / "bad.ini", "[model]\nfee_informed = -2\n")
    assert main(["--config", ini, "coeffs"]) == 2
    assert "fee_informed" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    for section, key in (("model", "banana"), ("experiment", "threads")):
        ini = _write(tmp_path / "bad.ini", f"[{section}]\n{key} = 2\n")
        assert main(["--config", ini, "coeffs"]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    ini = _write(tmp_path / "huge.ini", "[grid]\nsteps = 80\n\n[model]\nperm_impact = 10\n")
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), "coeffs"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_coarse_grid_builds(tmp_path):
    ini = _write(tmp_path / "coarse.ini", "[grid]\nsteps = 20\n")
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), "coeffs"]) == 0


def test_diag(tmp_path, small_ini, capsys):
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out), "diag"]) == 0
    assert "clean" in capsys.readouterr().out
    assert (out / "eigenvalues.csv").exists()


def test_experiment_smoke_and_report(tmp_path, small_ini):
    out = tmp_path / "out"
    t0 = time.time()
    assert main(["--config", small_ini, "--out-dir", str(out), "experiment"]) == 0
    assert time.time() - t0 < 5.0
    doc = json.loads(_read(out / "report.json"))
    assert doc["n_paths"] == 12 and doc["base_seed"] == 5
    assert set(doc["benchmarks"]) == {"1", "2", "3"}
    csv_lines = _read(out / "report.csv").decode().strip().split("\n")
    assert csv_lines[0] == "i,mean,std,p"


def test_experiment_benchmark_filter(tmp_path, small_ini):
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out),
                 "--benchmark", "2", "experiment"]) == 0
    doc = json.loads(_read(out / "report.json"))
    assert set(doc["benchmarks"]) == {"2"}


def test_experiment_determinism(tmp_path, small_ini):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--config", small_ini, "--out-dir", str(out), "experiment"]) == 0
    assert _read(out1 / "report.json") == _read(out2 / "report.json")
    assert _read(out1 / "report.csv") == _read(out2 / "report.csv")


def test_path_determinism_and_filters_csv(tmp_path, small_ini):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--config", small_ini, "--out-dir", str(out), "path"]) == 0
    assert _read(out1 / "path.csv") == _read(out2 / "path.csv")
    assert _read(out1 / "filters.csv") == _read(out2 / "filters.csv")
    header = _read(out1 / "filters.csv").decode().split("\n")[0].split(",")
    assert header == ["t", "signal", "alpha_hat_price", "alpha_hat_flow",
                      "alpha_hat_naive", "rate_broker", "nu_hat", "var_nu",
                      "var_alpha", "var_alt"]


def test_path_band_mode(tmp_path):
    ini = _write(tmp_path / "band.ini", "[grid]\nsteps = 100\n")
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "--paths", "100", "path"]) == 0
    header = _read(out / "path.csv").decode().split("\n")[0].split(",")
    assert "p05_price" in header and "p95_price" in header
    assert "p05_q_broker" in header and "p95_q_broker" in header


def test_path_bands_count_blown_paths(tmp_path, small_ini, capsys, monkeypatch):
    # a blown band path is counted and fails the run with exit 3 after the
    # CSVs are written, like a blown single path; it is not a silent NaN band
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out), "--paths", "6", "path"]) == 0
    assert "blown band paths: 0 of 6" in capsys.readouterr().out
    real = cli.simulate_recorded

    def blown_batch(*args):
        metrics, rec = real(*args)
        metrics["blown"][[1, 4]] = True
        for series in rec.values():
            series[60:, [1, 4]] = np.nan
        return metrics, rec

    monkeypatch.setattr(cli, "simulate_recorded", blown_batch)
    (out / "path.csv").unlink()
    (out / "filters.csv").unlink()
    assert main(["--config", small_ini, "--out-dir", str(out), "--paths", "6", "path"]) == 3
    captured = capsys.readouterr()
    assert "blown band paths: 2 of 6" in captured.out
    assert "2 of 6 band paths produced a non-finite state" in captured.err
    assert (out / "path.csv").is_file() and (out / "filters.csv").is_file()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # inf - inf in a band
def test_path_bands_equal_one_percentile_call_per_band(tmp_path, small_ini, monkeypatch):
    # the 5th and 95th percentile bands, formed in one call per series, equal
    # the two calls of one band each bit for bit, on rows holding NaN and inf
    real, seen = cli.simulate_recorded, {}

    def batch_with_gaps(*args):
        metrics, rec = real(*args)
        rec["price"][10, 2] = np.nan
        rec["flow"][20, [0, 3]] = np.inf
        rec["q_broker"][30, 1] = -np.inf
        rec["signal"][40, [1, 4]] = [np.inf, -np.inf]
        seen["rec"] = rec
        return metrics, rec

    monkeypatch.setattr(cli, "simulate_recorded", batch_with_gaps)
    monkeypatch.setattr(cli, "export_path_csv",
                        lambda result, path, bands=None: seen.update(bands=bands))
    assert main(["--config", small_ini, "--out-dir", str(tmp_path), "--paths", "6",
                 "path"]) == 0
    rec, bands = seen["rec"], seen["bands"]
    assert set(bands) == {f"p{q}_{name}" for q in ("05", "95") for name in rec}
    for name, series in rec.items():
        for q in (5.0, 95.0):
            expect = np.percentile(series, q, axis=1)
            assert np.array_equal(bands[f"p{q:02.0f}_{name}"], expect, equal_nan=True), name
    assert np.isnan(bands["p05_price"][10]) and not np.isfinite(bands["p95_flow"][20])


@pytest.mark.parametrize("paths", ["0", "-3"])
def test_path_rejects_band_counts_below_one(tmp_path, capsys, paths):
    # as experiment does: no band count below 1 passes for "no bands"
    ini = _write(tmp_path / "band.ini", "[grid]\nsteps = 50\n")
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "--paths", paths, "path"]) == 2
    assert f"--paths ({paths}) must be >= 1" in capsys.readouterr().err
    assert not (out / "path.csv").exists()


def test_path_one_band_path_is_a_single_path(tmp_path, capsys):
    ini = _write(tmp_path / "band.ini", "[grid]\nsteps = 50\n")
    one, plain = tmp_path / "one", tmp_path / "plain"
    assert main(["--config", ini, "--out-dir", str(one), "--paths", "1", "path"]) == 0
    assert "blown band paths" not in capsys.readouterr().out
    assert main(["--config", ini, "--out-dir", str(plain), "path"]) == 0
    assert _read(one / "path.csv") == _read(plain / "path.csv")
    assert "p05_price" not in _read(one / "path.csv").decode().split("\n")[0]


def test_path_components_sum(tmp_path, small_ini):
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out), "path"]) == 0
    lines = _read(out / "path.csv").decode().strip().split("\n")
    cols = lines[0].split(",")
    idx = {name: cols.index(name) for name in
           ("rate_broker", "comp_inventory", "comp_signal", "comp_flow", "comp_qtrader")}
    for ln in lines[1:]:
        row = [float(v) for v in ln.split(",")]
        total = sum(row[idx[c]] for c in
                    ("comp_inventory", "comp_signal", "comp_flow", "comp_qtrader"))
        assert abs(total - row[idx["rate_broker"]]) < 1e-12


def test_csv_round_trip_byte_identical(tmp_path, small_ini):
    from brokergame.odes import write_columns_csv
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out), "coeffs"]) == 0
    raw = _read(out / "trader_coefficients.csv").decode()
    lines = raw.strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    import io
    buf = io.StringIO()
    write_columns_csv(buf, header, [data[:, j] for j in range(data.shape[1])])
    assert buf.getvalue() == raw


def test_stress_smoke(tmp_path):
    ini = _write(tmp_path / "t.ini",
                 "[grid]\nsteps = 200\n\n[experiment]\npaths = 6\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "stress"]) == 0
    doc = json.loads(_read(out / "stress.json"))
    assert len(doc["cells"]) == 8
    lines = _read(out / "stress.csv").decode().strip().split("\n")
    assert len(lines) == 1 + 3 * 9


@pytest.mark.parametrize("command", ["experiment", "stress"])
def test_zero_chunk_rejected(tmp_path, capsys, command):
    ini = _write(tmp_path / "chunk.ini",
                 "[grid]\nsteps = 50\n\n[experiment]\npaths = 3\nchunk = 0\n")
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), command]) == 2
    assert "chunk_size (0)" in capsys.readouterr().err


def test_negative_seed_exit_code(tmp_path, small_ini, capsys):
    assert main(["--config", small_ini, "--out-dir", str(tmp_path / "o"), "--seed", "-3",
                 "experiment"]) == 2
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


def test_flag_overrides(tmp_path, small_ini):
    out = tmp_path / "out"
    assert main(["--config", small_ini, "--out-dir", str(out), "--paths", "7",
                 "--seed", "11", "--mode", "flow", "experiment"]) == 0
    doc = json.loads(_read(out / "report.json"))
    assert doc["n_paths"] == 7 and doc["base_seed"] == 11 and doc["mode"] == "flow"


def test_c_belief_flag_sets_model_field(tmp_path, capsys):
    # the broker's belief has one home, ModelParams.c_belief: the INI key and
    # the flag give byte-identical reports that record the value
    base = "[grid]\nsteps = 50\n\n[experiment]\npaths = 20\nseed = 8\n"
    ini = _write(tmp_path / "model.ini", base + "\n[model]\nc_belief = 0\n")
    plain = _write(tmp_path / "plain.ini", base)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", ini, "--out-dir", str(a), "experiment"]) == 0
    assert main(["--config", plain, "--out-dir", str(b), "--c-belief", "0",
                 "experiment"]) == 0
    assert _read(a / "report.json") == _read(b / "report.json")
    assert json.loads(_read(a / "report.json"))["c_belief"] == 0.0
    assert b'"c_belief": 0.0' in _read(a / "report.json")
    old = _write(tmp_path / "old.ini", base + "\n[strategy]\nc_belief = 0\n")
    assert main(["--config", old, "experiment"]) == 2
    assert "c_belief" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeffs", "diag", "path", "experiment", "stress"])
@pytest.mark.parametrize("ini, flags, field", [
    ("[strategy]\nsignal_source = bogus\n", [], "signal_source"),
    ("[strategy]\nunwind_tail = -1\n", [], "unwind_tail"),
    ("[strategy]\nmispecify_qi = maybe\n", [], "mispecify_qi"),
    ("", ["--seed", "-3"], "seed"),
])
def test_every_setting_is_checked_for_every_command(tmp_path, capsys, command, ini, flags,
                                                    field):
    # the config is checked when it loads, before any command runs
    path = _write(tmp_path / "bad.ini", "[grid]\nsteps = 50\n\n" + ini)
    out = tmp_path / "out"
    assert main(["--config", path, "--out-dir", str(out), *flags, command]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, csvs", [
    ("coeffs", ("trader_coefficients.csv", "broker_coefficients.csv", "eigenvalues.csv")),
    ("diag", ("eigenvalues.csv",))])
def test_coefficient_commands_run_without_noise(tmp_path, command, csvs):
    # neither command writes the flow filter's tables, which need price noise
    ini = _write(tmp_path / "quiet.ini", "[grid]\nsteps = 80\n\n[model]\nsigma_price = 0\n"
                 "sigma_signal = 0\nsigma_speed = 0\n")
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), command]) == 0
    for name in csvs:
        assert len(_read(out / name).decode().strip().split("\n")) == 1 + 81
