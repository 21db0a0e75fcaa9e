import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ioqfr
from ioqfr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_steady_rf(capsys):
    code, out, _ = run(capsys, "steady", "--model", "rf",
                       "--param", "Omega=1", "--param", "kappa=1")
    assert code == 0
    report = json.loads(out)
    assert abs(report["excited_population"] - 1.0 / 3.0) <= 1e-10
    assert abs(report["gap"] - 0.5) <= 1e-10
    assert report["residual"] <= 1e-10
    assert len(report["model_hash"]) == 64
    rho = np.array(report["rho_re"]) + 1j * np.array(report["rho_im"])
    assert abs(np.trace(rho) - 1.0) <= 1e-12


def test_steady_kerr_photon_number(capsys):
    code, out, _ = run(capsys, "steady", "--model", "kerr_cat")
    assert code == 0
    report = json.loads(out)
    assert abs(report["photon_number"] - 0.9342429617795038) <= 1e-9


def test_steady_classical_config(tmp_path, capsys):
    config = tmp_path / "classical.json"
    config.write_text(json.dumps({
        "model": "classical_jump",
        "rates": [[0.0, 2.0], [1.0, 0.0]],
        "weights": [[[0.0, 1.0], [1.0, 0.0]]],
    }))
    code, out, _ = run(capsys, "steady", "--model", str(config))
    assert code == 0
    populations = json.loads(out)["populations"]
    np.testing.assert_allclose(populations, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_sweep_csv_round_trip(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--model", "rf", "--n", "5",
                     "--wmax", "2", "--out", str(out_path))
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert list(rows[0]) == ["omega", "S", "Re_R_0", "Im_R_0", "r_0",
                             "lambda_max", "margin_min", "pass"]
    first = rows[0]
    assert float(first["omega"]) == 0.0
    assert abs(float(first["S"]) - 17.0 / 9.0) <= 1e-12
    assert abs(float(first["Re_R_0"]) + 5.0 / 9.0) <= 1e-12
    assert abs(float(first["r_0"]) - 25.0 / 51.0) <= 1e-12
    assert all(row["pass"] == "1" for row in rows)


def test_sweep_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(capsys, "sweep", "--model", "kerr_cat", "--n", "7",
                         "--wmin", "-2", "--wmax", "2", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert b"\r" not in paths[0].read_bytes()


def test_sweep_ignores_ioqfr_threads(monkeypatch, capsys):
    # sweep has no thread pool, so no value of this variable is read
    argv = ("sweep", "--model", "kerr_cat", "--n", "7")
    monkeypatch.delenv("IOQFR_THREADS", raising=False)
    code, unset, _ = run(capsys, *argv)
    assert code == 0
    for value in ("1", "2", "abc"):
        monkeypatch.setenv("IOQFR_THREADS", value)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), value
        assert out == unset, value


def test_sweep_multi_theta_header(capsys):
    code, out, _ = run(capsys, "sweep", "--model", "rf", "--n", "2",
                       "--wmax", "1", "--theta", "0.3", "--theta", "0.9")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[0] == "omega"
    assert "S_th0" in header and "S_th1" in header
    assert "pass_th0" in header and "pass_th1" in header


def test_sweep_json_mode(capsys):
    code, out, _ = run(capsys, "sweep", "--model", "rf", "--n", "3",
                       "--wmax", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "omega"
    assert len(payload["rows"]) == 3


def test_custom_config_matches_builtin(tmp_path, capsys):
    config = tmp_path / "qubit.json"
    config.write_text(json.dumps({
        "model": "custom",
        "dim": 2,
        "hamiltonian": [{"row": 0, "col": 1, "re": 0.5},
                        {"row": 1, "col": 0, "re": 0.5}],
        "channels": [[{"row": 1, "col": 0, "re": 1.0}]],
        "monitored": [[0, np.pi / 2]],
        "signal": {"mode": "kinetic", "coefficients": [[1.0]]},
    }))
    code, out_custom, _ = run(capsys, "sweep", "--model", str(config),
                              "--n", "3", "--wmax", "1")
    assert code == 0
    code, out_builtin, _ = run(capsys, "sweep", "--model", "rf",
                               "--n", "3", "--wmax", "1")
    assert code == 0
    assert out_custom == out_builtin


def test_bound_report_kerr(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "bound-report", "--model", "kerr_cat",
                     "--wmin", "-3", "--wmax", "3", "--n", "11",
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["all_passed"]
    assert max(report["lambda_max"]) < 1.0
    assert "directional_min" not in report
    assert "seed" not in report["metadata"]
    assert "n_random_directions" not in report["metadata"]


@pytest.mark.parametrize("grid, message", [
    (("--wmin", "nan"), "error: --wmin='nan' is not finite"),
    (("--wmax", "inf"), "error: --wmax='inf' is not finite"),
    (("--wmin=-1e308", "--wmax=1e308"), "overflows"),
], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("command, model", [
    ("sweep", "rf"), ("bound-report", "rf"), ("bound-report", "cavity"),
])
def test_non_finite_grid_exits_1(capsys, recwarn, command, model, grid, message):
    code, out, err = run(capsys, command, "--model", model, *grid)
    assert (code, out) == (1, "")
    assert message in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["steady", "bound-report"])
def test_one_phase_outside_sweep(tmp_path, capsys, command):
    config = tmp_path / "rf.json"
    config.write_text(json.dumps({"model": "rf", "theta": [0.3, 0.9]}))
    for argv in (("--model", "rf", "--theta", "0.3", "--theta", "0.9"),
                 ("--model", str(config))):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (1, ""), argv
        assert "only sweep repeats --theta" in err, argv
    code, _, _ = run(capsys, command, "--model", "rf", "--theta", "0.3")
    assert code == 0


def test_bound_report_cavity(capsys):
    code, out, _ = run(capsys, "bound-report", "--model", "cavity",
                       "--param", "kappa=2", "--n", "9")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "coherent_ceiling"
    np.testing.assert_allclose(report["ratios"], 4.0, atol=1e-12)


def _custom_qubit(**overrides) -> dict:
    config = {
        "model": "custom", "dim": 2,
        "hamiltonian": [{"row": 0, "col": 1, "re": 0.5},
                        {"row": 1, "col": 0, "re": 0.5}],
        "channels": [[{"row": 1, "col": 0, "re": 1.0}]],
        "monitored": [[0, 0.0]],
    }
    config.update(overrides)
    return config


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    malformed = {
        "phase": _custom_qubit(monitored=[[0, "abc"]]),
        "entry": _custom_qubit(channels=[[{"row": 1, "col": 0, "re": "x"}]]),
        "theta": {"model": "rf", "theta": [0.1, "abc"]},
        "n_cut": {"model": "kerr_cat", "params": {"n_cut": 4.9}},
        "huge_n_cut": {"model": "kerr_cat", "params": {"n_cut": 10 ** 400}},
        "bool": {"model": "rf", "params": {"kappa": True}},
        "nan_rate": {"model": "classical_jump",
                     "rates": [[0.0, float("nan")], [1.0, 0.0]],
                     "weights": [[[0.0, 1.0], [1.0, 0.0]]]},
        "bool_rate": {"model": "classical_jump",
                      "rates": [[0.0, True], [1.0, 0.0]],
                      "weights": [[[0.0, 1.0], [1.0, 0.0]]]},
        "nan_weight": {"model": "classical_jump",
                       "rates": [[0.0, 1.0], [1.0, 0.0]],
                       "weights": [[[0.0, float("nan")], [1.0, 0.0]]]},
        "ragged_rates": {"model": "classical_jump",
                         "rates": [[0.0, 1.0], [1.0]],
                         "weights": [[[0.0, 1.0], [1.0, 0.0]]]},
        "nan_coefficient": _custom_qubit(
            signal={"mode": "kinetic", "coefficients": [[float("nan")]]}),
        "bool_coefficient": _custom_qubit(
            signal={"mode": "kinetic", "coefficients": [[True]]}),
        "empty_coefficients": _custom_qubit(
            signal={"mode": "kinetic", "coefficients": [[]]}),
        "empty_tangents": _custom_qubit(signal={"mode": "tangent", "tangents": [[]]}),
        "bool_dim": _custom_qubit(dim=True),
        "scalar_channels": _custom_qubit(channels=5),
        "scalar_monitored": _custom_qubit(monitored=3),
        "bool_index": _custom_qubit(channels=[[{"row": True, "col": False, "re": 1.0}]]),
        "bool_channel": _custom_qubit(monitored=[[False, 0.0]]),
    }
    for name, config in malformed.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    no_signal = tmp_path / "no_signal.json"
    no_signal.write_text(json.dumps(_custom_qubit()))
    cases = [
        ("steady", "--model", str(bad)),
        ("steady", "--model", "no_such_model"),
        ("steady", "--model", "cavity"),
        ("sweep", "--model", "classical_jump"),
        ("steady", "--model", "rf", "--param", "bogus=1"),
        ("steady", "--model", "rf", "--param", "kappa"),
        ("steady", "--model", "rf", "--tol", "nope=1"),
        ("sweep", "--model", "rf", "--n", "0"),
        ("sweep", "--model", "rf", "--wmin", "2", "--wmax", "1"),
        ("verify", "no_such_suite"),
        ("steady", "--model", "rf", "--param", "kappa=nan"),
        ("steady", "--model", "rf", "--param", "rabi=inf"),
        ("sweep", "--model", "rf", "--theta", "nan"),
        ("steady", "--model", "kerr_cat", "--param", "n_cut=100000"),
        ("sweep", "--model", "rf", "--tol", "spectrum_psd=nan"),
        ("sweep", "--model", "rf", "--tol", "cond_max=inf"),
        ("bound-report", "--model", "rf", "--tol", "bound_margin=nan"),
        ("steady", "--model", "rf", "--tol", "gap_rel=0"),
        ("bound-report", "--model", str(no_signal)),
        ("bound-report", "--model", "rf", "--seed", "1"),
        ("sweep", "--model", str(tmp_path / "empty_coefficients.json")),
        ("bound-report", "--model", str(tmp_path / "empty_coefficients.json")),
    ] + [("steady", "--model", str(tmp_path / f"{name}.json"))
         for name in malformed]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
    code, _, err = run(capsys, "steady", "--model", str(tmp_path / "nan_rate.json"))
    assert "not finite" in err
    code, _, err = run(capsys, "bound-report", "--model", str(no_signal))
    assert err == "error: model 'custom' has no signal parametrization\n"


def test_config_channel_index_reads_integral_float(tmp_path, capsys):
    outputs = []
    for channel in (0, 0.0):
        config = tmp_path / "qubit.json"
        config.write_text(json.dumps(_custom_qubit(
            monitored=[[channel, np.pi / 2]],
            signal={"mode": "kinetic", "coefficients": [[1.0]]})))
        code, out, err = run(capsys, "sweep", "--model", str(config), "--n", "3")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_integer_parameter_reads_integral_float(capsys):
    code, out, _ = run(capsys, "steady", "--model", "kerr_cat", "--param", "n_cut=6")
    assert code == 0
    assert run(capsys, "steady", "--model", "kerr_cat", "--param", "n_cut=6.0") \
        == (0, out, "")
    code, out, err = run(capsys, "steady", "--model", "kerr_cat", "--param", "n_cut=6.5")
    assert (code, out) == (1, "")
    assert err == "error: parameter n_cut='6.5' is not an integer\n"


def test_cli_import_skips_scipy_integrate():
    src = os.path.dirname(os.path.dirname(ioqfr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, ioqfr.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("signal, message", [
    # M = i sigma_-: Hamiltonian-like, so the bound does not apply
    ({"mode": "tangent", "tangents": [[[{"row": 1, "col": 0, "im": 1.0}]]]},
     "not purely dissipative"),
    # the first signal does not touch the only channel
    ({"mode": "kinetic", "coefficients": [[0.0, 1.0]]},
     "signal 0 has activity 0.000e+00 at or below"),
])
@pytest.mark.parametrize("command", ["sweep", "bound-report"])
def test_bound_commands_share_applicability_gate(tmp_path, capsys, command,
                                                 signal, message):
    config = tmp_path / "qubit.json"
    config.write_text(json.dumps(_custom_qubit(signal=signal)))
    code, out, err = run(capsys, command, "--model", str(config), "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [
    ("--model", "kerr_cat", "--wmin", "-5", "--wmax", "5", "--n", "21"),
    ("--model", os.path.join(os.path.dirname(__file__), "golden",
                             "custom_two_currents.json"), "--n", "21"),
])
def test_sweep_agrees_with_bound_report(capsys, argv):
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    code, out, _ = run(capsys, "bound-report", *argv)
    assert code == 0
    report = json.loads(out)
    assert [float(row["lambda_max"]) for row in rows] == report["lambda_max"]
    assert [float(row["margin_min"]) for row in rows] == report["margin_min"]
    assert [row["pass"] == "1" for row in rows] == report["passed"]


def test_sweep_classical_rejected(tmp_path, capsys):
    config = tmp_path / "classical.json"
    config.write_text(json.dumps({
        "model": "classical_jump",
        "rates": [[0.0, 1.0], [1.0, 0.0]],
        "weights": [[[0.0, 1.0], [1.0, 0.0]]],
    }))
    code, _, err = run(capsys, "sweep", "--model", str(config))
    assert code == 1
    assert "monitored" in err


def test_not_mixing_exits_2(tmp_path, capsys):
    config = tmp_path / "no_channels.json"
    config.write_text(json.dumps({
        "model": "custom", "dim": 2,
        "hamiltonian": [], "channels": [], "monitored": [],
    }))
    code, _, err = run(capsys, "steady", "--model", str(config))
    assert code == 2
    assert "error:" in err


def test_sweep_near_zero_frequency(capsys):
    # linspace puts 1.1e-16, not 0, on this grid; the resolvent must not
    # depend on hitting omega == 0 exactly
    code, out, err = run(capsys, "sweep", "--model", "kerr_cat", "--wmin", "-0.6",
                         "--wmax", "1.0", "--n", "9")
    assert code == 0, err
    rows = list(csv.DictReader(out.splitlines()))
    assert float(rows[3]["omega"]) == 1.1102230246251565e-16
    assert all(row["pass"] == "1" for row in rows)


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "cavity_saturation",
                       "rayleigh_identity")
    assert code == 0
    assert "PASS cavity_saturation" in out
    assert "2/2 suites passed" in out


def test_verify_json_failure_exit_2(capsys):
    # an impossible residual tolerance must fail the suite, not crash it
    code, out, _ = run(capsys, "verify", "rf_closed_forms",
                       "--tol", "trace=1e-30", "--json")
    assert code == 2
    rows = json.loads(out)
    assert rows[0]["name"] == "rf_closed_forms"
    assert not rows[0]["passed"]


def test_verify_json_passes(capsys):
    # rf_phase_bound computes its verdict with numpy, which must not leak
    # into the JSON output
    code, out, _ = run(capsys, "verify", "rf_phase_bound",
                       "cavity_saturation", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["name"] for row in rows] == ["rf_phase_bound", "cavity_saturation"]
    assert all(row["passed"] is True for row in rows)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "steady" in capsys.readouterr().out
