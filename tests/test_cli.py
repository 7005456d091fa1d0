import json
import math

import numpy as np
import pytest

from concentra.cli import main

TWO_POINT = json.dumps({"type": "discrete", "support": [0.0, 1.0], "weights": [0.5, 0.5]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_csv_row(capsys):
    code, out, _ = run(
        capsys, "constants", "--formula", "gc-markov",
        "--kappa1", "1", "--L", "1", "--n", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")  # config echo
    assert lines[1] == "formula_id,inputs,regime,value"
    assert lines[2].split(",")[0] == "gc-markov"
    assert float(lines[2].split(",")[-1]) == 14.0


def test_constants_multiple_horizons(capsys):
    code, out, _ = run(
        capsys, "constants", "--formula", "ts-markov",
        "--alpha", "1", "--L", "0.5", "--s", "2", "--n", "1", "10", "100",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {"formula": "ts-markov", "n": [1, 10, 100]}
    vals = [r["value"] for r in payload["results"]]
    assert vals[0] == vals[1] == vals[2]  # s = 2 contractive is n-free
    assert payload["results"][0]["regime"] == "contractive"


def test_constants_missing_flag_is_input_error(capsys):
    code, _, err = run(capsys, "constants", "--formula", "gc-markov", "--n", "3")
    assert code == 2
    assert "error" in err


def test_wasserstein_identical_measures(capsys):
    code, out, _ = run(capsys, "wasserstein", "--mu", TWO_POINT, "--nu", TWO_POINT, "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == pytest.approx(0.0, abs=1e-10)
    assert payload["s"] == 2.0
    assert payload["plan"] is not None


def test_wasserstein_gaussian_closed_form(capsys):
    a = json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1.0]]})
    b = json.dumps({"type": "gaussian", "mean": [3.0], "cov": [[1.0]]})
    code, out, _ = run(capsys, "wasserstein", "--mu", a, "--nu", b, "--s", "2")
    assert code == 0
    assert json.loads(out)["w"] == pytest.approx(3.0, abs=1e-12)
    code, _, err = run(capsys, "wasserstein", "--mu", a, "--nu", b, "--s", "1")
    assert code == 2


def test_entropy_discrete_and_decomposition(capsys):
    q = json.dumps({"type": "discrete", "support": [0.0, 1.0], "weights": [0.75, 0.25]})
    code, out, _ = run(capsys, "entropy", "--q", q, "--p", TWO_POINT)
    assert code == 0
    assert json.loads(out)["total"] == pytest.approx(0.13081203594113694, abs=1e-12)

    model = json.dumps(
        {"kind": "tabular", "init": [0.5, 0.5], "transition": [[0.7, 0.3], [0.4, 0.6]]}
    )
    joint = json.dumps(
        {
            "type": "discrete",
            "support": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "weights": [0.25, 0.25, 0.25, 0.25],
        }
    )
    code, out, _ = run(capsys, "entropy", "--q", joint, "--model", model)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == pytest.approx(
        payload["initial"] + sum(payload["conditional"]), abs=1e-12
    )


def test_certify_exit_codes(capsys):
    code, out, err = run(
        capsys, "certify", "--inequality", "gc", "--constant", "0.25", "--mu", TWO_POINT
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    assert "pass" in err
    code, out, _ = run(
        capsys, "certify", "--inequality", "gc", "--constant", "0.1", "--mu", TWO_POINT
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_certify_lsi_grid(capsys):
    grid = np.linspace(-6.0, 6.0, 301)
    dens = np.exp(-(grid**2) / 2.0)
    blob = json.dumps({"grid": grid.tolist(), "density": dens.tolist()})
    code, out, _ = run(capsys, "certify", "--inequality", "lsi", "--constant", "1.0", "--grid", blob)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_simulate_reproducible_csv(capsys):
    model = json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0})
    code, out1, _ = run(
        capsys, "simulate", "--model", model, "--n", "3", "--samples", "4", "--seed", "9"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "simulate", "--model", model, "--n", "3", "--samples", "4", "--seed", "9"
    )
    assert out1 == out2
    rows = [r for r in out1.strip().splitlines() if not r.startswith("#")]
    assert rows[0] == "x0,x1,x2"
    assert len(rows) == 5


@pytest.mark.parametrize("model", [
    {"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0},
    {"kind": "tabular", "init": [0.5, 0.5], "transition": [[0.9, 0.1], [0.2, 0.8]]},
])
def test_simulate_json_and_csv_give_the_same_paths(capsys, model):
    argv = ("simulate", "--model", json.dumps(model), "--n", "3", "--samples", "4", "--seed", "9")
    code, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [r for r in out_csv.strip().splitlines() if not r.startswith("#")][1:]
    csv_paths = [[float(v) for v in r.split(",")] for r in rows]
    assert json.loads(out_json)["paths"] == csv_paths


def test_couple_json_report(capsys):
    p = json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0})
    q = json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0, "init_mean": 1.0})
    code, out, _ = run(capsys, "couple", "--p-model", p, "--q-model", q, "--n", "3", "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["step_costs"] == [1.0, 0.25, 0.0625]
    assert payload["upper_bound"] == pytest.approx(math.sqrt(1.3125), abs=1e-12)
    assert payload["method"] == "gaussian-monotone-closed"
    # --resolution is still accepted, and ignored
    code, out2, _ = run(capsys, "couple", "--p-model", p, "--q-model", q, "--n", "3", "--s", "2",
                        "--resolution", "64")
    assert code == 0 and json.loads(out2) == payload


@pytest.mark.parametrize("argv", [
    ("constants", "--formula", "gc-markov", "--kappa1", "1", "--L", "1", "--workers", "2"),
    ("constants", "--formula", "gc-markov", "--kappa1", "1", "--L", "1", "--epsilon", "0.5"),
    ("constants", "--formula", "gc-markov", "--kappa1", "1", "--L", "1", "--samples", "9"),
    ("constants", "--formula", "gc-markov", "--kappa1", "1", "--L", "1", "--seed", "3"),
    ("certify", "--inequality", "gc", "--constant", "0.25", "--mu", TWO_POINT, "--tol", "5"),
    ("certify", "--inequality", "gc", "--constant", "0.25", "--mu", TWO_POINT, "--samples", "9"),
    ("couple", "--p-model", "{}", "--q-model", "{}", "--n", "2", "--seed", "1"),
    ("wasserstein", "--mu", TWO_POINT, "--nu", TWO_POINT, "--tol", "1"),
    ("verify-arma", "--A", "[[0.5]]", "--seed", "1"),
    ("verify-ou", "--rho", "1", "--tau", "1", "--n", "2", "--tol", "1"),
])
def test_removed_flags_rejected(argv):
    with pytest.raises(SystemExit):
        main(list(argv))


@pytest.mark.parametrize("theta, n", [(1e200, 4), (1e100, 5)])
def test_couple_overflow_is_input_error(capsys, theta, n):
    p = json.dumps({"kind": "gaussian_kernel", "theta": theta, "sigma2": 1.0})
    q = json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0})
    code, out, err = run(capsys, "couple", "--p-model", p, "--q-model", q, "--n", str(n), "--s", "2")
    assert code == 2
    assert out == ""
    assert "overflow" in err


def test_verify_ou_analytic_mode(capsys):
    code, out, _ = run(capsys, "verify-ou", "--rho", "0", "--tau", "1", "--n", "1", "--samples", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa_n"] == 1.0
    assert payload["sigma2"] == 1.0
    assert payload["verdict"] == "pass"


def test_verify_arma(capsys):
    code, out, _ = run(capsys, "verify-arma", "--A", "[[0.5,0.1],[0.0,0.4]]", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert len(payload["checks"]) == 6
    code, _, err = run(capsys, "verify-arma", "--A", "[[1.5,0],[0,0.5]]")
    assert code == 2


def test_emitted_json_round_trips_as_input(capsys, tmp_path):
    # measures the CLI writes are accepted back as inputs
    out_file = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "wasserstein", "--mu", TWO_POINT, "--nu", TWO_POINT, "--out", str(out_file)
    )
    assert code == 0
    blob = json.loads(out_file.read_text())
    mu = json.dumps(
        {"type": "discrete", "support": blob["plan"]["row_support"], "weights": [0.5, 0.5]}
    )
    code, out, _ = run(capsys, "wasserstein", "--mu", mu, "--nu", TWO_POINT, "--s", "1")
    assert code == 0


def test_unknown_subcommand_and_bad_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "wasserstein", "--mu", "{bad json", "--nu", TWO_POINT)
    assert code == 2
