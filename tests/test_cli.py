import argparse
import contextlib
import inspect
import io
import json
import logging
import math
import os
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import chdtri, ndtri
from scipy.stats import binom

from concentra import ARMAModel, InputError, OUModel, arma_lsi_alpha, cli, gaussian_chain_joint, jsonio, ou_kappa, simulate_joint
from concentra.cli import _emit, _normal_sample_checks, build_parser, main
from concentra.constants import FORMULAS

TWO_POINT = json.dumps({"type": "discrete", "support": [0.0, 1.0], "weights": [0.5, 0.5]})
_B = cli._EMIT_ROWS  # rows per block of an ndarray table's text


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


def test_constants_arma_rows_identical_across_horizons(capsys):
    a, b = "[[0.5, 0.1], [0.0, 0.4]]", "[[1.0, 0.0], [0.0, 2.0]]"
    code, out, _ = run(
        capsys, "constants", "--formula", "arma", "--A", a, "--B", b,
        "--n", "1", "7", "50", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 3 and rows[0] == rows[1] == rows[2]
    assert float(rows[0].split(",")[-1]) == arma_lsi_alpha(json.loads(a), json.loads(b))


def test_constants_missing_flag_is_input_error(capsys):
    code, _, err = run(capsys, "constants", "--formula", "gc-markov", "--n", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("--formula", "gc-general", "--kappa1", "1", "--M", "1e200", "--n", "3"),
    ("--formula", "ou", "--rho", "nan", "--tau", "1", "--n", "3"),
    ("--formula", "ou", "--rho", "inf", "--tau", "1", "--n", "3"),
    ("--formula", "ou", "--rho", "-1000", "--tau", "1", "--n", "3"),
    ("--formula", "ts-general", "--alpha", "1", "--M", "1e-300", "--s", "1", "--n", "3"),
], ids=["gc-general-overflow", "ou-nan-rho", "ou-inf-rho", "ou-overflow", "ts-general-underflow"])
def test_constants_overflow_and_nonfinite_rho_are_input_errors(capsys, argv):
    code, out, err = run(capsys, "constants", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_certify_json_is_strict(capsys):
    """A point mass has critical T_s constant +inf: it is written as the
    string "inf", never as the non-standard Infinity literal."""
    point = json.dumps({"type": "discrete", "support": [0.0], "weights": [1.0]})
    code, out, err = run(capsys, "certify", "--inequality", "ts", "--constant", "1", "--mu", point)
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["critical"] == "inf"
    assert "critical=inf" in err


@pytest.mark.parametrize("argv, named", [
    (("certify", "--inequality", "gc", "--constant", "nan", "--mu", TWO_POINT), "error: "),
    # s reaches no check at gc: the config echo is where it fails, by its key path
    (("certify", "--inequality", "gc", "--constant", "1", "--s", "nan", "--mu", TWO_POINT),
     "error: config.s is not finite"),
    (("simulate", "--model", '{"kind": "tabular", "init": [0.5, 0.5], "transition": [[NaN, 0.5], [0.5, 0.5]]}',
      "--n", "3", "--samples", "2"), "error: "),
    (("wasserstein", "--mu", '{"type": "gaussian", "mean": [0.0], "cov": [[NaN]]}',
      "--nu", '{"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}'), "error: "),
], ids=["certify-constant", "certify-s", "simulate-row", "wasserstein-cov"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nonfinite_inputs_exit_2_with_nothing_written(capsys, tmp_path, argv, named, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2 and out == "" and named in err
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert code == 2 and out == "" and not target.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("long_digits", [False, True], ids=["orjson", "exact-integers"])
@pytest.mark.parametrize("source", ["inline", "file"])
def test_nonfinite_json_literals_exit_2_with_nothing_written(capsys, tmp_path, literal, long_digits, source):
    """NaN and Infinity are not JSON: input holding one exits 2, also when a
    run of 19 digits sends it to the exact-integer parser."""
    digits = ', "pad": 12345678901234567890123' if long_digits else ""
    mu = f'{{"type": "discrete", "support": [0.0, {literal}], "weights": [0.5, 0.5]{digits}}}'
    if source == "file":
        (tmp_path / "mu.json").write_text(mu)
        mu = str(tmp_path / "mu.json")
    target = tmp_path / "out"
    code, out, err = run(capsys, "wasserstein", "--mu", mu, "--nu", TWO_POINT, "--s", "1", "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error: ") and not target.exists()


def test_json_integers_beyond_64_bits_are_parsed_exactly(tmp_path):
    """orjson rounds integers outside [-2**63, 2**64) to floats; those are
    parsed exactly instead, inline and from a file."""
    big = [2**64, -(2**63) - 1, 10**30 + 1, 2**64 - 1, 1.5]
    text = json.dumps({"a": big})
    (tmp_path / "big.json").write_text(text)
    for arg in (text, str(tmp_path / "big.json")):
        got = cli._load_json(arg)["a"]
        assert got == big and [type(v) for v in got] == [int, int, int, int, float]
    assert cli._load_json('{"a": [0.12345678901234567890123, 1]}') == {"a": [0.12345678901234568, 1]}


_TWO_LABELS = json.dumps({"type": "finite", "labels": ["a", "b"], "dist": [[0, 1], [1, 0]]})


@pytest.mark.parametrize("support", [[0, 5], [0, -1], ["a", "b"]], ids=["past-the-end", "negative", "labels"])
@pytest.mark.parametrize("command", ["certify", "wasserstein"])
def test_finite_space_support_that_is_not_point_indices_exits_2(capsys, tmp_path, support, command):
    mu = json.dumps({"type": "discrete", "support": support, "weights": [0.5, 0.5]})
    nu = json.dumps({"type": "discrete", "support": [0, 1], "weights": [0.5, 0.5]})
    argv = (("certify", "--inequality", "ts", "--constant", "2", "--mu", mu) if command == "certify"
            else ("wasserstein", "--mu", mu, "--nu", nu, "--s", "1"))
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--space", _TWO_LABELS, "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert f"error: support point {support[1] if support[0] == 0 else repr(support[0])}" in err
    assert "is not a point index of its finite space: an integer in [0, 2)" in err


def test_certify_echoes_its_space(capsys):
    """A finite-space run can be replayed from its own CSV: the # line
    carries --space with the other inputs."""
    space = json.dumps({"type": "finite", "labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
    mu = json.dumps({"type": "discrete", "support": [0, 1, 2], "weights": [0.25, 0.5, 0.25]})
    argv = ("certify", "--inequality", "gc", "--constant", "2", "--mu", mu, "--space", space)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    config = json.loads(out.splitlines()[0].removeprefix("# "))
    assert config["space"] == space and config["mu"] == mu
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["config"] == config


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


def _compact(obj):
    """JSON in the CLI's layout: orjson's, sorted keys, no spaces, UTF-8."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS).decode()


def _per_cell_csv(config, header, rows):
    """CSV of tuple rows by the per-cell rule: floats as %.17g, every other
    cell as str."""
    lines = ["# " + _compact(config), ",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_FLOAT_CELL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e-?[0-9]+)?")


def _significant_digits(text):
    """The digit string of a decimal literal, without sign, point, exponent
    or leading and trailing zeros: '1' for 1e-05, 0.00001 and 1e16."""
    return text.split("e")[0].lstrip("-").replace(".", "").strip("0")


def _assert_shortest_cell(cell, v):
    """A float cell is a plain JSON number that parses to v's exact bits and
    has the significant digits of repr(v), the shortest that round-trip."""
    assert _FLOAT_CELL.fullmatch(cell), cell
    assert float(cell).hex() == float(v).hex(), (cell, v)
    assert _significant_digits(cell) == _significant_digits(repr(float(v))), (cell, v)


def _assert_path_csv(out, config, values):
    """The CSV bytes of a path table: the config echo, the x<k> header, then
    one line per path, integer states as %d and floats as shortest cells."""
    lines = out.split("\n")
    assert lines[0] == "# " + _compact(config)
    assert lines[1] == ",".join(f"x{k}" for k in range(values.shape[1]))
    assert lines[-1] == "" and len(lines) == values.shape[0] + 3
    for line, row in zip(lines[2:], values.tolist()):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, v in zip(cells, row):
            if values.dtype.kind in "iu":
                assert cell == "%d" % v
            else:
                _assert_shortest_cell(cell, v)


SIM_MODELS = [
    {"kind": "ou", "rho": 0.7, "tau": 0.4, "x0": -0.3},
    {"kind": "arma", "A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0, 0.0], [0.3, 2.0]]},
    {"kind": "tabular", "init": [0.2, 0.3, 0.5],
     "transition": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]},
    {"kind": "tabular", "init": [0.2, 0.3, 0.5],
     "transition": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]], "labels": [0.0, 0.7, 2.25]},
]


@pytest.mark.parametrize("model", SIM_MODELS)
def test_simulate_csv_bytes_match_per_cell_oracle(capsys, model):
    blob = json.dumps(model)
    code, out, _ = run(capsys, "simulate", "--model", blob, "--n", "6", "--samples", "50", "--seed", "5")
    assert code == 0
    values = simulate_joint(jsonio.model_from_json(model), 6, 50, seed=5).values.reshape(50, -1)
    _assert_path_csv(out, {"model": blob, "n": 6, "samples": 50, "seed": 5}, values)


@pytest.mark.parametrize("model", SIM_MODELS)
def test_simulate_json_paths_are_the_simulated_values(capsys, model):
    blob = json.dumps(model)
    code, out, _ = run(capsys, "simulate", "--model", blob, "--n", "6", "--samples", "50", "--seed", "5",
                       "--format", "json")
    assert code == 0
    values = simulate_joint(jsonio.model_from_json(model), 6, 50, seed=5).values.reshape(50, -1)
    payload = json.loads(out, parse_constant=_reject_constant)
    assert list(payload) == ["config", "paths"]
    assert payload["config"] == {"model": blob, "n": 6, "samples": 50, "seed": 5}
    assert _float_bits(payload["paths"]) == _float_bits(values.tolist())
    assert out.endswith("\n") and out.count("\n") == 1


# the layout boundaries of the shortest writer and of repr: 1e-05 / 0.0001
# and 1e16 / 1e15, the extreme normals and subnormals, and signed zeros
_EDGE_FLOATS = [0.0, -0.0, 1e-5, 9.999999999999999e-06, 1.0000000000000002e-05, 1e-4, 1e-7,
                1e15, 9999999999999998.0, 1e16, 1.0000000000000002e16, 1e17, 0.1, 1.0 / 3.0,
                5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 123456789012345680.0]
_FLOAT64 = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
_CELLS = st.one_of(st.sampled_from(_EDGE_FLOATS), _FLOAT64.filter(math.isfinite))


@st.composite
def _tables(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)
    cells = draw(st.lists(_CELLS, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_path_table_writer_gives_shortest_round_trip_cells(table):
    """JSON from the array writer parses to the table's exact values, and
    the CSV table written through _emit holds the shortest digits."""
    assert _float_bits(json.loads(cli._array_json(table))) == _float_bits(table.tolist())
    view = table[::-1, ::-1]  # not C-contiguous
    assert _float_bits(json.loads(cli._array_json(view))) == _float_bits(view.tolist())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit({"config": {"seed": 1}}, SimpleNamespace(format="csv", out=None), table,
              tuple(f"x{k}" for k in range(table.shape[1])))
    _assert_path_csv(buf.getvalue(), {"seed": 1}, table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("model", [
    {"kind": "arma", "A": [[1e200]], "B": [[1.0]]},
    {"kind": "gaussian_kernel", "theta": 1e200, "sigma2": 1.0},
])
def test_simulate_overflow_is_an_input_error_before_any_output(capsys, tmp_path, model, fmt):
    out_file = tmp_path / "paths.out"
    argv = ("simulate", "--model", json.dumps(model), "--n", "4", "--samples", "2", "--format", fmt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 2 and out == ""
        assert "step 3 of 4 has a non-finite value" in err
        assert not out_file.exists()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "step 3 of 4" in err


# one invocation per `constants --formula` id
CONSTANTS_ARGV = [
    ("constants", "--formula", "gc-markov", "--kappa1", "1", "--L", "0.9", "--n", "1", "3", "50"),
    ("constants", "--formula", "lsi-weak", "--alpha", "1.3", "--R", "2", "--n", "4", "9"),
    ("constants", "--formula", "arma", "--A", "[[0.5,0.1],[0,0.4]]", "--B", "[[1,0],[0,2]]", "--n", "1", "7"),
    ("constants", "--formula", "ou", "--rho", "0.7", "--tau", "0.3", "--x", "0.2", "--n", "1", "5"),
    ("constants", "--formula", "gc-weak", "--kappa1", "2", "--R", "1.5", "--n", "2", "6"),
    ("constants", "--formula", "gc-general", "--kappa1", "1", "--M", "0.4", "--n", "1", "5"),
    ("constants", "--formula", "ts-markov", "--alpha", "1", "--L", "1.4", "--s", "1.5", "--n", "1", "4"),
    ("constants", "--formula", "ts-weak", "--alpha", "2", "--R", "1", "--s", "2", "--n", "3", "8"),
    ("constants", "--formula", "ts-general", "--alpha", "1", "--M", "0.3", "--s", "1", "--n", "2", "5"),
    ("constants", "--formula", "lsi-markov", "--alpha", "1", "--L", "0.4", "--n", "1", "6"),
    ("constants", "--formula", "lsi-kernel", "--alpha", "1", "--kappa", "1", "--n", "3"),
    ("constants", "--formula", "lsi-contraction", "--alpha", "0.7", "--L", "1.2", "--n", "2", "7"),
]


@pytest.mark.parametrize("argv", CONSTANTS_ARGV)
def test_constants_csv_bytes_match_per_cell_oracle(capsys, argv):
    # the oracle rows come from the JSON results
    code, out_json, _ = run(capsys, *argv)
    assert code == 0
    code, out_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = json.loads(out_json)
    rows = [(r["formula_id"], _compact(r["inputs"]).replace(",", ";"),
             r["regime"], r["value"]) for r in payload["results"]]
    header = ("formula_id", "inputs", "regime", "value")
    assert out_csv == _per_cell_csv(payload["config"], header, rows)


@pytest.mark.parametrize("argv", [a for a in CONSTANTS_ARGV if a[2] in FORMULAS], ids=lambda a: a[2])
def test_constants_inputs_echo_the_row_names(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    names = FORMULAS[argv[2]][1]
    for r in json.loads(out)["results"]:
        assert list(r["inputs"]) == sorted(names)
        assert all(r["inputs"][k] == float(argv[argv.index(f"--{k}") + 1]) for k in names if k != "n")


def _constants_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["constants"]


# each row's dependence parameter in its three regimes (lsi rows at alpha = 2),
# plus ratio 1 exactly and within 1e-10 of it for the summed rows
_SWEEP_REGIMES = {
    "gc-markov": ("L", (0.6, 1.0, 1.3, 1.0 - 1e-10, 1.0 + 1e-10, 0.0)),
    "gc-weak": ("R", (0.5, 1.0, 1.2, 1.0 + 1e-10)),
    "gc-general": ("M", (0.3, 0.8, 1.5)),
    "ts-markov": ("L", (0.5, 1.0, 1.4)),
    "ts-weak": ("R", (0.7, 1.0, 1.1)),
    "ts-general": ("M", (0.2, 0.7, 1.3)),
    "lsi-markov": ("L", (0.5, 2.0, 3.0)),
    "lsi-weak": ("R", (0.5, 2.0, 3.0)),
    "lsi-kernel": ("kappa", (0.5, 2.0, 3.0)),
    "lsi-contraction": ("L", (0.5, 1.0, 1.3)),
}


@pytest.mark.parametrize("formula, value", [
    pytest.param(formula, v, id=f"{formula}-{v!r}")
    for formula, (_, values) in sorted(_SWEEP_REGIMES.items()) for v in values
])
def test_constants_sweep_is_the_per_n_call_bit_for_bit(capsys, formula, value):
    """A sweep over n = 1..200 prints, at every n, exactly the per-n
    scalar call's value and regime."""
    fn, names = FORMULAS[formula]
    params = {"kappa1": 1.5, "alpha": 2.0, "s": 1.5, _SWEEP_REGIMES[formula][0]: value}
    argv = ["constants", "--formula", formula, "--n", *map(str, range(1, 201))]
    argv += [arg for k in names if k != "n" for arg in (f"--{k}", repr(params[k]))]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    for n, row in enumerate(json.loads(out)["results"], start=1):
        res = fn(*(n if k == "n" else params[k] for k in names))
        assert row["value"] == float(res) and row["regime"] == getattr(res, "regime", ""), n


@pytest.mark.parametrize("rho, tau, x", [(0.5, 0.3, 0.0), (1.2, 0.9, 0.7), (0.0, 1.0, -0.4), (1e-10, 1.0, 0.3),
                                         (-0.01, 0.5, 1.0)])
def test_ou_sweep_is_the_per_n_call_bit_for_bit(capsys, rho, tau, x):
    argv = ["constants", "--formula", "ou", "--n", *map(str, range(1, 201)),
            "--rho", repr(rho), "--tau", repr(tau), "--x", repr(x)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    for n, row in enumerate(json.loads(out)["results"], start=1):
        want = ou_kappa(rho, tau, n, x)
        assert row["value"] == want["kappa_n"], n
        assert row["inputs"] == {"rho": rho, "tau": tau, "n": n, "x": x, **want}, n


def test_formula_table_matches_constants_flags():
    assert cli._FORMULAS is FORMULAS
    flags = {a.dest: a for a in _constants_parser()._actions}
    assert set(flags["formula"].choices) - {"arma", "ou"} == set(FORMULAS)
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for formula, (fn, names) in FORMULAS.items():
        assert set(names) <= set(flags), formula
        params = inspect.signature(fn).parameters.values()
        assert sum(p.kind in positional for p in params) == len(names), formula
    assert {a[2] for a in CONSTANTS_ARGV} == set(flags["formula"].choices)


def test_main_reuses_one_parser_without_leaking_state(capsys):
    argvs = [
        ("constants", "--formula", "ts-weak", "--alpha", "1", "--R", "0.5", "--s", "2"),
        ("simulate", "--model", json.dumps({"kind": "ou", "rho": 0.5, "tau": 1.0, "x0": 0.0}),
         "--n", "3", "--samples", "4", "--seed", "2"),
        ("verify-ou", "--rho", "0.7", "--tau", "0.3", "--n", "4", "--format", "csv"),
    ]
    fresh = []
    for argv in argvs:
        args = build_parser().parse_args(list(argv))
        assert args.fn(args) == 0
        fresh.append(capsys.readouterr().out)
    for argv, want in zip(argvs + argvs, fresh + fresh):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want
    assert json.loads(fresh[0])["config"]["n"] == [1]  # the --n default is not mutated
    assert cli._parser() is cli._parser()


def test_verify_arma_csv_bytes_match_per_cell_oracle(capsys):
    argv = ("verify-arma", "--A", "[[0.5,0.1],[0.0,0.4]]", "--n", "6")
    code, out_json, _ = run(capsys, *argv)
    assert code == 0
    code, out_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = json.loads(out_json)
    rows = [(c["n"], c["alpha"], c["exact_gaussian_alpha"], "pass" if c["pass"] else "fail")
            for c in payload["checks"]]
    header = ("n", "alpha", "exact_gaussian_alpha", "verdict")
    assert out_csv == _per_cell_csv(payload["config"], header, rows)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_arma_tolerance_out_of_range_exits_2_with_nothing_written(capsys, tmp_path, tol, fmt):
    """A tolerance that is not finite and > 0 is an input error, never a
    verdict: a negative one would otherwise fail every check."""
    argv = ("verify-arma", "--A", "[[0.5]]", "--n", "2", "--tol", tol, "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: tol must be finite and > 0")
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and not target.exists()


def _float_bits(obj):
    if isinstance(obj, float):
        return ("float", obj.hex())  # nan compares by position
    if isinstance(obj, list):
        return [_float_bits(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _float_bits(v) for k, v in obj.items()}
    return obj


def _plain(obj):
    """The stdlib writer's fallback for NumPy values: arrays as lists,
    scalars as Python numbers."""
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def test_emit_json_is_one_line_with_the_indented_values(capsys, tmp_path):
    payload = {
        "floats": [-0.0, 5e-324, 1e308, 0.1 + 0.2, np.float64(1.0 / 3.0), 1e16, 1e-5],
        "nested": [[1.5, [2.5e-300, []]], {"b": -0.0, "a": "ç", "B": None}],
        "config": {"name": "κ₁ — ü \u2028 \U0001d70c", "seed": 3, "none": None},
        "numpy": [np.float32(1.5), np.int64(-3), np.float64(2.0), np.array([[0.25, 4e-300]])],
        "z": np.float64(-7.25e-17),
    }
    _emit(payload, SimpleNamespace(format="json", out=None))
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    parsed = json.loads(out, parse_constant=_reject_constant)
    assert list(parsed) == sorted(payload) and list(parsed["nested"][1]) == ["B", "a", "b"]
    assert _float_bits(parsed) == _float_bits(
        json.loads(json.dumps(payload, indent=2, sort_keys=True, default=_plain)))
    # orjson's compact layout, and text as UTF-8, not \u escapes
    assert out.startswith('{"config":{"name":"κ₁ — ü \u2028 \U0001d70c","none":null,"seed":3},"floats":[-0.0,')
    _emit(payload, SimpleNamespace(format="json", out=str(tmp_path / "out.json")))
    assert (tmp_path / "out.json").read_bytes() == out.encode("utf-8")
    # None is null; a non-finite float beside it is still an error
    with pytest.raises(InputError, match=r"^config\.t is not finite"):
        _emit({"config": {"s": None, "t": math.nan}}, SimpleNamespace(format="json", out=None))
    with pytest.raises(InputError, match=r"^numpy\[1\]\[0\]\[1\] is not finite"):
        _emit({"numpy": [None, np.array([[1.0, math.inf]])]}, SimpleNamespace(format="json", out=None))
    with pytest.raises(InputError, match=r"^x\[0\] is not finite"):
        _emit({"x": [np.float32("nan")]}, SimpleNamespace(format="json", out=None))
    assert capsys.readouterr().out == ""
    # output is strict JSON: a non-finite float is an error naming its key
    # path, and nothing is written
    for bad in (math.nan, math.inf, -math.inf):
        for fmt in ("json", "csv"):
            with pytest.raises(InputError, match=r"^config\.s is not finite"):
                _emit({"config": {"s": bad}, "z": [bad]}, SimpleNamespace(format=fmt, out=None), [(1.0,)], ("a",))
            assert capsys.readouterr().out == ""
    with pytest.raises(InputError, match=r"^checks\[1\]\.rel_error is not finite"):
        _emit({"checks": [{"rel_error": 0.0}, {"pass": True, "rel_error": -math.inf}]},
              SimpleNamespace(format="json", out=None))


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (1, 4), (5, 1), (3, 0), (40, 7)])
@pytest.mark.parametrize("dtype", [float, np.int64])
def test_emit_csv_table_is_the_array_text_with_one_row_per_line(shape, dtype):
    """The single-byte route writes the bytes that replacing every "],[" of
    the array's JSON text by a newline writes."""
    table = np.random.default_rng(shape[0]).normal(0.0, 1e3, shape).astype(dtype)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit({"config": {}}, SimpleNamespace(format="csv", out=None), table, ("x",) * shape[1])
    body = cli._array_json(table).replace(b"],[", b"\n")[2:-2].decode() + "\n"
    assert buf.getvalue() == "# {}\n" + ",".join(("x",) * shape[1]) + "\n" + body


def _whole_table_text(fmt, config, table):
    """The bytes of a path table written as one text: the CSV rows are the
    array's JSON text with every "],[" a newline, and JSON holds the array's
    text as the ``paths`` value."""
    if fmt == "csv":
        header = ",".join(f"x{k}" for k in range(table.shape[1]))
        body = cli._array_json(table).replace(b"],[", b"\n")[2:-2]
        return b"# " + _compact(config).encode() + b"\n" + header.encode() + b"\n" + body + b"\n"
    return b'{"config":' + _compact(config).encode() + b',"paths":' + cli._array_json(table) + b"}\n"


def _emit_table(fmt, table, out=None):
    """``_emit`` of a path table as ``simulate`` hands it over."""
    args = SimpleNamespace(format=fmt, out=out)
    if fmt == "json":
        _emit({"config": {}, "paths": table}, args)
    else:
        _emit({"config": {}}, args, table, tuple(f"x{k}" for k in range(table.shape[1])))


@pytest.mark.parametrize("rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("dtype", [float, np.int64])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_block_writer_bytes_are_the_whole_table_text(capsysbinary, tmp_path, fmt, dtype, rows):
    """Written in blocks of _EMIT_ROWS rows, a table's bytes are those of
    its whole text, below, at and above the block size, with no columns,
    on stdout, on a text-only stdout and in an --out file; a 0-row CSV
    table is still one empty line."""
    table = np.random.default_rng(rows).normal(0.0, 1e3, (rows, 3)).astype(dtype)
    out_file = tmp_path / "table.out"
    for t in (table, np.empty((rows, 0), dtype)):
        want = _whole_table_text(fmt, {}, t)
        _emit_table(fmt, t)
        assert capsysbinary.readouterr().out == want
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _emit_table(fmt, t)
        assert buf.getvalue().encode() == want
        _emit_table(fmt, t, str(out_file))
        assert out_file.read_bytes() == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("model", SIM_MODELS)
def test_emit_simulate_bytes_are_the_whole_table_text(capsysbinary, tmp_path, model, fmt):
    """simulate's bytes above one block are the whole-table text of the
    simulated paths, on stdout and with --out."""
    blob, samples = json.dumps(model), _B + 1
    argv = ["simulate", "--model", blob, "--n", "3", "--samples", str(samples), "--seed", "2", "--format", fmt]
    values = simulate_joint(jsonio.model_from_json(model), 3, samples, seed=2).values.reshape(samples, -1)
    want = _whole_table_text(fmt, {"model": blob, "n": 3, "samples": samples, "seed": 2}, values)
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want
    assert main(argv + ["--out", str(tmp_path / "paths.out")]) == 0
    assert (tmp_path / "paths.out").read_bytes() == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_peak_memory_is_below_the_table_size(tmp_path, fmt):
    """_emit holds one block's text, not the whole text: writing a
    20,000 x 20 float table (about 7.5 MB of text) allocates less than the
    table's own 3.2 MB at its peak."""
    table = np.random.default_rng(0).normal(size=(20_000, 20))
    tracemalloc.start()
    try:
        _emit_table(fmt, table, str(tmp_path / "table.out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "table.out").stat().st_size > 2 * table.nbytes
    assert peak < table.nbytes


SUBCOMMAND_ARGV = CONSTANTS_ARGV + [
    ("wasserstein", "--mu", TWO_POINT, "--nu", json.dumps({"type": "discrete", "support": [0.5, 2.0], "weights": [0.3, 0.7]})),
    ("wasserstein", "--mu", json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}),
     "--nu", json.dumps({"type": "gaussian", "mean": [1.0], "cov": [[2.0]]})),
    ("entropy", "--q", json.dumps({"type": "discrete", "support": [0.0, 1.0], "weights": [0.75, 0.25]}), "--p", TWO_POINT),
    ("certify", "--inequality", "gc", "--constant", "0.25", "--mu", TWO_POINT),
    ("simulate", "--model", json.dumps({"kind": "ou", "rho": 0.7, "tau": 0.4, "x0": -0.3}), "--n", "4",
     "--samples", "6", "--format", "json"),
    ("couple", "--p-model", json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0}),
     "--q-model", json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0, "init_mean": 1.0}), "--n", "3"),
    ("verify-ou", "--rho", "0.7", "--tau", "0.4", "--n", "5", "--samples", "200"),
    ("verify-arma", "--A", "[[0.5,0.1],[0.0,0.4]]", "--n", "4"),
]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: " ".join(argv[:3])[:40])
def test_every_subcommand_json_parses_to_its_payload(capsys, monkeypatch, argv):
    """What each subcommand writes parses, floats bit for bit, to what the
    stdlib writer makes of the payload it hands to ``_emit`` (a bytes value
    is JSON text already written, and parsed first)."""
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, *rest: (payloads.append(payload), emit(payload, *rest)))
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1) and len(payloads) == 1
    want = {k: json.loads(v) if isinstance(v, bytes) else v for k, v in payloads[0].items()}
    reference = json.loads(json.dumps(want, sort_keys=True, default=_plain))
    assert _float_bits(json.loads(out, parse_constant=_reject_constant)) == _float_bits(reference)


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: " ".join(argv[:3])[:40])
def test_subcommand_parser_reads_what_the_full_parser_reads(capsys, argv):
    """main hands a subcommand's arguments to its own parser, which gives
    the namespace the top-level parser gives; an unknown flag still exits 2."""
    parser = build_parser()
    direct = parser.commands[argv[0]].parse_args(list(argv[1:]), argparse.Namespace(command=argv[0]))
    assert vars(direct) == vars(parser.parse_args(list(argv)))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-such-flag"])
    assert exc.value.code == 2 and "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


@pytest.mark.parametrize("argv", CONSTANTS_ARGV, ids=lambda argv: argv[2])
def test_constants_json_rows_are_the_scalar_calls(capsys, argv):
    """Each row written from the sweep's arrays holds the scalar call at its
    n, bit for bit, and the inputs it was called with."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    flags = dict(zip(argv[1::2], argv[2::2]))
    formula, ns = flags["--formula"], [int(v) for v in argv[argv.index("--n") + 1:]]
    rows = json.loads(out)["results"]
    assert [r["formula_id"] for r in rows] == [formula] * len(ns)
    for n, row in zip(ns, rows):
        if formula == "arma":
            inputs = {"A": json.loads(flags["--A"]), "B": json.loads(flags["--B"])}
            want, regime = arma_lsi_alpha(inputs["A"], inputs["B"]), ""
        elif formula == "ou":
            rho, tau, x = float(flags["--rho"]), float(flags["--tau"]), float(flags["--x"])
            inputs = {"rho": rho, "tau": tau, "x": x, "n": n, **ou_kappa(rho, tau, n, x)}
            want, regime = inputs["kappa_n"], ""
        else:
            fn, names = FORMULAS[formula]
            inputs = {k: float(flags[f"--{k}"]) for k in names if k != "n"}
            got = fn(*inputs.values(), n)
            inputs["n"], want, regime = n, float(got), getattr(got, "regime", "")
        assert row["inputs"] == inputs and row["regime"] == regime
        assert row["value"].hex() == want.hex()


@pytest.mark.parametrize("fmt, samples, rows", [
    pytest.param("csv", 4, 4, id="csv-4"),
    pytest.param("json", 4, 1, id="json-1"),
    pytest.param("csv", 2 * _B + 3, 2 * _B + 3, id="csv-blocks"),
    pytest.param("json", 2 * _B + 3, 1, id="json-blocks"),
])
def test_emit_logs_one_debug_line(capsys, caplog, tmp_path, fmt, samples, rows):
    """One line per write, counting the bytes written over all blocks."""
    model = json.dumps({"kind": "gaussian_kernel", "theta": 0.5, "sigma2": 1.0})
    out_file = tmp_path / "paths.out"
    with caplog.at_level(logging.DEBUG, logger="concentra"):
        code, _, _ = run(capsys, "simulate", "--model", model, "--n", "3", "--samples", str(samples),
                         "--format", fmt, "--out", str(out_file))
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("emit ")]
    assert len(lines) == 1
    assert lines[0].startswith(f"emit {fmt}: {rows} rows, {os.path.getsize(out_file)} bytes, ")
    assert lines[0].endswith(" ms")


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


@pytest.mark.parametrize("rho, tau, n", [(1e-4, 0.01, 2), (0.7, 0.3, 40), (-0.05, 1.0, 300), (1e-9, 1.0, 400)])
def test_verify_ou_cross_identity_is_an_independent_variance(capsys, rho, tau, n):
    """The cross-identity compares kappa_n with Var(F_n) from the
    covariance recursion of (X_k, F_k), a route that shares no code with
    the geometric sums; near theta = 1 the closed form was 1.7e-11 off."""
    code, out, _ = run(capsys, "verify-ou", "--rho", str(rho), "--tau", str(tau), "--n", str(n))
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "cross-identity" and check["pass"]
    cov = gaussian_chain_joint(OUModel(rho, tau, 0.0), n).cov
    assert check["direct"] == pytest.approx(cov.sum(), rel=1e-12, abs=0.0)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_verify_ou_statistics_follow_their_null_law(capsys):
    """F_n is exactly N(mean_Fn, kappa_n), so over 300 seeds each statistic
    falls beyond its own 5 % two-sided critical values in a binomial share
    of runs, and the 1e-6 verdict passes on every seed."""
    n_samples, seeds = 200, 300
    z5 = -ndtri(0.025)
    lo5, hi5 = chdtri(n_samples - 1, 0.975), chdtri(n_samples - 1, 0.025)
    beyond = {"mean": 0, "variance": 0}
    for seed in range(seeds):
        code, out, _ = run(capsys, "verify-ou", "--rho", "0.8", "--tau", "0.4", "--n", "6", "--x", "0.7",
                           "--samples", str(n_samples), "--seed", str(seed))
        assert code == 0
        payload = _strict_json(out)
        assert payload["verdict"] == "pass" and len(payload["mgf"]) == 6
        _, mean, variance = payload["checks"]
        beyond["mean"] += abs(mean["statistic"]) > z5
        beyond["variance"] += not lo5 <= variance["statistic"] <= hi5
    lo, hi = binom.ppf(1e-4, seeds, 0.05), binom.isf(1e-4, seeds, 0.05)
    assert all(lo <= count <= hi for count in beyond.values()), beyond


def test_verify_ou_samples_the_row_sums_of_simulated_paths(capsys):
    """verify-ou's F_n sample is simulate_joint's values.sum(axis=1) bit for
    bit, with the sample spread over two blocks of paths: every statistic
    it prints is the one of that sample."""
    rho, tau, n, x, samples, seed = 0.6, 0.5, 5, -0.4, 4096 + 7, 3
    code, out, _ = run(capsys, "verify-ou", "--rho", str(rho), "--tau", str(tau), "--n", str(n),
                       "--x", str(x), "--samples", str(samples), "--seed", str(seed))
    assert code == 0
    payload = json.loads(out)
    fn = simulate_joint(OUModel(rho, tau, x), n, samples, seed=seed).values.sum(axis=1)
    want = _normal_sample_checks(fn, payload["mean_Fn"], payload["kappa_n"])
    assert [c["statistic"] for c in payload["checks"][1:]] == [float(c["statistic"]) for c in want]
    s = payload["mgf"][0]["s"]
    assert payload["mgf"][0]["empirical"] == float(np.max(s * fn) + np.log(np.exp(s * fn - np.max(s * fn)).mean()))


def test_verify_ou_tests_reject_a_wrong_law():
    """At N = 1e5 both tests reject: a kappa_n 5 % too large, and a mean 6
    standard errors off. The sample is standardized so that its mean and
    variance are exactly those of the true law."""
    n_samples, mean, var = 100_000, 0.3, 2.0
    z = np.random.default_rng(1).standard_normal(n_samples)
    sample = mean + math.sqrt(var) * (z - z.mean()) / z.std(ddof=1)
    verdicts = lambda m, v: [c["pass"] for c in _normal_sample_checks(sample, m, v)]
    assert verdicts(mean, var) == [True, True]
    assert verdicts(mean, 1.05 * var) == [True, False]
    se = math.sqrt(var / n_samples)
    assert verdicts(mean + 6.0 * se, var) == [False, True]
    assert verdicts(mean - 6.0 * se, var) == [False, True]


@pytest.mark.parametrize("samples", ["1", "-3"])
def test_verify_ou_rejects_too_few_samples(capsys, samples):
    code, out, err = run(capsys, "verify-ou", "--rho", "1", "--tau", "0.5", "--n", "3", "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples" in err
    code, out, _ = run(capsys, "verify-ou", "--rho", "1", "--tau", "0.5", "--n", "3", "--samples", "2")
    assert code in (0, 1)
    assert [c["check"] for c in _strict_json(out)["checks"]] == ["cross-identity", "mean", "variance"]


def _seed_out_of_range_exits_2_first(capsys, broken, valid):
    """A seed outside [0, 2**128) exits 2 naming ``seed`` and its rule,
    before any other input is read (``broken`` would fail on one), and
    2**128 - 1 runs and is echoed exactly."""
    for bad in (-1, 2**128, 2**200):
        code, out, err = run(capsys, *broken, "--seed", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: seed must be an integer in [0, 2**128), got {bad}\n"
    code, out, _ = run(capsys, *valid, "--seed", str(2**128 - 1))
    assert code in (0, 1) and _strict_json(out)["config"]["seed"] == 2**128 - 1


def test_certify_seed_out_of_range_exits_2(capsys, tmp_path):
    ts = ("certify", "--inequality", "ts", "--constant", "1", "--s", "1")
    _seed_out_of_range_exits_2_first(capsys, ts + ("--mu", str(tmp_path / "missing.json")), ts + ("--mu", TWO_POINT))


def test_simulate_seed_out_of_range_exits_2(capsys, tmp_path):
    sim = ("simulate", "--n", "3", "--samples", "4", "--format", "json", "--model")
    ou = json.dumps({"kind": "ou", "rho": 0.7, "tau": 0.4, "x0": -0.3})
    _seed_out_of_range_exits_2_first(capsys, sim + (str(tmp_path / "missing.json"),), sim + (ou,))


def test_verify_ou_seed_out_of_range_exits_2(capsys):
    ou = ("verify-ou", "--tau", "0.5", "--n", "3", "--samples", "4", "--rho")
    _seed_out_of_range_exits_2_first(capsys, ou + ("nan",), ou + ("1",))


def test_verify_arma(capsys):
    code, out, _ = run(capsys, "verify-arma", "--A", "[[0.5,0.1],[0.0,0.4]]", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert len(payload["checks"]) == 6
    code, _, err = run(capsys, "verify-arma", "--A", "[[1.5,0],[0,0.5]]")
    assert code == 2


def test_verify_arma_reads_each_horizon_from_one_joint_law(capsys):
    """Horizon k's exact constant equals that of the law built at k, bit for bit."""
    a, b = [[0.6, 0.2, 0.0], [-0.1, 0.3, 0.4], [0.2, 0.0, -0.5]], [[1.0, 0.0, 0.0], [0.5, 0.7, 0.0], [0.0, -0.3, 1.2]]
    code, out, _ = run(capsys, "verify-arma", "--A", json.dumps(a), "--B", json.dumps(b), "--n", "7")
    assert code == 0
    model = ARMAModel(np.array(a), np.array(b))
    for k, check in enumerate(json.loads(out)["checks"], start=1):
        cov = gaussian_chain_joint(model, k).cov
        assert check["n"] == k and check["exact_gaussian_alpha"] == 1.0 / float(np.max(np.linalg.eigvalsh(cov)))


def test_verify_arma_rejects_an_empty_horizon(capsys):
    code, out, err = run(capsys, "verify-arma", "--A", "[[0.5]]", "--n", "0")
    assert code == 2 and out == "" and "n must be an integer >= 1" in err


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
