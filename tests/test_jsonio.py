import json
import math

import numpy as np
import pytest

from concentra import (
    ARMAModel,
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianKernelModel,
    GaussianMeasure,
    InputError,
    OUModel,
    TabularModel,
    chain_rule_decompose,
    check_gc,
    check_transport,
    wasserstein_exact,
)
from concentra import jsonio


def test_space_round_trip():
    sp = FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    back = jsonio.space_from_json(json.loads(json.dumps(jsonio.space_to_json(sp))))
    assert back.labels == sp.labels
    assert np.array_equal(back.dist, sp.dist)
    with pytest.raises(InputError):
        jsonio.space_from_json({"type": "weird"})


def test_measure_round_trips():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.25, 0.75]))
    back = jsonio.measure_from_json(json.loads(json.dumps(jsonio.measure_to_json(mu))))
    assert back.support == mu.support
    assert np.array_equal(back.weights, mu.weights)
    tup = DiscreteMeasure(((0.0, 1.0), (1.0, 0.0)), np.array([0.5, 0.5]))
    back2 = jsonio.measure_from_json(json.loads(json.dumps(jsonio.measure_to_json(tup))))
    assert back2.support == tup.support
    g = GaussianMeasure([0.5], [[2.0]])
    back3 = jsonio.measure_from_json(json.loads(json.dumps(jsonio.measure_to_json(g))))
    assert back3.mean[0] == 0.5 and back3.cov[0, 0] == 2.0
    with pytest.raises(InputError):
        jsonio.measure_from_json({"type": "nope"})


@pytest.mark.parametrize(
    "model",
    [
        OUModel(1.0, 0.5, x0=0.3),
        GaussianKernelModel(0.5, 1.5, init_mean=1.0, init_var=0.5),
        TabularModel(np.array([0.4, 0.6]), np.array([[0.7, 0.3], [0.2, 0.8]]), labels=(0.0, 1.0)),
        ARMAModel(np.array([[0.5, 0.1], [0.0, 0.4]]), np.eye(2)),
    ],
)
def test_model_round_trips(model):
    back = jsonio.model_from_json(json.loads(json.dumps(jsonio.model_to_json(model))))
    assert back.kind == model.kind and type(back) is type(model)
    if isinstance(model, ARMAModel):
        assert np.array_equal(back.A, model.A)
    elif isinstance(model, TabularModel):
        assert np.array_equal(back.transition, model.transition)
        assert back.labels == model.labels
    else:
        assert jsonio.model_to_json(back) == jsonio.model_to_json(model)


def test_wasserstein_result_schema_and_elision():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.75, 0.25]))
    nu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    value, plan = wasserstein_exact(mu, nu, 1.0)
    out = jsonio.wasserstein_result_to_json(value, 1.0, plan)
    assert out["w"] == pytest.approx(0.25, abs=1e-10)
    assert out["plan"]["weights"][0][0] >= 0.0
    assert jsonio.wasserstein_result_to_json(value, 1.0, None)["plan"] is None


def test_breakdown_serialization_handles_inf():
    q = DiscreteMeasure(((0, 0), (1, 1)), np.array([0.5, 0.5]))
    p = DiscreteMeasure(((0, 0), (0, 1)), np.array([0.5, 0.5]))
    out = jsonio.breakdown_to_json(chain_rule_decompose(q, p))
    assert out["total"] == "inf"
    assert "failure_step" in out
    q2 = DiscreteMeasure(((0, 0), (0, 1)), np.array([0.25, 0.75]))
    out2 = jsonio.breakdown_to_json(chain_rule_decompose(q2, p))
    assert math.isfinite(out2["total"])
    assert out2["total"] == pytest.approx(out2["initial"] + sum(out2["conditional"]), abs=1e-12)


def test_certificate_serializes_all_fields():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    cert = check_gc(mu, 0.25)
    out = json.loads(json.dumps(jsonio.certificate_to_json(cert)))
    for key in ("inequality", "constant", "worst_slack", "witness", "verdict", "search_size", "critical"):
        assert key in out
    assert out["critical"] == cert.critical


def test_certificate_json_writes_non_finite_floats_as_strings():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    off = DiscreteMeasure((5.0, 6.0), np.array([0.5, 0.5]))
    cert = check_transport(mu, 1.0, 1.0, perturbation_family=[off])
    text = json.dumps(jsonio.certificate_to_json(cert))
    out = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-standard constant {name}"))
    assert out["worst_slack"] == "-inf" and out["critical"] == "inf"
