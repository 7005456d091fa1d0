"""JSON schemas for spaces, measures, models and results.

Field names are part of the CLI contract and fixed: finite spaces are
``{"type":"finite","labels":[...],"dist":[[...]]}``, discrete measures
``{"type":"discrete","support":[...],"weights":[...]}``, Gaussians
``{"type":"gaussian","mean":[...],"cov":[[...]]}``, and models carry a
``kind`` discriminator.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .certify import Certificate
from .entropy import EntropyBreakdown
from .errors import InputError
from .measures import DiscreteMeasure, FiniteMetricSpace, GaussianMeasure
from .processes import ARMAModel, GaussianKernelModel, OUModel, TabularModel
from .transport import TransportPlan

PLAN_ELISION = 10**6


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {"type": "finite", "labels": list(space.labels), "dist": space.dist.tolist()}


def space_from_json(obj: dict) -> FiniteMetricSpace:
    if obj.get("type") != "finite":
        raise InputError(f"expected a finite space, got type {obj.get('type')!r}")
    return FiniteMetricSpace(tuple(obj["labels"]), np.asarray(obj["dist"], dtype=float))


def measure_to_json(measure) -> dict:
    if isinstance(measure, DiscreteMeasure):
        return {"type": "discrete", "support": measure.points.tolist(), "weights": measure.weights.tolist()}
    if isinstance(measure, GaussianMeasure):
        return {"type": "gaussian", "mean": measure.mean.tolist(), "cov": measure.cov.tolist()}
    raise InputError(f"cannot serialize {type(measure).__name__}")


def measure_from_json(obj: dict, space=None):
    kind = obj.get("type")
    if kind == "discrete":
        return DiscreteMeasure(obj["support"], np.asarray(obj["weights"], dtype=float), space=space)
    if kind == "gaussian":
        return GaussianMeasure(np.asarray(obj["mean"], float), np.asarray(obj["cov"], float))
    raise InputError(f"unknown measure type {kind!r}")


def model_to_json(model) -> dict:
    if isinstance(model, OUModel):
        return {"kind": "ou", "rho": model.rho, "tau": model.tau, "x0": model.x0}
    if isinstance(model, GaussianKernelModel):
        return {
            "kind": "gaussian_kernel",
            "theta": model.theta,
            "sigma2": model.sigma2,
            "init_mean": model.init_mean,
            "init_var": model.init_var,
        }
    if isinstance(model, TabularModel):
        out = {
            "kind": "tabular",
            "init": model.init.tolist(),
            "transition": model.transition.tolist(),
        }
        if model.labels is not None:
            out["labels"] = list(model.labels)
        return out
    if isinstance(model, ARMAModel):
        return {"kind": "arma", "A": model.A.tolist(), "B": model.B.tolist()}
    raise InputError(f"cannot serialize model {type(model).__name__}")


def model_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "ou":
        return OUModel(float(obj["rho"]), float(obj["tau"]), float(obj.get("x0", 0.0)))
    if kind == "gaussian_kernel":
        return GaussianKernelModel(
            float(obj["theta"]),
            float(obj["sigma2"]),
            float(obj.get("init_mean", 0.0)),
            float(obj["init_var"]) if obj.get("init_var") is not None else None,
        )
    if kind == "tabular":
        return TabularModel(
            np.asarray(obj["init"], float),
            np.asarray(obj["transition"], float),
            labels=tuple(obj["labels"]) if obj.get("labels") else None,
        )
    if kind == "arma":
        return ARMAModel(np.asarray(obj["A"], float), np.asarray(obj["B"], float))
    raise InputError(f"unknown model kind {kind!r}")


def wasserstein_result_to_json(value: float, s: float, plan: TransportPlan | None) -> dict:
    out = {"w": value, "s": s, "plan": None}
    if plan is not None and plan.weights.size <= PLAN_ELISION:
        out["plan"] = {
            "weights": plan.weights.tolist(),
            "cost": plan.cost,
            "row_support": measure_to_json(plan.row_measure)["support"],
            "col_support": measure_to_json(plan.col_measure)["support"],
        }
    return out


def _num(x: float):
    """A float as strict JSON allows it: non-finite values become strings."""
    return x if math.isfinite(x) else str(x)


def breakdown_to_json(b: EntropyBreakdown) -> dict:
    out = {
        "total": _num(b.total),
        "initial": _num(b.initial_term),
        "conditional": [_num(t) for t in b.conditional_terms],
    }
    if b.failure_step is not None:
        out["failure_step"] = b.failure_step
    return out


def certificate_to_json(cert: Certificate) -> dict:
    return {k: _num(v) if isinstance(v, float) else v for k, v in dataclasses.asdict(cert).items()}
