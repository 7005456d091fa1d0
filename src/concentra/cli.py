"""Batch command-line front end.

Subcommands map one-to-one onto library operations: ``constants``,
``wasserstein``, ``entropy``, ``certify``, ``simulate``, ``couple``,
``verify-ou`` and ``verify-arma``. Measure/model arguments accept a JSON
file path or inline JSON. Exit codes: 0 success, 1 a certified failure
(a falsified inequality), 2 input error.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import certify, constants, coupling, jsonio
from .entropy import chain_rule_decompose, relative_entropy_discrete, relative_entropy_gaussian
from .errors import InputError
from .measures import DiscreteMeasure, GaussianMeasure
from .processes import (
    ARMAModel,
    OUModel,
    TabularModel,
    arma_joint_covariance,
    simulate_joint,
)
from .transport import wasserstein_exact, wasserstein_gaussian_w2

log = logging.getLogger("concentra")

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_json(arg: str) -> dict:
    if arg.lstrip().startswith(("{", "[")):
        return json.loads(arg)
    with open(arg) as fh:
        return json.load(fh)


def _emit(payload: dict, args, csv_rows=None, csv_header=None) -> None:
    """Write results as JSON (default) or CSV with the config echoed."""
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "csv" and csv_rows is not None:
            out.write("# " + json.dumps(payload.get("config", {}), sort_keys=True) + "\n")
            if csv_header:
                out.write(",".join(csv_header) + "\n")
            for row in csv_rows:
                out.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
                out.write("\n")
        else:
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
    finally:
        if args.out:
            out.close()


def _config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


# ---------------------------------------------------------------- constants

_FORMULAS = {
    "gc-markov": (constants.gc_markov_kappa, ("kappa1", "L", "n")),
    "gc-weak": (constants.gc_weak_kappa, ("kappa1", "R", "n")),
    "gc-general": (constants.gc_weak_kappa_general, ("kappa1", "M", "n")),
    "ts-markov": (constants.ts_markov_alpha, ("alpha", "L", "s", "n")),
    "ts-weak": (constants.ts_weak_alpha, ("alpha", "R", "s", "n")),
    "ts-general": (constants.ts_general_alpha, ("alpha", "M", "s", "n")),
    "lsi-markov": (constants.lsi_markov_alpha, ("alpha", "L", "n")),
    "lsi-weak": (constants.lsi_weak_alpha, ("alpha", "R", "n")),
    "lsi-kernel": (constants.lsi_markov_kernel_alpha, ("alpha", "kappa", "n")),
    "lsi-contraction": (constants.contraction_noise_alpha, ("alpha", "L", "n")),
}


def _cmd_constants(args) -> int:
    rows = []
    results = []
    for n in args.n:
        if args.formula == "arma":
            if args.A is None or args.B is None:
                raise InputError("the arma formula needs --A and --B")
            value = constants.arma_lsi_alpha(_load_json(args.A), _load_json(args.B))
            inputs = {"A": _load_json(args.A), "B": _load_json(args.B)}
            regime = ""
        elif args.formula == "ou":
            if args.rho is None or args.tau is None:
                raise InputError("the ou formula needs --rho and --tau")
            out = constants.ou_kappa(args.rho, args.tau, n, args.x or 0.0)
            value = out["kappa_n"]
            inputs = {"rho": args.rho, "tau": args.tau, "n": n, "x": args.x or 0.0, **out}
            regime = ""
        else:
            fn, names = _FORMULAS[args.formula]
            vals = {}
            for name in names:
                v = n if name == "n" else getattr(args, name)
                if v is None:
                    raise InputError(f"formula {args.formula} needs --{name}")
                vals[name] = v
            res = fn(**vals)
            if isinstance(res, constants.RegimeConstant):
                value, regime, inputs = res.value, res.regime, res.inputs
            else:
                value, regime, inputs = float(res), "", vals
        rows.append((args.formula, json.dumps(inputs, sort_keys=True).replace(",", ";"), regime, value))
        results.append({"formula_id": args.formula, "inputs": inputs, "regime": regime, "value": value})
    payload = {"config": _config(args, ("formula", "n")), "results": results}
    _emit(payload, args, rows, ("formula_id", "inputs", "regime", "value"))
    return EXIT_PASS


# -------------------------------------------------------------- wasserstein

def _cmd_wasserstein(args) -> int:
    mu = jsonio.measure_from_json(_load_json(args.mu))
    nu = jsonio.measure_from_json(_load_json(args.nu))
    if isinstance(mu, GaussianMeasure) and isinstance(nu, GaussianMeasure):
        if args.s != 2.0:
            raise InputError("the Gaussian closed form covers order s = 2 only")
        value, plan = wasserstein_gaussian_w2(mu, nu), None
    elif isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        space = jsonio.space_from_json(_load_json(args.space)) if args.space else None
        if space is not None:
            mu = DiscreteMeasure(mu.support, mu.weights, space=space)
            nu = DiscreteMeasure(nu.support, nu.weights, space=space)
        value, plan = wasserstein_exact(mu, nu, args.s)
    else:
        raise InputError("mu and nu must both be discrete or both Gaussian")
    payload = jsonio.wasserstein_result_to_json(value, args.s, plan)
    payload["config"] = _config(args, ("mu", "nu", "s", "space"))
    _emit(payload, args, [(value, args.s)], ("w", "s"))
    return EXIT_PASS


# ------------------------------------------------------------------ entropy

def _cmd_entropy(args) -> int:
    q = jsonio.measure_from_json(_load_json(args.q))
    config = _config(args, ("q", "p", "model"))
    if args.model:
        model = jsonio.model_from_json(_load_json(args.model))
        if not isinstance(model, TabularModel) or not isinstance(q, DiscreteMeasure):
            raise InputError("decomposition needs a discrete joint law and a tabular model")
        breakdown = chain_rule_decompose(q, model)
        payload = jsonio.breakdown_to_json(breakdown)
        payload["config"] = config
        _emit(payload, args, [(payload["total"],)], ("total",))
        return EXIT_PASS
    p = jsonio.measure_from_json(_load_json(args.p))
    if isinstance(q, DiscreteMeasure) and isinstance(p, DiscreteMeasure):
        total = relative_entropy_discrete(q, p)
    elif isinstance(q, GaussianMeasure) and isinstance(p, GaussianMeasure):
        total = relative_entropy_gaussian(q, p)
    else:
        raise InputError("q and p must both be discrete or both Gaussian")
    payload = {"total": total if math.isfinite(total) else "inf", "config": config}
    _emit(payload, args, [(total,)], ("total",))
    return EXIT_PASS


# ------------------------------------------------------------------ certify

def _cmd_certify(args) -> int:
    config = _config(args, ("inequality", "constant", "s", "mu", "grid", "seed"))
    if args.inequality in ("gc", "ts"):
        if not args.mu:
            raise InputError(f"{args.inequality} certification needs --mu")
        obj = _load_json(args.mu)
        space = jsonio.space_from_json(_load_json(args.space)) if args.space else None
        mu = jsonio.measure_from_json(obj, space=space)
        if args.inequality == "gc":
            cert = certify.check_gc(mu, args.constant, seed=args.seed)
        else:
            cert = certify.check_transport(mu, args.constant, args.s, seed=args.seed)
    elif args.inequality == "lsi":
        if not args.grid:
            raise InputError('lsi certification needs --grid {"grid":[...],"density":[...]}')
        obj = _load_json(args.grid)
        cert = certify.check_lsi_grid(
            np.asarray(obj["grid"], float),
            np.asarray(obj["density"], float),
            args.constant,
            seed=args.seed,
        )
    else:
        raise InputError(f"unknown inequality {args.inequality!r}")
    payload = jsonio.certificate_to_json(cert)
    payload["config"] = config
    print(
        f"{cert.inequality} @ {_fmt(cert.constant)}: {cert.verdict} "
        f"(worst_slack={_fmt(cert.worst_slack)}, search_size={cert.search_size}, "
        f"witness_index={cert.witness.get('family_index')})",
        file=sys.stderr,
    )
    _emit(payload, args, [(cert.verdict, cert.constant, cert.worst_slack)],
          ("verdict", "constant", "worst_slack"))
    return EXIT_PASS if cert.passed else EXIT_FALSIFIED


# ----------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    model = jsonio.model_from_json(_load_json(args.model))
    paths = simulate_joint(model, args.n, args.samples, seed=args.seed)
    flat = paths.values.reshape(paths.n_paths, -1)
    config = _config(args, ("model", "n", "samples", "seed"))
    if args.format == "json":
        _emit({"config": config, "paths": flat.tolist()}, args)
    else:
        rows = flat.astype(float).tolist()
        _emit({"config": config}, args, rows, tuple(f"x{k}" for k in range(flat.shape[1])))
    return EXIT_PASS


# ------------------------------------------------------------------- couple

def _cmd_couple(args) -> int:
    p_model = jsonio.model_from_json(_load_json(args.p_model))
    q_model = jsonio.model_from_json(_load_json(args.q_model))
    bound = coupling.recursive_coupling_bound(p_model, q_model, args.n, args.s)
    payload = {
        "config": _config(args, ("p_model", "q_model", "n", "s")),
        "upper_bound": bound.upper_bound,
        "step_costs": list(bound.step_costs),
        "s": bound.s,
        "method": bound.method,
    }
    _emit(payload, args, [(bound.upper_bound, bound.s, bound.method)],
          ("upper_bound", "s", "method"))
    return EXIT_PASS


# ---------------------------------------------------------------- verify-ou

def _cmd_verify_ou(args) -> int:
    x = args.x or 0.0
    out = constants.ou_kappa(args.rho, args.tau, args.n, x)
    direct = constants.gc_markov_kappa(out["sigma2"], out["theta"], args.n)
    rel = abs(out["kappa_n"] - direct) / max(abs(direct), 1e-300)
    checks = [{
        "check": "cross-identity",
        "kappa_n": out["kappa_n"],
        "direct": direct,
        "rel_error": rel,
        "pass": rel <= 1e-12,
    }]
    if args.samples > 0:
        model = OUModel(args.rho, args.tau, x)
        paths = simulate_joint(model, args.n, args.samples, seed=args.seed)
        fn = paths.values.sum(axis=1)
        for s in (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0):
            y = np.exp(s * fn - np.max(s * fn))
            emp = float(np.max(s * fn) + np.log(y.mean()))
            se = float(y.std(ddof=1) / (y.mean() * math.sqrt(len(y))))
            target = s * out["mean_Fn"] + s**2 * out["kappa_n"] / 2.0
            checks.append({
                "check": "mgf",
                "s": s,
                "empirical": emp,
                "target": target,
                "std_errors": abs(emp - target) / se if se > 0 else math.inf,
                "pass": abs(emp - target) <= 3.0 * se,
            })
    ok = all(c["pass"] for c in checks)
    payload = {
        "config": _config(args, ("rho", "tau", "n", "x", "samples", "seed")),
        "theta": out["theta"],
        "sigma2": out["sigma2"],
        "kappa_n": out["kappa_n"],
        "mean_Fn": out["mean_Fn"],
        "checks": checks,
        "verdict": "pass" if ok else "fail",
    }
    rows = [(c["check"], c.get("s", ""), "pass" if c["pass"] else "fail") for c in checks]
    _emit(payload, args, rows, ("check", "s", "verdict"))
    return EXIT_PASS if ok else EXIT_FALSIFIED


# -------------------------------------------------------------- verify-arma

def _cmd_verify_arma(args) -> int:
    A = np.asarray(_load_json(args.A), float)
    B = np.asarray(_load_json(args.B), float) if args.B else np.eye(A.shape[0])
    alpha = constants.arma_lsi_alpha(A, B)
    checks = []
    for k in range(1, args.n + 1):
        sigma = arma_joint_covariance(A, B, k)
        exact = 1.0 / float(np.max(np.linalg.eigvalsh(sigma)))
        checks.append({
            "n": k,
            "alpha": alpha,
            "exact_gaussian_alpha": exact,
            "pass": alpha <= exact + args.tol,
        })
    ok = all(c["pass"] for c in checks)
    payload = {
        "config": _config(args, ("A", "B", "n", "tol")),
        "alpha": alpha,
        "checks": checks,
        "verdict": "pass" if ok else "fail",
    }
    rows = [(c["n"], c["alpha"], c["exact_gaussian_alpha"], "pass" if c["pass"] else "fail")
            for c in checks]
    _emit(payload, args, rows, ("n", "alpha", "exact_gaussian_alpha", "verdict"))
    return EXIT_PASS if ok else EXIT_FALSIFIED


# ------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser, *flags) -> None:
    for name, kind, default in (("seed", int, 0), ("samples", int, 0), ("tol", float, 1e-9)):
        if name in flags:
            p.add_argument(f"--{name}", type=kind, default=default)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="concentra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="evaluate closed-form inequality constants")
    p.add_argument("--formula", required=True, choices=sorted(_FORMULAS) + ["arma", "ou"])
    p.add_argument("--n", type=int, nargs="+", default=[1])
    for name in ("kappa1", "alpha", "L", "R", "M", "s", "kappa", "rho", "tau", "x"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--A", default=None)
    p.add_argument("--B", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("wasserstein", help="W_s between two measures")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--space", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_wasserstein)

    p = sub.add_parser("entropy", help="relative entropy, optionally decomposed")
    p.add_argument("--q", required=True)
    p.add_argument("--p", default=None)
    p.add_argument("--model", default=None, help="tabular model for the chain-rule decomposition")
    _add_common(p)
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("certify", help="certify or falsify GC / T_s / LSI")
    p.add_argument("--inequality", required=True, choices=("gc", "ts", "lsi"))
    p.add_argument("--constant", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--mu", default=None)
    p.add_argument("--space", default=None)
    p.add_argument("--grid", default=None)
    _add_common(p, "seed")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("simulate", help="draw joint-law sample paths")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, "seed", "samples")
    p.set_defaults(fn=_cmd_simulate, format="csv")

    p = sub.add_parser("couple", help="recursive coupling upper bound on W_s")
    p.add_argument("--p-model", required=True)
    p.add_argument("--q-model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=1.0)
    # accepted and ignored: the Gaussian bound is exact and needs no grid
    p.add_argument("--resolution", type=int, help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(fn=_cmd_couple)

    p = sub.add_parser("verify-ou", help="OU constants: identity and MGF checks")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, default=0.0)
    _add_common(p, "seed", "samples")
    p.set_defaults(fn=_cmd_verify_ou)

    p = sub.add_parser("verify-arma", help="ARMA LSI constant vs exact Gaussian constant")
    p.add_argument("--A", required=True)
    p.add_argument("--B", default=None)
    p.add_argument("--n", type=int, default=10)
    _add_common(p, "tol")
    p.set_defaults(fn=_cmd_verify_arma)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CONCENTRA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
