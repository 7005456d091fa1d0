"""Batch command-line front end.

Subcommands map one-to-one onto library operations: ``constants``,
``wasserstein``, ``entropy``, ``certify``, ``simulate``, ``couple``,
``verify-ou`` and ``verify-arma``. Measure/model arguments accept a JSON
file path or inline JSON. Exit codes: 0 success, 1 a certified failure
(a falsified inequality), 2 input error.

``verify-ou --samples N`` tests the simulated F_n = sum_j x_j against its
exact law N(mean_Fn, kappa_n) by a z-test of the sample mean and a
chi^2_{N-1} test of the sample variance, both two-sided, at the
family-wise false-alarm level ``VERIFY_OU_LEVEL`` = 1e-6 split between
them by Bonferroni.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import re
import sys
import time
from itertools import chain, repeat

import numpy as np
import orjson

from . import certify, constants, coupling, jsonio
from .entropy import chain_rule_decompose, relative_entropy_discrete, relative_entropy_gaussian
from .errors import InputError, _check
from .measures import DiscreteMeasure, GaussianMeasure
from .processes import (
    ARMAModel,
    OUModel,
    TabularModel,
    _linear_moments,
    gaussian_chain_joint,
    simulate_joint,
    simulate_path_sums,
)
from .transport import wasserstein_exact, wasserstein_gaussian_w2

log = logging.getLogger("concentra")

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2

VERIFY_OU_LEVEL = 1e-6


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# every byte as "0" (a digit), "." or " " (anything else): an integer of 19
# or more digits, which orjson rounds to a float outside [-2**63, 2**64),
# then reads as a space and 19 zeros (fraction digits follow a "."); two C
# passes, where a regular expression with a look-behind takes longer than
# the parse
_TOKEN_SHAPE = bytes(48 if 48 <= b <= 57 else 46 if b == 46 else 32 for b in range(256))
_LONG_INTEGER = b" " + b"0" * 19


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(arg: str) -> dict:
    """Inline JSON, or the JSON file at ``arg``. NaN and Infinity literals
    raise ``ValueError``; an integer of any size is parsed exactly."""
    if arg.lstrip().startswith(("{", "[")):
        data = arg.encode()
    else:
        with open(arg, "rb") as fh:
            data = fh.read()
    if _LONG_INTEGER in (b" " + data).translate(_TOKEN_SHAPE):
        return json.loads(data, parse_constant=_reject_constant)
    return orjson.loads(data)


def _array_json(a: np.ndarray) -> bytes:
    """``a`` as compact JSON: float64 cells in the shortest digits that
    round-trip (Ryu-style, from orjson's C writer), integer cells as ``%d``.
    orjson writes NaN and +-inf as ``null``, so ``a`` must be finite."""
    return orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)


def _nonfinite_path(value, path: str):
    """The key path (``config.s``, ``checks[0].rel_error``) of the first
    non-finite float in ``value``, in sorted-key order, or None."""
    if isinstance(value, (float, np.floating)):
        return None if math.isfinite(value) else path
    if isinstance(value, np.ndarray):
        bad = np.argwhere(~np.isfinite(value)) if value.dtype.kind in "fc" else ()
        return f"{path}{''.join(f'[{i}]' for i in bad[0])}" if len(bad) else None
    if isinstance(value, dict):
        children = ((f"{path}.{k}", v) for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for where, v in children:
        found = _nonfinite_path(v, where)
        if found is not None:
            return found
    return None


_JSON = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _dumps(value, path: str) -> bytes:
    """``value`` as compact UTF-8 JSON with sorted keys, NumPy scalars and
    arrays included (orjson). orjson writes a non-finite float as ``null``,
    so where the text holds ``null`` the value is searched, and a
    non-finite float raises ``InputError`` naming its key path. orjson
    writes no integer beyond 64 bits, such as a ``--seed`` up to
    2**128 - 1 in a config echo; a value holding one is written by the
    ``json`` module."""
    try:
        data = orjson.dumps(value, option=_JSON)
    except orjson.JSONEncodeError:
        data = None
    if data is None or b"null" in data:
        where = _nonfinite_path(value, path)
        if where is not None:
            raise InputError(f"{where} is not finite, and JSON output has no value for it")
    if data is None:
        data = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return data


# rows of an ndarray table per block of output text: _emit holds the table
# and one block's text (about 1 MB at 60 float columns), never the whole text
_EMIT_ROWS = 1024


def _csv_blocks(table: np.ndarray):
    """The CSV lines of a 2-D ``table``, one bytes block per ``_EMIT_ROWS``
    rows: each block's ``_array_json`` text with one row per line, ending
    in a newline. A 0-row table is one empty line."""
    for lo in range(0, max(len(table), 1), _EMIT_ROWS):
        # [[a,b],[c,d]] -> a,b\nc,d\n: found through a uint8 view, the
        # comma after each row's "]" and the last "]" become newlines and
        # every "[" a "]", and one single-byte replace drops them all; a
        # search for the three bytes "],[" scans far slower, and each
        # further block-sized temporary costs about as much as the scan
        text = bytearray(_array_json(table[lo:lo + _EMIT_ROWS]))
        view = np.frombuffer(text, np.uint8)
        ends = np.flatnonzero(view == ord("]"))[:-2]
        view[ends + 1] = ord("\n")
        view[ends + 2] = view[:2] = ord("]")
        view[-1] = ord("\n")
        yield text.replace(b"]", b"")


def _json_blocks(a: np.ndarray):
    """``_array_json(a)`` of an array with at least one axis, in blocks of
    ``_EMIT_ROWS`` entries along its first: ``[``, each block's text
    without its outer brackets, joined by ``,``, and ``]``."""
    yield b"["
    for lo in range(0, len(a), _EMIT_ROWS):
        if lo:
            yield b","
        yield memoryview(_array_json(a[lo:lo + _EMIT_ROWS]))[1:-1]
    yield b"]"


def _emit(payload: dict, args, table=None, header=None) -> None:
    """Write results as one line of JSON with sorted keys (default), or as
    CSV with the config echo in a leading ``#`` line.

    JSON: every top-level ndarray value is written by ``_array_json``, a
    top-level bytes value is JSON text already written, and every other
    value (and CSV's config echo) goes through ``_dumps``, so a non-finite
    float raises ``InputError`` naming its key path before anything is
    written.

    CSV: an ndarray ``table`` is ``_array_json``'s text with one row per
    line; a sequence of tuple rows writes floats as ``%.17g`` (``_fmt``)
    and every other cell as ``str``.

    An ndarray table, and a top-level ndarray JSON value with at least one
    axis, is written ``_EMIT_ROWS`` rows at a time (``_csv_blocks``,
    ``_json_blocks``): the bytes are those of the whole text, and peak
    memory is the table plus one block's text.
    """
    t0 = time.perf_counter()
    if args.format == "csv" and table is not None:
        config = _dumps(payload.get("config", {}), "config")
        head = [b"# ", config, ("\n" + ",".join(header) + "\n").encode()]
        if isinstance(table, np.ndarray):
            body = _csv_blocks(table)
        else:
            body = [(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n").encode()
                    for row in table]
        pieces = [head, body]
        rows = len(table)
    else:
        pieces = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, np.ndarray):
                value = _json_blocks(value) if value.ndim else [_array_json(value)]
            else:
                value = [value if isinstance(value, bytes) else _dumps(value, key)]
            pieces += [[b"," if pieces else b"{", orjson.dumps(key), b":"], value]
        pieces.append([b"}\n"])
        rows = 1
    written = 0

    def chunks():
        # the chunks are written one after another as they are made, not
        # joined into one more copy
        nonlocal written
        for chunk in chain.from_iterable(pieces):
            written += len(chunk)
            yield chunk

    if args.out:
        with open(args.out, "wb") as out:
            out.writelines(chunks())
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks())
        sys.stdout.buffer.flush()
    else:
        for chunk in chunks():
            sys.stdout.write(str(chunk, "utf-8"))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("emit %s: %d rows, %d bytes, %.1f ms", args.format, rows, written,
                  1e3 * (time.perf_counter() - t0))


def _config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


# ---------------------------------------------------------------- constants

_FORMULAS = constants.FORMULAS


def _hole(name: str) -> str:
    """A placeholder in a ``_json_rows`` template for the column ``name``."""
    return "\0" + name


_HOLES = re.compile(rb'"\\u0000(\w+)"')  # a hole as orjson writes it


def _json_rows(template: dict, columns: dict, count: int, path: str) -> list:
    """The JSON text of ``count`` rows as a list of bytes: row i is
    ``template`` with each hole ``_hole(name)`` holding ``columns[name][i]``,
    a number, written as ``_dumps`` writes the row. The template and each
    column are written once, by ``_dumps``, and the rows are joined from
    those pieces."""
    parts = _HOLES.split(_dumps(template, path))
    pieces = [repeat(parts[0], count)]
    for name, text in zip(parts[1::2], parts[2::2]):
        pieces += [_dumps(columns[name.decode()], path)[1:-1].split(b","), repeat(text, count)]
    return list(map(b"".join, zip(*pieces)))


def _cmd_constants(args) -> int:
    ns, formula, regime = args.n, args.formula, ""
    if formula == "arma":  # n-independent: one value for the whole sweep
        if args.A is None or args.B is None:
            raise InputError("the arma formula needs --A and --B")
        inputs = {"A": _load_json(args.A), "B": _load_json(args.B)}
        columns = {"value": [constants.arma_lsi_alpha(inputs["A"], inputs["B"])] * len(ns)}
    elif formula == "ou":
        if args.rho is None or args.tau is None:
            raise InputError("the ou formula needs --rho and --tau")
        x = args.x or 0.0
        out = constants.ou_kappas(args.rho, args.tau, ns, x)
        inputs = {"rho": args.rho, "tau": args.tau, "x": x, "theta": out["theta"], "sigma2": out["sigma2"],
                  "n": _hole("n"), "kappa_n": _hole("value"), "mean_Fn": _hole("mean_Fn")}
        columns = {"value": out["kappa_n"].tolist(), "mean_Fn": out["mean_Fn"].tolist()}
    else:
        names = _FORMULAS[formula][1]
        params = {name: getattr(args, name) for name in names if name != "n"}
        missing = [name for name, v in params.items() if v is None]
        if missing:
            raise InputError(f"formula {formula} needs --{missing[0]}")
        values, regime = constants.sweep(formula, params, ns)
        inputs, columns, regime = dict(params, n=_hole("n")), {"value": values.tolist()}, regime or ""
    columns["n"] = ns
    config = _config(args, ("formula", "n"))
    if args.format == "json":
        row = {"formula_id": formula, "inputs": inputs, "regime": regime, "value": _hole("value")}
        results = b"[" + b",".join(_json_rows(row, columns, len(ns), "results")) + b"]"
        _emit({"config": config, "results": results}, args)
    else:
        cells = (text.decode().replace(",", ";") for text in _json_rows(inputs, columns, len(ns), "inputs"))
        rows = [(formula, cell, regime, value) for cell, value in zip(cells, columns["value"])]
        _emit({"config": config}, args, rows, ("formula_id", "inputs", "regime", "value"))
    return EXIT_PASS


# -------------------------------------------------------------- wasserstein

def _cmd_wasserstein(args) -> int:
    # built on --space, a support of labels is named as no point index
    space = jsonio.space_from_json(_load_json(args.space)) if args.space else None
    mu = jsonio.measure_from_json(_load_json(args.mu), space=space)
    nu = jsonio.measure_from_json(_load_json(args.nu), space=space)
    if isinstance(mu, GaussianMeasure) and isinstance(nu, GaussianMeasure):
        if args.s != 2.0:
            raise InputError("the Gaussian closed form covers order s = 2 only")
        value, plan = wasserstein_gaussian_w2(mu, nu), None
    elif isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
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
    payload = {"total": jsonio._num(total), "config": config}
    _emit(payload, args, [(total,)], ("total",))
    return EXIT_PASS


# ------------------------------------------------------------------ certify

def _cmd_certify(args) -> int:
    _check(seed=args.seed)
    config = _config(args, ("inequality", "constant", "s", "mu", "space", "grid", "seed"))
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
    _emit(payload, args, [(cert.verdict, cert.constant, cert.worst_slack)],
          ("verdict", "constant", "worst_slack"))
    print(
        f"{cert.inequality} @ {_fmt(cert.constant)}: {cert.verdict} "
        f"(worst_slack={_fmt(cert.worst_slack)}, critical={_fmt(cert.critical)}, "
        f"search_size={cert.search_size}, "
        f"witness_index={cert.witness.get('family_index')})",
        file=sys.stderr,
    )
    return EXIT_PASS if cert.passed else EXIT_FALSIFIED


# ----------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    _check(seed=args.seed)
    model = jsonio.model_from_json(_load_json(args.model))
    paths = simulate_joint(model, args.n, args.samples, seed=args.seed)
    flat = paths.values.reshape(paths.n_paths, -1)
    config = _config(args, ("model", "n", "samples", "seed"))
    if args.format == "json":
        _emit({"config": config, "paths": flat}, args)
    else:
        _emit({"config": config}, args, flat, tuple(f"x{k}" for k in range(flat.shape[1])))
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

def _normal_sample_checks(sample: np.ndarray, mean: float, var: float) -> list:
    """Two-sided tests that ``sample`` is drawn from N(mean, var), each at
    level VERIFY_OU_LEVEL / 2: a z-test of the sample mean with the known
    variance, and a chi^2_{N-1} test of the sample variance."""
    from scipy.special import chdtri, ndtri

    dof = sample.size - 1
    z = (sample.mean() - mean) / math.sqrt(var / sample.size)
    z_crit = -ndtri(VERIFY_OU_LEVEL / 4.0)
    chi2 = dof * sample.var(ddof=1) / var
    lo, hi = chdtri(dof, 1.0 - VERIFY_OU_LEVEL / 4.0), chdtri(dof, VERIFY_OU_LEVEL / 4.0)
    return [
        {"check": "mean", "statistic": z, "lower": -z_crit, "upper": z_crit, "pass": bool(abs(z) <= z_crit)},
        {"check": "variance", "statistic": chi2, "lower": lo, "upper": hi, "dof": dof,
         "pass": bool(lo <= chi2 <= hi)},
    ]


def _cmd_verify_ou(args) -> int:
    _check(seed=args.seed)
    if args.samples < 0 or args.samples == 1:
        raise InputError("--samples must be 0 (no sampling) or at least 2")
    x = args.x or 0.0
    out = constants.ou_kappa(args.rho, args.tau, args.n, x)
    # direct = Var(F_n) from the covariance recursion of (X_k, F_k), where
    # F_k = F_{k-1} + theta X_{k-1} + W_k; its rounding grows like n eps
    theta, sigma2 = out["theta"], out["sigma2"]
    noise = np.full((2, 2), sigma2)
    _, covs = _linear_moments(np.array([[theta, 0.0], [theta, 1.0]]), noise,
                              np.array([theta * x, theta * x]), noise, args.n)
    direct = float(covs[-1][1, 1])
    rel = abs(out["kappa_n"] - direct) / max(abs(direct), 1e-300)
    checks = [{
        "check": "cross-identity",
        "kappa_n": out["kappa_n"],
        "direct": direct,
        "rel_error": rel,
        "pass": rel <= 1e-12 * max(1.0, args.n / 1000.0),
    }]
    mgf = []
    if args.samples > 0:
        fn = simulate_path_sums(OUModel(args.rho, args.tau, x), args.n, args.samples, seed=args.seed)
        checks += _normal_sample_checks(fn, out["mean_Fn"], out["kappa_n"])
        for s in (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0):
            y = s * fn
            top = y.max()
            y -= top
            mgf.append({
                "s": s,
                "empirical": float(top + np.log(np.exp(y, out=y).mean())),
                "target": s * out["mean_Fn"] + s**2 * out["kappa_n"] / 2.0,
            })
    ok = all(c["pass"] for c in checks)
    payload = {
        "config": _config(args, ("rho", "tau", "n", "x", "samples", "seed")),
        "theta": out["theta"],
        "sigma2": out["sigma2"],
        "kappa_n": out["kappa_n"],
        "mean_Fn": out["mean_Fn"],
        "checks": checks,
        "mgf": mgf,
        "verdict": "pass" if ok else "fail",
    }
    rows = [(c["check"], "pass" if c["pass"] else "fail") for c in checks]
    _emit(payload, args, rows, ("check", "verdict"))
    return EXIT_PASS if ok else EXIT_FALSIFIED


# -------------------------------------------------------------- verify-arma

def _cmd_verify_arma(args) -> int:
    _check(tol=args.tol)
    A = np.asarray(_load_json(args.A), float)
    B = np.asarray(_load_json(args.B), float) if args.B else np.eye(A.shape[0])
    alpha = constants.arma_lsi_alpha(A, B)
    model = ARMAModel(A, B)
    # horizon k's law is the leading km x km block of horizon n's
    joint, m = gaussian_chain_joint(model, args.n), model.dim
    checks = []
    for k in range(1, args.n + 1):
        block = GaussianMeasure(joint.mean[: k * m], joint.cov[: k * m, : k * m])
        exact = constants.gaussian_sharp_alpha(block)
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
    parser.commands = sub.choices  # each subcommand's own parser, by name (see main)

    p = sub.add_parser("constants", help="evaluate closed-form inequality constants")
    p.add_argument("--formula", required=True, choices=sorted(_FORMULAS) + ["arma", "ou"])
    p.add_argument("--n", type=int, nargs="+", default=(1,))
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

    p = sub.add_parser("verify-ou", help="OU constants: identity check and exact tests of F_n's law")
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


# one parser for every main call: parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    level = os.environ.get("CONCENTRA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            # the subcommand's parser reads its arguments directly: through
            # the top-level parser each string is converted once more first,
            # 40 % of the parse for a 200-horizon `constants --n`
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
