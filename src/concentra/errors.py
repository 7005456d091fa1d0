"""Exception types shared across the package, and its one input check.

``_check(**params)`` is the only place that decides whether a named
parameter is in range; each entry point calls it once, by keyword, on its
inputs. Rules apply elementwise to arrays and sequences, and NaN and
+-inf fail every rule: the names in ``_COUNTS`` are integers >= 1 (not
``True``; a sequence of them is checked entry by entry, so a bool or a
float among integers fails), ``seed`` is an integer in [0, 2**128) (the
range NumPy's seed sequences accept), those in
``_ORDERS`` lie in [1, 2], those in ``_POSITIVE`` are finite and > 0, those
in ``_REAL`` are finite, and every other name is finite and >= 0. It stays
private, so tools that wrap a module's public functions leave it alone.
"""
from __future__ import annotations

import math
import numbers

import numpy as np


class InputError(ValueError):
    """Invalid user-supplied data (bad measure, mismatched spaces, bad constant)."""


class SolverError(RuntimeError):
    """An exact solver failed to converge; carries diagnostic detail."""


_COUNTS = frozenset({"n", "N", "factors"})
_ORDERS = frozenset({"s", "order"})
_POSITIVE = frozenset({"kappa1", "alpha", "M", "epsilon", "tau", "tol", "kappa", "sigma2", "init_var", "density"})
_REAL = frozenset({"rho", "theta", "init_mean", "A", "B", "mean", "cov", "t_grid", "grid", "x"})


def _is_count(v) -> bool:
    if type(v) is int:  # the common case, without the ABC check
        return v >= 1
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def _is_seed(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v < 2**128


# each rule's text and its elementwise test, which NaN fails
_COUNT = ("an integer >= 1", _is_count)
_SEED = ("an integer in [0, 2**128)", _is_seed)
_IN_ORDER = ("in [1, 2]", lambda v: (1.0 <= v) & (v <= 2.0))
_FINITE_POSITIVE = ("finite and > 0", lambda v: (0.0 < v) & (v < math.inf))
_FINITE = ("finite", lambda v: (-math.inf < v) & (v < math.inf))
_FINITE_NONNEGATIVE = ("finite and >= 0", lambda v: (0.0 <= v) & (v < math.inf))


def _rule(name: str):
    if name in _COUNTS:
        return _COUNT
    if name == "seed":
        return _SEED
    if name in _ORDERS:
        return _IN_ORDER
    if name in _POSITIVE:
        return _FINITE_POSITIVE
    return _FINITE if name in _REAL else _FINITE_NONNEGATIVE


def _check(**params) -> None:
    """Raise ``InputError`` naming the first parameter that breaks its rule
    and, in an array, its first bad entry."""
    for name, v in params.items():
        rule, holds = _rule(name)
        if isinstance(v, numbers.Real):
            if not holds(v):
                raise InputError(f"{name} must be {rule}, got {v!r}")
            continue
        if holds in (_is_count, _is_seed):
            try:
                entries = v.ravel().tolist() if isinstance(v, np.ndarray) and v.dtype.kind in "iu" else list(v)
            except TypeError:
                raise InputError(f"{name} must be {rule}, got {v!r}") from None
            ok = list(map(_is_count, entries))
            if not all(ok):
                k = ok.index(False)
                raise InputError(f"{name} must be {rule}, got {entries[k]!r} at {name}[{k}]")
            continue
        try:
            a = np.atleast_1d(np.asarray(v, dtype=float))
        except (TypeError, ValueError):
            raise InputError(f"{name} must be real-valued") from None
        ok = holds(a)
        if not np.all(ok):
            k = int(np.argmin(ok))
            where = ", ".join(str(int(i)) for i in np.unravel_index(k, a.shape))
            raise InputError(f"{name} must be {rule}, got {float(a.flat[k])!r} at {name}[{where}]")
