"""Shared test helpers: finite-difference gradients and error measures, a
forecast CSV reader, and the hypothesis profile every property test runs
under."""

from __future__ import annotations

import csv

import numpy as np
from hypothesis import settings

# Fixed examples (derandomize) and no per-example deadline: the suite must give
# the same verdict on every run, however loaded the machine is.  With fixed
# examples there is nothing for an example database to replay.
settings.register_profile(
    "modecast", deadline=None, derandomize=True, max_examples=60, database=None
)
settings.load_profile("modecast")


def rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-6) -> float:
    """Max absolute deviation normalized by the oracle's magnitude.

    The floor keeps exactly-zero gradients (e.g. a bias feeding batch norm,
    which cancels per-feature shifts) from dividing finite-difference noise
    (~1e-10 at h=1e-6) by itself.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want))) / scale


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x (x is mutated in
    place during probing and restored afterwards)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def forecast_csv_columns(path) -> tuple[np.ndarray, np.ndarray]:
    """The ``actual`` and ``predicted`` columns of a ``t,actual,predicted``
    forecast CSV, each value parsed by ``float``."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["actual"]) for r in rows]),
            np.array([float(r["predicted"]) for r in rows]))
