"""Price-series ingestion, period splitting, min-max scaling and windowing.

Everything here is a pure function over immutable inputs; callers may invoke
them from any number of workers without synchronization.
"""

from __future__ import annotations

import csv
import datetime
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PriceSeries",
    "PeriodSplit",
    "NormalizationParams",
    "WindowBatch",
    "load_csv",
    "split_periods",
    "minmax_fit",
    "minmax_apply",
    "minmax_invert",
    "make_windows",
]


@dataclass(frozen=True)
class PriceSeries:
    """Strictly date-ordered univariate price observations."""

    dates: tuple[datetime.date, ...]
    values: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        if len(self.values) < 2:
            raise ValueError("a price series needs at least 2 observations")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ValueError(f"dates not strictly increasing at {a} -> {b}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PeriodSplit:
    """One contiguous experiment period: train indices immediately followed by
    test indices, as half-open ranges into the full series."""

    period_index: int
    train: tuple[int, int]
    test: tuple[int, int]

    @property
    def start(self) -> int:
        return self.train[0]

    @property
    def stop(self) -> int:
        return self.test[1]

    @property
    def train_size(self) -> int:
        return self.train[1] - self.train[0]


@dataclass(frozen=True)
class NormalizationParams:
    """Min and max of each row of the fitted array, along its last axis with
    that axis kept (``[K, 1]`` for a ``[K, n]`` array), so they broadcast
    over the rows they scale; a row whose max equals its min is degenerate."""

    min: np.ndarray
    max: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.max <= self.min

    @property
    def range(self) -> np.ndarray:
        return self.max - self.min


@dataclass(frozen=True)
class WindowBatch:
    """Supervised windows at unit stride: ``inputs[b]`` covers source rows
    ``[b, b+lookback)`` and ``targets[b]`` rows ``[b+lookback, b+lookback+horizon)``."""

    inputs: np.ndarray   # [batch, lookback, channels]
    targets: np.ndarray  # [batch, horizon, channels]


def load_csv(path, column: str, date_column: str = "date") -> PriceSeries:
    """Read one value column of a headered CSV into a date-sorted series.

    Rows whose value fails to parse as a finite float are dropped and counted
    in ``dropped_rows``.
    Dates must be ISO-8601 (``YYYY-MM-DD``); any other format is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if date_column not in header:
            raise ValueError(f"{path}: missing date column {date_column!r} (header: {header})")
        if column not in header:
            raise ValueError(f"{path}: missing value column {column!r} (header: {header})")
        rows: list[tuple[datetime.date, float]] = []
        dropped = 0
        for record in reader:
            raw_date = (record.get(date_column) or "").strip()
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise ValueError(
                    f"{path}: unparseable date {raw_date!r} (expected YYYY-MM-DD)"
                ) from None
            raw_value = (record.get(column) or "").strip()
            try:
                value = float(raw_value)
            except ValueError:
                dropped += 1
                continue
            if not np.isfinite(value):
                dropped += 1
                continue
            rows.append((date, value))
    if not rows:
        raise ValueError(f"{path}: no valid rows in column {column!r}")
    rows.sort(key=lambda r: r[0])
    dates = tuple(r[0] for r in rows)
    values = np.array([r[1] for r in rows], dtype=np.float64)
    return PriceSeries(dates=dates, values=values, dropped_rows=dropped)


def split_periods(n_samples: int, n_periods: int, train_fraction: float) -> list[PeriodSplit]:
    """Partition the index range of an ``n_samples``-long series into
    ``n_periods`` contiguous blocks whose sizes differ by at most one
    (remainder goes to the earliest blocks); within each block the first
    ``floor(train_fraction * block)`` indices are train."""
    n = int(n_samples)
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if n < n_periods * 5:
        raise ValueError(f"series too short: {n} samples for {n_periods} periods")
    base, remainder = divmod(n, n_periods)
    splits: list[PeriodSplit] = []
    start = 0
    for p in range(n_periods):
        size = base + (1 if p < remainder else 0)
        # the epsilon keeps exact-integer products (e.g. 0.7 * 10) from
        # flooring one short under binary rounding
        train_size = int(train_fraction * size + 1e-9)
        if train_size < 1 or train_size >= size:
            raise ValueError(
                f"period {p}: train fraction {train_fraction} leaves an empty split"
            )
        splits.append(
            PeriodSplit(
                period_index=p,
                train=(start, start + train_size),
                test=(start + train_size, start + size),
            )
        )
        start += size
    return splits


def minmax_fit(values: np.ndarray) -> NormalizationParams:
    """Record the min and max of each row (the last axis) of a non-empty
    array."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit normalization on an empty array")
    params = NormalizationParams(
        min=values.min(axis=-1, keepdims=True), max=values.max(axis=-1, keepdims=True)
    )
    if np.any(params.degenerate):
        warnings.warn("constant array: min-max normalization is degenerate", stacklevel=2)
    return params


def minmax_apply(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Scale each row by (x - min) / (max - min).  Values outside the fitted
    range map outside [0, 1] on purpose (test data may exceed the train
    range).  A degenerate row maps to zero."""
    values = np.asarray(values, dtype=np.float64)
    degenerate = params.degenerate
    if np.any(degenerate):
        warnings.warn("degenerate normalization: mapping all values to 0", stacklevel=2)
    scaled = (values - params.min) / np.where(degenerate, 1.0, params.range)
    return np.where(degenerate, 0.0, scaled)


def minmax_invert(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Inverse of :func:`minmax_apply`; a degenerate row inverts to its
    constant minimum."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(params.degenerate, params.min, values * params.range + params.min)


def make_windows(channels: np.ndarray, lookback: int, horizon: int) -> WindowBatch:
    """Build all unit-stride supervised windows from a ``[n, channels]`` array."""
    channels = np.asarray(channels, dtype=np.float64)
    if channels.ndim != 2:
        raise ValueError(f"expected [n, channels] data, got shape {channels.shape}")
    n = channels.shape[0]
    if lookback < 1 or horizon < 1:
        raise ValueError("lookback and horizon must be >= 1")
    if n < lookback + horizon:
        raise ValueError(
            f"series of length {n} too short for lookback {lookback} + horizon {horizon}"
        )
    n_windows = n - lookback - horizon + 1
    view = np.lib.stride_tricks.sliding_window_view(channels, lookback + horizon, axis=0)
    # view: [n_windows, channels, lookback+horizon] -> [b, t, c]
    stacked = view.transpose(0, 2, 1)[:n_windows]
    inputs = np.ascontiguousarray(stacked[:, :lookback, :])
    targets = np.ascontiguousarray(stacked[:, lookback:, :])
    return WindowBatch(inputs=inputs, targets=targets)
