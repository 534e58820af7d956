"""CSV ingestion, period splitting, min-max scaling, and windowing."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modecast.series_io import (
    NormalizationParams,
    load_csv,
    make_windows,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    split_periods,
)


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- load_csv -------------------------------------------------------------------


def test_load_identity_ingestion(tmp_path):
    path = write(tmp_path, "date,close\n2020-01-01,1.0\n2020-01-02,2.0\n2020-01-03,3.0\n")
    series = load_csv(path, "close")
    assert len(series) == 3
    assert np.array_equal(series.values, [1.0, 2.0, 3.0])
    assert series.dropped_rows == 0


def test_load_drops_unparseable_value_rows(tmp_path):
    path = write(
        tmp_path,
        "date,close\n2020-01-01,1.0\n2020-01-02,oops\n2020-01-03,3.0\n2020-01-04,4.0\n",
    )
    series = load_csv(path, "close")
    assert len(series) == 3
    assert series.dropped_rows == 1
    assert np.array_equal(series.values, [1.0, 3.0, 4.0])


def test_load_sorts_descending_dates_ascending(tmp_path):
    path = write(tmp_path, "date,close\n2020-01-03,3.0\n2020-01-02,2.0\n2020-01-01,1.0\n")
    series = load_csv(path, "close")
    assert np.array_equal(series.values, [1.0, 2.0, 3.0])
    assert series.dates[0].isoformat() == "2020-01-01"


def test_load_missing_file():
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        load_csv("nope.csv", "close")


def test_load_missing_column(tmp_path):
    path = write(tmp_path, "date,open\n2020-01-01,1.0\n")
    with pytest.raises(ValueError, match="close"):
        load_csv(path, "close")


def test_load_zero_valid_rows(tmp_path):
    path = write(tmp_path, "date,close\n2020-01-01,abc\n2020-01-02,def\n")
    with pytest.raises(ValueError, match="no valid rows"):
        load_csv(path, "close")


def test_load_rejects_non_iso_dates(tmp_path):
    path = write(tmp_path, "date,close\n01/02/2020,1.0\n01/03/2020,2.0\n")
    with pytest.raises(ValueError, match="YYYY-MM-DD"):
        load_csv(path, "close")


def test_load_rejects_duplicate_dates(tmp_path):
    path = write(tmp_path, "date,close\n2020-01-01,1.0\n2020-01-01,2.0\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        load_csv(path, "close")


# -- split_periods ----------------------------------------------------------------


def test_split_100_into_5_blocks_of_20():
    splits = split_periods(100, 5, 0.8)
    assert len(splits) == 5
    for p, s in enumerate(splits):
        assert s.train_size == 16
        assert s.test[1] - s.test[0] == 4
        assert s.start == p * 20


def test_split_single_period():
    (s,) = split_periods(10, 1, 0.8)
    assert s.train == (0, 8)
    assert s.test == (8, 10)


def test_split_accepts_a_numpy_integer_length():
    # a length read off an array shape or a sum arrives as np.int64
    for n in (np.int64(600), np.int32(600), np.uint16(600)):
        splits = split_periods(n, 1, 0.8)
        assert splits == split_periods(600, 1, 0.8)
        assert all(type(i) is int for s in splits for i in s.train + s.test)


def test_split_remainder_goes_to_earliest_blocks():
    splits = split_periods(101, 5, 0.8)
    sizes = [s.stop - s.start for s in splits]
    assert sizes == [21, 20, 20, 20, 20]


def test_split_is_a_partition():
    for n, k in [(100, 5), (103, 4), (57, 3), (999, 7)]:
        splits = split_periods(n, k, 0.75)
        covered = []
        for s in splits:
            covered.extend(range(*s.train))
            covered.extend(range(*s.test))
        assert covered == list(range(n))


def test_split_train_fraction_floor():
    # floor semantics, with exact-integer products kept exact
    (s,) = split_periods(10, 1, 0.7)
    assert s.train_size == 7


def test_split_too_short_series():
    with pytest.raises(ValueError, match="too short"):
        split_periods(20, 5, 0.8)


# -- min-max normalization ----------------------------------------------------------


def test_minmax_fit_examples():
    p = minmax_fit(np.array([2.0, 4.0, 6.0]))
    assert (p.min, p.max) == (2.0, 6.0)
    p = minmax_fit(np.array([-1.0, 0.0, 3.0]))
    assert (p.min, p.max) == (-1.0, 3.0)


def test_minmax_fit_degenerate_flag():
    with pytest.warns(UserWarning, match="degenerate"):
        p = minmax_fit(np.array([5.0, 5.0, 5.0]))
    assert p.degenerate
    assert (p.min, p.max) == (5.0, 5.0)


def test_minmax_fit_empty():
    with pytest.raises(ValueError):
        minmax_fit(np.array([]))


def test_minmax_apply_examples():
    p = NormalizationParams(2.0, 6.0)
    assert np.allclose(minmax_apply(np.array([2.0, 4.0, 6.0]), p), [0.0, 0.5, 1.0])
    # out-of-range values extrapolate, no clamping
    assert np.allclose(minmax_apply(np.array([8.0]), p), [1.5])


def test_minmax_apply_degenerate_maps_to_zero():
    p = NormalizationParams(5.0, 5.0)
    with pytest.warns(UserWarning):
        out = minmax_apply(np.array([4.0, 5.0, 6.0]), p)
    assert np.array_equal(out, np.zeros(3))


def test_minmax_invert_examples():
    p = NormalizationParams(2.0, 6.0)
    assert np.allclose(minmax_invert(np.array([0.0, 0.5, 1.0]), p), [2.0, 4.0, 6.0])
    degenerate = NormalizationParams(5.0, 5.0)
    assert np.array_equal(minmax_invert(np.array([0.3]), degenerate), [5.0])


def test_minmax_round_trip_random_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=100.0, size=1000) + 40.0
    p = minmax_fit(x)
    back = minmax_invert(minmax_apply(x, p), p)
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-12


def test_minmax_apply_of_fitted_array_is_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=50) * rng.uniform(0.1, 100)
        out = minmax_apply(x, minmax_fit(x))
        assert out.min() >= 0.0 and out.max() <= 1.0


def _per_call_warnings(fn, *args):
    """``fn(*args)`` and the messages of the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@given(
    k=st.integers(1, 5), n=st.integers(2, 40), blocks=st.integers(1, 3),
    width=st.integers(1, 12), seed=st.integers(0, 2**16),
    constant=st.lists(st.booleans(), min_size=5, max_size=5).filter(any),
)
def test_minmax_rows_match_each_row_alone(k, n, blocks, width, seed, constant):
    """Fit, apply and invert over a ``[K, n]`` array (applied to ``[blocks,
    K, width]`` windows, as the forecast does) give the bytes each row gets
    alone, and a non-constant row the bytes of ``(x - min) / (max - min)``;
    any constant row makes fit and apply warn once per call."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(k, n)) * rng.uniform(0.01, 100.0, size=(k, 1)) + rng.normal(size=(k, 1))
    constant = np.array(constant[:k])
    constant[rng.integers(k)] = True
    x[constant] = rng.normal(size=(int(constant.sum()), 1))
    windows = rng.normal(size=(blocks, k, width)) * 3.0 * np.abs(x).max()

    params, fit_warnings = _per_call_warnings(minmax_fit, x)
    assert params.min.shape == params.max.shape == (k, 1)
    assert np.array_equal(params.degenerate[:, 0], constant)
    scaled, apply_warnings = _per_call_warnings(minmax_apply, windows, params)
    inverted, invert_warnings = _per_call_warnings(minmax_invert, scaled, params)
    assert len(fit_warnings) == 1 and "degenerate" in fit_warnings[0]
    assert len(apply_warnings) == 1 and "degenerate" in apply_warnings[0]
    assert invert_warnings == []

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in range(k):
            alone = minmax_fit(x[m])
            assert params.min[m].tobytes() == alone.min.tobytes()
            assert params.max[m].tobytes() == alone.max.tobytes()
            lo, hi = float(x[m].min()), float(x[m].max())
            for b in range(blocks):
                row_scaled = minmax_apply(windows[b, m], alone)
                assert scaled[b, m].tobytes() == row_scaled.tobytes()
                if not constant[m]:  # the scalar formula, to the bit
                    assert row_scaled.tobytes() == ((windows[b, m] - lo) / (hi - lo)).tobytes()
                row_inverted = minmax_invert(row_scaled, alone)
                assert inverted[b, m].tobytes() == row_inverted.tobytes()
    assert np.all(scaled[:, constant] == 0.0)
    assert np.all(inverted[:, constant] == params.min[constant])


# -- windowing -------------------------------------------------------------------


def test_window_count_formula():
    batch = make_windows(np.zeros((10, 1)), 4, 1)
    assert len(batch.inputs) == 6


def test_window_boundary_case():
    data = np.arange(5.0)[:, None]
    batch = make_windows(data, 4, 1)
    assert len(batch.inputs) == 1
    assert np.array_equal(batch.inputs[0, :, 0], [0, 1, 2, 3])
    assert np.array_equal(batch.targets[0, :, 0], [4])


def test_window_too_short_errors():
    with pytest.raises(ValueError, match="too short"):
        make_windows(np.zeros((4, 1)), 4, 1)


def test_window_rejects_a_1d_series():
    # one series is one channel: values[:, None]
    with pytest.raises(ValueError, match=r"expected \[n, channels\] data, got shape \(10,\)"):
        make_windows(np.zeros(10), 4, 1)


def test_window_content_alignment_multichannel():
    n, m = 12, 3
    data = np.arange(n * m, dtype=float).reshape(n, m)
    batch = make_windows(data, 5, 2)
    assert len(batch.inputs) == n - 5 - 2 + 1
    for b in range(len(batch.inputs)):
        assert np.array_equal(batch.inputs[b], data[b: b + 5])
        assert np.array_equal(batch.targets[b], data[b + 5: b + 7])


def test_windows_are_read_only_views_of_the_modes():
    # the pipeline windows [K, n] modes through their transpose: no window
    # is copied, and writing into one raises rather than changing the modes
    modes = np.random.default_rng(8).normal(size=(3, 40))
    before = modes.copy()
    batch = make_windows(modes.T, 8, 2)
    for part in (batch.inputs, batch.targets):
        assert np.shares_memory(part, modes)
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0, 0] = 1.0
    assert np.array_equal(modes, before)
    # the values of the contiguous copies the views replace
    starts = range(40 - 8 - 2 + 1)
    assert np.array_equal(batch.inputs, np.stack([modes.T[b: b + 8] for b in starts]))
    assert np.array_equal(batch.targets, np.stack([modes.T[b + 8: b + 10] for b in starts]))


@pytest.mark.parametrize("n,lookback,horizon", [(10, 4, 1), (30, 7, 3), (100, 20, 5)])
def test_window_count_property(n, lookback, horizon):
    batch = make_windows(np.zeros((n, 2)), lookback, horizon)
    assert len(batch.inputs) == n - lookback - horizon + 1
