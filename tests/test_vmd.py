"""Mode decomposition: mirror extension, ADMM update pieces, and full decompositions."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modecast.synthetic import trend_two_tone
from modecast.vmd import (
    VmdConfig,
    VmdResult,
    _initial_omegas,
    converged,
    decompose,
    mirror_extend,
    update_lambda,
    update_omega,
    write_decomposition_metadata,
)


# -- mirror extension ----------------------------------------------------------


def test_mirror_examples():
    out = mirror_extend(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out, [2, 1, 1, 2, 3, 4, 4, 3])


def test_mirror_symmetric_input_stays_symmetric():
    x = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    out = mirror_extend(x)
    assert np.array_equal(out, out[::-1])


@pytest.mark.parametrize("n", [2, 3, 7, 50, 101])
def test_mirror_center_recovers_input(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    out = mirror_extend(x)
    assert out.shape == (2 * n,)
    assert np.array_equal(out[n // 2: n // 2 + n], x)


def test_mirror_rejects_short_input():
    with pytest.raises(ValueError):
        mirror_extend(np.array([1.0]))


# -- ADMM update pieces ---------------------------------------------------------
# update_mode_spectrum is the full-grid reference's per-mode update (below);
# decompose runs the same arithmetic in place.


def _grid(n):
    return np.arange(n) / n


def test_mode_update_vanishes_for_large_alpha_off_center():
    n = 64
    freqs = _grid(n)
    f_hat = np.ones(n, dtype=complex)
    out = update_mode_spectrum(f_hat, np.zeros(n, complex), np.zeros(n, complex),
                               omega=0.25, alpha=1e12, freqs=freqs)
    off = np.abs(freqs - 0.25) > 1e-9
    assert np.all(np.abs(out[off]) < 1e-6)


def test_mode_update_equals_numerator_at_center_bin():
    n = 64
    freqs = _grid(n)
    rng = np.random.default_rng(0)
    f_hat = rng.normal(size=n) + 1j * rng.normal(size=n)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    others = rng.normal(size=n) + 1j * rng.normal(size=n)
    omega = freqs[16]
    out = update_mode_spectrum(f_hat, lam, others, omega, alpha=2000.0, freqs=freqs)
    numerator = f_hat - others + lam / 2.0
    assert out[16] == numerator[16]
    assert np.all(np.abs(out) <= np.abs(numerator) + 1e-15)


def test_mode_update_single_tone_scalar_oracle():
    # K=1, zero dual: the peak bin keeps gain 1 / (1 + 2*alpha*(dv)^2)
    n = 128
    freqs = _grid(n)
    f_hat = np.zeros(n, dtype=complex)
    f_hat[8] = 3.0 - 1.5j
    omega = freqs[8] + 0.05
    alpha = 312.5
    out = update_mode_spectrum(f_hat, np.zeros(n, complex), np.zeros(n, complex),
                               omega, alpha, freqs)
    expected = (3.0 - 1.5j) / (1.0 + 2.0 * alpha * 0.05**2)
    assert abs(out[8] - expected) < 1e-12


def _centroid(spectrum, freqs, fallback=0.0):
    """``update_omega`` on one spectrum: its centre as a float."""
    centres, _totals = update_omega(np.abs(spectrum[None]) ** 2, freqs, [fallback])
    return float(centres[0])


def test_omega_rows_are_independent_and_report_their_power():
    n = 100
    freqs = _grid(n)
    spectra = np.zeros((3, n), dtype=complex)
    spectra[0, 10] = 2.0     # freq 0.1
    spectra[2, 30] = 1.0     # freq 0.3; row 1 has no power
    power = np.abs(spectra) ** 2
    centres, totals = update_omega(power, freqs, [0.7, 0.8, 0.9])
    assert centres.tolist() == [_centroid(spectra[0], freqs), 0.8, _centroid(spectra[2], freqs)]
    assert totals.tolist() == [4.0, 0.0, 1.0]


def test_omega_single_bin_centroid():
    n = 100
    freqs = _grid(n)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[10] = 2.0  # freq 0.1
    assert _centroid(spectrum, freqs) == pytest.approx(0.1)


def test_omega_two_equal_bins_average():
    n = 100
    freqs = _grid(n)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[10] = 1.0   # 0.1
    spectrum[30] = 1.0   # 0.3
    assert _centroid(spectrum, freqs) == pytest.approx(0.2)


def test_omega_matches_direct_summation_oracle():
    n = 256
    freqs = _grid(n)
    rng = np.random.default_rng(5)
    spectrum = np.zeros(n, dtype=complex)
    half = n // 2
    spectrum[:half] = rng.normal(size=half) + 1j * rng.normal(size=half)
    got = _centroid(spectrum, freqs)
    num = 0.0
    den = 0.0
    for i in range(half):
        p = abs(spectrum[i]) ** 2
        num += freqs[i] * p
        den += p
    assert abs(got - num / den) / (num / den) < 1e-12


def test_omega_zero_power_falls_back():
    n = 64
    assert _centroid(np.zeros(n, complex), _grid(n), fallback=0.37) == 0.37


def test_lambda_zero_tau_is_identity():
    rng = np.random.default_rng(1)
    lam = rng.normal(size=32) + 1j * rng.normal(size=32)
    out = update_lambda(lam, rng.normal(size=32) + 0j, rng.normal(size=32) + 0j, tau=0.0)
    assert np.array_equal(out, lam)


def test_lambda_unit_tau_single_step_equals_residual():
    rng = np.random.default_rng(2)
    f = rng.normal(size=32) + 1j * rng.normal(size=32)
    s = rng.normal(size=32) + 1j * rng.normal(size=32)
    out = update_lambda(np.zeros(32, complex), f, s, tau=1.0)
    assert np.allclose(out, f - s)


def test_lambda_two_steps_match_doubled_tau():
    rng = np.random.default_rng(3)
    f = rng.normal(size=16) + 0j
    s = rng.normal(size=16) + 0j
    lam0 = np.zeros(16, complex)
    twice = update_lambda(update_lambda(lam0, f, s, 0.3), f, s, 0.3)
    once = update_lambda(lam0, f, s, 0.6)
    assert np.allclose(twice, once)


def _stop(prev, nxt, tol):
    """``converged`` on two iterates [K, n]: their squared norms per mode."""
    return converged(
        np.sum(np.abs(nxt - prev) ** 2, axis=-1), np.sum(np.abs(prev) ** 2, axis=-1), tol
    )


def test_converged_identical_iterates():
    rng = np.random.default_rng(4)
    modes = rng.normal(size=(3, 50)) + 1j * rng.normal(size=(3, 50))
    done, residual = _stop(modes, modes.copy(), tol=1e-7)
    assert done and residual == 0.0


def test_converged_single_mode_scaling_perturbation():
    rng = np.random.default_rng(5)
    modes = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    delta = 1e-3
    nxt = modes.copy()
    nxt[0] *= 1.0 + delta
    _, residual = _stop(modes, nxt, tol=1e-12)
    assert residual == pytest.approx(delta**2, rel=1e-9)


def test_converged_matches_direct_summation_oracle():
    rng = np.random.default_rng(6)
    prev = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40))
    nxt = prev + 0.01 * (rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40)))
    _, residual = _stop(prev, nxt, tol=0.1)
    oracle = 0.0
    for m in range(4):
        num = sum(abs(nxt[m, i] - prev[m, i]) ** 2 for i in range(40))
        den = sum(abs(prev[m, i]) ** 2 for i in range(40))
        oracle += num / den
    assert abs(residual - oracle) / oracle < 1e-12


def test_converged_excludes_zero_norm_modes():
    prev = np.zeros((2, 16), dtype=complex)
    prev[0, 3] = 1.0
    nxt = prev.copy()
    nxt[1, 4] = 5.0  # dead mode waking up is excluded from the sum
    done, residual = _stop(prev, nxt, tol=1e-7)
    assert done and residual == 0.0


# -- full decomposition ----------------------------------------------------------


def two_tone(n=2000):
    t = np.arange(n)
    return np.sin(2 * np.pi * 0.01 * t) + 0.5 * np.sin(2 * np.pi * 0.1 * t)


def _make_signal(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "noise":
        return rng.normal(size=n)
    if kind == "walk":
        return np.cumsum(rng.normal(size=n))
    t = np.arange(n)
    x = 0.1 * rng.normal(size=n)
    for _ in range(rng.integers(1, 4)):
        amplitude, freq, phase = rng.uniform(0.2, 2.0), rng.uniform(0.0, 0.5), rng.uniform(0, 6.3)
        x += amplitude * np.sin(2 * np.pi * freq * t + phase)
    return x


@st.composite
def signals(draw, min_len: int = 2, max_len: int = 600):
    """Finite real signals of every kind the pipeline feeds VMD: noisy tones,
    random walks (price-like), white noise and constants; odd lengths included."""
    n = draw(st.integers(min_len, max_len), label="n")
    kind = draw(st.sampled_from(["tones", "walk", "noise", "constant"]), label="kind")
    return _make_signal(kind, n, draw(st.integers(0, 2**32 - 1), label="seed"))


def test_constant_signal_dc_mode():
    signal = np.full(200, 7.5)
    result = decompose(signal, VmdConfig(n_modes=2))
    assert result.omegas[0] == pytest.approx(0.0, abs=1e-6)
    assert np.max(np.abs(result.modes[0] - 7.5)) < 1e-9
    assert np.linalg.norm(result.modes[1]) < 1e-6 * np.linalg.norm(signal)


def test_two_tone_recovery_and_reconstruction():
    signal = two_tone()
    result = decompose(signal, VmdConfig(n_modes=2, alpha=2000.0, tau=0.0))
    # frequency oracle: FFT peaks of the ground-truth construction
    spectrum = np.abs(np.fft.rfft(signal))
    peaks = np.sort(np.argsort(spectrum)[-2:]) / len(signal)
    assert abs(result.omegas[0] - peaks[0]) / peaks[0] < 0.10
    assert abs(result.omegas[1] - peaks[1]) / peaks[1] < 0.10
    err = np.linalg.norm(result.reconstruction() - signal) / np.linalg.norm(signal)
    # boundary leakage keeps the plain norm ratio near 3.3e-2 at these
    # settings (the reference fixpoint); pin it so quality cannot regress
    assert err < 3.4e-2
    energy_err = err**2
    assert energy_err < 2e-2


def test_single_mode_band_limited_reconstruction():
    # low-pass synthetic: smooth signal built from slow tones
    t = np.arange(1500)
    signal = (
        np.sin(2 * np.pi * 0.01 * t)
        + 0.4 * np.sin(2 * np.pi * 0.013 * t + 0.5)
        + 0.2 * np.sin(2 * np.pi * 0.008 * t + 1.1)
    )
    result = decompose(signal, VmdConfig(n_modes=1, alpha=200.0))
    err = np.linalg.norm(result.reconstruction() - signal) / np.linalg.norm(signal)
    assert err < 5e-2


def test_decompose_deterministic_bitwise():
    signal = two_tone(600)
    cfg = VmdConfig(n_modes=3, alpha=500.0)
    a = decompose(signal, cfg)
    b = decompose(signal, cfg)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.omegas, b.omegas)
    assert a.iterations == b.iterations
    assert a.final_residual == b.final_residual


@given(signal=signals(min_len=8, max_len=500), max_iter=st.integers(1, 500))
def test_omegas_in_range_at_every_iteration(signal, max_iter):
    # a drawn iteration cap makes the final centres any sweep's iterate
    result = decompose(signal, VmdConfig(n_modes=4, alpha=800.0, max_iter=max_iter))
    assert result.omegas.shape == (4,)
    assert np.all(result.omegas >= 0.0)
    assert np.all(result.omegas <= 0.5)
    assert np.all(np.isfinite(result.omegas))


@given(signal=signals(min_len=6, max_len=800))
def test_sorted_modes_are_consistent_with_their_centroids(signal):
    result = decompose(signal, VmdConfig(n_modes=3, alpha=1000.0))
    assert np.all(np.diff(result.omegas) >= 0)
    # re-derive each mode's centroid from scratch and check the pairing
    for mode, omega in zip(result.modes, result.omegas):
        spectrum = np.fft.fft(mirror_extend(mode))
        m = len(spectrum)
        freqs = np.arange(m) / m
        half = m // 2
        power = np.abs(spectrum[:half]) ** 2
        if power.sum() < 1e-12:
            continue
        centroid = float(np.dot(freqs[:half], power) / power.sum())
        assert abs(centroid - omega) < 0.02


def test_energy_sanity_bound():
    rng = np.random.default_rng(12)
    for signal in (
        two_tone(400),
        np.full(100, 3.0),
        rng.normal(size=300),
        np.cumsum(rng.normal(size=500)),
    ):
        result = decompose(signal, VmdConfig(n_modes=3, alpha=2000.0))
        mode_energy = sum(np.linalg.norm(m) ** 2 for m in result.modes)
        assert mode_energy <= 4.0 * np.linalg.norm(signal) ** 2
        assert np.isfinite(result.final_residual)


@given(data=st.data())
def test_converged_reconstruction_error_stays_below_the_signal(data):
    # The modes do not sum to the signal: narrow bands leave out what lies
    # between them, and tau > 0 does not close the gap either.  The bound is
    # measured: 3,000 draws of this grid (n 2K-40 for half of them, 2K-600
    # for the rest), of which 1,927 converged, gave a largest relative error
    # of 0.9975 (K=1, alpha 2000, a tone far from the mode's centre).  Below 1
    # is what Wiener filters promise: at a tau = 0 fixpoint each one-sided
    # bin's residual is the signal's bin over 1 + sum_m 1/w_m, with
    # w_m = 2*alpha*(v - omega_m)^2 >= 0.
    k = data.draw(st.integers(1, 5), label="n_modes")
    signal = data.draw(signals(min_len=2 * k), label="signal")
    config = VmdConfig(
        n_modes=k,
        alpha=data.draw(st.sampled_from([200.0, 2000.0]), label="alpha"),
        tau=data.draw(st.sampled_from([0.0, 0.1]), label="tau"),
    )
    result = decompose(signal, config)
    assume(result.converged)
    error = np.linalg.norm(result.reconstruction() - signal) / np.linalg.norm(signal)
    assert error < 1.0


def test_residual_reported_and_convergence_flagged():
    result = decompose(two_tone(400), VmdConfig(n_modes=2, max_iter=3))
    assert not result.converged
    assert result.iterations == 3
    result = decompose(two_tone(400), VmdConfig(n_modes=2))
    assert result.converged
    assert result.final_residual < 1e-7


def test_decompose_input_validation():
    with pytest.raises(ValueError, match="non-finite"):
        decompose(np.array([1.0, np.nan, 2.0, 3.0]), VmdConfig(n_modes=1))
    with pytest.raises(ValueError, match="too short"):
        decompose(np.ones(5), VmdConfig(n_modes=3))


def test_omega_init_variants_are_deterministic():
    signal = two_tone(400)
    for init in ("uniform", "zero"):
        cfg = VmdConfig(n_modes=2, omega_init=init)
        assert np.array_equal(
            decompose(signal, cfg).modes, decompose(signal, cfg).modes
        )


@pytest.mark.parametrize("max_iter", [1, 3])
def test_metadata_is_strict_json(tmp_path, max_iter):
    # one sweep leaves the stopping rule without a residual (inf), which has
    # no JSON spelling; it is written as null
    config = VmdConfig(n_modes=3, max_iter=max_iter)
    result = decompose(two_tone(400), config)
    path = tmp_path / "decomposition_meta.json"
    write_decomposition_metadata(path, config, result)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    meta = json.loads(path.read_text(), parse_constant=reject)
    assert meta["iterations"] == max_iter
    if max_iter == 1:
        assert meta["final_residual"] is None
    else:
        assert meta["final_residual"] == result.final_residual


# -- the Wiener update as a product with reciprocal filters --------------------------

# every finite double, with zeros of both signs, subnormals and the largest
# magnitudes drawn for certain
finite_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(data=st.data())
def test_multiplying_by_reciprocal_filters_equals_dividing(data):
    # decompose multiplies each residual by its filter's reciprocal, written
    # into the real parts of a zeroed complex array, instead of dividing by
    # the filter (>= 1); numpy's complex division must make the two the same
    # bits
    n = data.draw(st.integers(1, 32), label="n")
    parts = st.lists(finite_parts, min_size=2 * n, max_size=2 * n)
    residual = np.array(data.draw(parts, label="parts")).view(np.complex128)
    filters = np.array(data.draw(
        st.lists(st.floats(1.0, 1e300), min_size=n, max_size=n), label="filters"
    ))
    gains = np.zeros(n, dtype=np.complex128)
    np.reciprocal(filters, out=gains.real)
    assert np.array_equal(gains, np.reciprocal(filters.astype(np.complex128)))
    want = np.divide(residual, filters)
    assert np.array_equal(np.multiply(residual, np.reciprocal(filters)), want)
    assert np.array_equal(np.multiply(residual, gains), want)


@given(data=st.data())
def test_update_omega_equals_per_row_dot(data):
    # update_omega takes every centre in one vecdot call; each row must be
    # the same bits as its own np.dot, whatever the row's scale, and a row
    # without power keeps its fallback
    k = data.draw(st.integers(1, 12), label="k")
    n = data.draw(st.integers(1, 600), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scales = data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-150, 1e150)), min_size=k, max_size=k
    ), label="scales")
    power = np.array(scales)[:, None] * rng.random((k, n))
    freqs = np.arange(n) / (2 * n)
    fallback = rng.uniform(0.0, 0.5, size=k)
    centres, totals = update_omega(power, freqs, fallback)
    want_totals = power.sum(axis=-1)
    want = np.array([
        np.dot(freqs, row) / total if total != 0.0 else back
        for row, total, back in zip(power, want_totals.tolist(), fallback)
    ])
    assert np.array_equal(totals, want_totals)
    assert np.array_equal(centres, want)


# -- one-sided iteration against the full-grid reference ---------------------------


def update_mode_spectrum(
    f_hat: np.ndarray,
    lambda_hat: np.ndarray,
    other_modes_sum_hat: np.ndarray,
    omega: float,
    alpha: float,
    freqs: np.ndarray,
) -> np.ndarray:
    """Wiener-filter update of one mode's spectrum around its center frequency:
    (residual + dual/2) / (1 + 2*alpha*(v - omega)^2)."""
    numerator = f_hat - other_modes_sum_hat + lambda_hat / 2.0
    return numerator / (1.0 + 2.0 * alpha * (freqs - omega) ** 2)


def _full_grid_omega(mode_spectrum, freqs, fallback=0.0):
    half = len(freqs) // 2
    power = np.abs(mode_spectrum[:half]) ** 2
    total = power.sum()
    if total == 0.0:
        return float(fallback)
    return float(np.dot(freqs[:half], power) / total)


def _per_mode_converged(modes_prev, modes_next, tol):
    residual = 0.0
    for prev, nxt in zip(modes_prev, modes_next):
        denom = float(np.sum(np.abs(prev) ** 2))
        if denom == 0.0:
            continue
        diff = nxt - prev
        residual += float(np.sum(np.abs(diff) ** 2)) / denom
    return residual < tol, residual


def full_grid_decompose(signal, config):
    """Reference: the ADMM loop run over all 2n bins of the mirrored signal's
    grid, with the upper half held at zero, and the per-mode stopping rule."""
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    k = config.n_modes

    mirrored = mirror_extend(x)
    m_len = mirrored.shape[0]          # 2n, always even
    half = m_len // 2
    f_hat_plus = np.fft.fft(mirrored)
    f_hat_plus[half:] = 0.0            # one-sided support
    freqs = np.arange(m_len) / m_len   # cycles/sample on [0, 1)

    omegas = _initial_omegas(config)
    lambda_hat = np.zeros(m_len, dtype=np.complex128)
    modes_hat = np.zeros((k, m_len), dtype=np.complex128)

    iterations = 0
    done = False
    residual = math.inf

    while iterations < config.max_iter and not done:
        prev_modes_hat = modes_hat.copy()
        modes_sum = modes_hat.sum(axis=0)
        for m in range(k):
            others = modes_sum - modes_hat[m]
            updated = update_mode_spectrum(
                f_hat_plus, lambda_hat, others, omegas[m], config.alpha, freqs
            )
            modes_sum += updated - modes_hat[m]   # Gauss-Seidel: next mode sees this one
            modes_hat[m] = updated
            omegas[m] = _full_grid_omega(modes_hat[m], freqs, fallback=omegas[m])
        lambda_hat = update_lambda(lambda_hat, f_hat_plus, modes_sum, config.tau)
        iterations += 1
        if iterations >= 2:
            done, residual = _per_mode_converged(prev_modes_hat, modes_hat, config.tol)
            if not math.isfinite(residual):
                raise FloatingPointError(
                    f"non-finite convergence residual at iteration {iterations}"
                )

    # conjugate-symmetric completion, inverse transform, un-mirror
    modes = np.empty((k, n))
    for m in range(k):
        full = np.zeros(m_len, dtype=np.complex128)
        full[:half] = modes_hat[m, :half]
        full[half + 1:] = np.conj(modes_hat[m, 1:half][::-1])
        time_mode = np.real(np.fft.ifft(full))
        modes[m] = time_mode[n // 2: n // 2 + n]

    order = np.argsort(omegas, kind="stable")
    return VmdResult(
        modes=modes[order],
        omegas=omegas[order],
        iterations=iterations,
        converged=done,
        final_residual=residual,
    )


@given(data=st.data())
def test_one_sided_decompose_matches_full_grid_reference(data):
    k = data.draw(st.integers(1, 10), label="n_modes")
    signal = data.draw(signals(min_len=2 * k), label="signal")
    config = VmdConfig(
        n_modes=k,
        alpha=data.draw(st.sampled_from([200.0, 2000.0]), label="alpha"),
        tau=data.draw(st.sampled_from([0.0, 0.1]), label="tau"),
        max_iter=data.draw(st.integers(1, 120), label="max_iter"),
        omega_init=data.draw(st.sampled_from(["uniform", "zero"]), label="omega_init"),
    )
    got = decompose(signal, config)
    want = full_grid_decompose(signal, config)
    assert np.array_equal(got.modes, want.modes)
    assert np.array_equal(got.omegas, want.omegas)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    # the norms now sum over half as many bins, which regroups the pairwise
    # summation: equal up to a few units in the last place
    if math.isinf(want.final_residual):
        assert got.final_residual == want.final_residual
    else:
        assert got.final_residual == pytest.approx(want.final_residual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "n, k, tau",
    [
        (450, 10, 0.0),   # a strict-causal prefix of the causal_decompose workload
        (600, 8, 0.0),    # the train_dispatch workload's decomposition
        (450, 10, 0.1),
    ],
)
def test_long_unconverged_runs_match_full_grid_reference(n, k, tau):
    # the hypothesis oracle stops at 120 sweeps; a regrouped sum in the sweep
    # would compound over the 500 that the benchmark's decompositions run
    signal = trend_two_tone(n=n, seed=3)
    config = VmdConfig(n_modes=k, alpha=2000.0, tau=tau, omega_init="zero", max_iter=500)
    got = decompose(signal, config)
    want = full_grid_decompose(signal, config)
    assert np.array_equal(got.modes, want.modes)
    assert np.array_equal(got.omegas, want.omegas)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
