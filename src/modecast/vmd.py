"""Variational mode decomposition of a real signal into band-limited modes.

The decomposition jointly estimates K narrow-band components and their center
frequencies by cyclically updating, in the frequency domain, each mode's
spectrum (a Wiener filter centered on its current frequency), each center
frequency (the power centroid of the mode's one-sided spectrum), and a dual
variable that enforces exact reconstruction when the ascent rate is nonzero.

Boundary handling mirrors half the signal onto each end before the transform
and keeps only the center samples afterwards.  The mirrored signal (length
2n) is transformed with ``np.fft.fft`` on its full unshifted grid
(``X[k] = sum_t x[t] exp(-2*pi*i*k*t/N)``), but the iteration state (signal
spectrum, mode spectra, dual variable, frequency axis) holds only the first n
bins: the one-sided grid ``[0, 0.5)`` cycles per sample in steps of
``1/(2n)``.  The ADMM updates each mode for non-negative frequencies only, so
the upper half of the full grid would stay zero.  Real modes are recovered by
conjugate-symmetric completion onto the full grid before ``np.fft.ifft``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "VmdConfig",
    "VmdResult",
    "mirror_extend",
    "update_omega",
    "update_lambda",
    "converged",
    "decompose",
    "write_decomposition_csv",
    "write_decomposition_metadata",
]


@dataclass(frozen=True)
class VmdConfig:
    """Decomposition settings.

    ``alpha`` is the bandwidth penalty, ``tau`` the dual-ascent rate (0 keeps
    the dual variable frozen, which tolerates a noisy residual), ``tol`` the
    relative-change threshold of the stopping rule, ``omega_init`` the centre
    frequencies' start: ``uniform`` (spread over ``[0, 0.5)``) or ``zero``.
    """

    n_modes: int
    alpha: float = 2000.0
    tau: float = 0.0
    tol: float = 1e-7
    max_iter: int = 500
    omega_init: str = "uniform"

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        # the chained comparisons also reject NaN
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.tau < math.inf:
            raise ValueError("tau must be >= 0 and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.omega_init not in ("uniform", "zero"):
            raise ValueError(f"unknown omega_init {self.omega_init!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VmdResult:
    """Modes (rows, same length as the input) and their center frequencies
    in cycles/sample, both in ascending order of frequency, and convergence
    telemetry."""

    modes: np.ndarray          # [K, n]
    omegas: np.ndarray         # [K], in [0, 0.5]
    iterations: int
    converged: bool
    final_residual: float

    def reconstruction(self) -> np.ndarray:
        return self.modes.sum(axis=0)


def mirror_extend(signal: np.ndarray) -> np.ndarray:
    """Reflect half the signal onto each end: output length is exactly 2n and
    the center n samples equal the input."""
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    if x.ndim != 1 or n < 2:
        raise ValueError("mirror_extend needs a 1D signal of length >= 2")
    half = n // 2
    return np.concatenate([x[:half][::-1], x, x[half:][::-1]])


def update_omega(
    power: np.ndarray, freqs: np.ndarray, fallback: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Power-weighted mean frequency of each row of ``power`` [K, n], the
    squared magnitudes of K one-sided spectra: they hold the bins with
    freq < 0.5 only, so every bin counts.  Returns ``(centres, totals)``, each
    [K]: a zero-power row keeps its ``fallback`` centre, and ``totals`` are
    the rows' power sums (the spectra's squared norms)."""
    totals = power.sum(axis=-1)
    centres = np.array(fallback, dtype=np.float64)
    # vecdot runs dot's kernel on each row; a single ``power @ freqs`` rounds
    # differently
    np.divide(np.vecdot(power, freqs), totals, out=centres, where=totals != 0.0)
    return centres, totals


def update_lambda(
    lambda_hat: np.ndarray,
    f_hat: np.ndarray,
    modes_sum_hat: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Dual ascent on the reconstruction residual; tau = 0 is a no-op."""
    return lambda_hat + tau * (f_hat - modes_sum_hat)


def converged(
    change_norms: np.ndarray, prev_norms: np.ndarray, tol: float
) -> tuple[bool, float]:
    """Stopping rule: sum over modes of ||next - prev||^2 / ||prev||^2 < tol,
    given each mode's squared norms of ``next - prev`` (``change_norms``) and
    of ``prev`` (``prev_norms``).

    Modes with zero previous norm are excluded from the sum (dead modes must
    not divide by zero).  Returns (converged, residual).
    """
    if change_norms.shape != prev_norms.shape:
        raise ValueError("norm shapes disagree")
    residual = 0.0
    for num, denom in zip(change_norms.tolist(), prev_norms.tolist()):
        if denom == 0.0:
            continue
        residual += num / denom
    return residual < tol, residual


def _initial_omegas(config: VmdConfig) -> np.ndarray:
    k = config.n_modes
    if config.omega_init == "zero":
        return np.zeros(k)
    return 0.5 * np.arange(k) / k


def decompose(signal: np.ndarray, config: VmdConfig) -> VmdResult:
    """Run the full alternating update until the stopping rule fires or the
    iteration cap is reached (hitting the cap is reported, not raised)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("decompose needs a 1D signal")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    n = x.shape[0]
    k = config.n_modes
    if n < 2 * k or n < 2:
        raise ValueError(f"signal too short: {n} samples cannot resolve {k} modes")

    mirrored = mirror_extend(x)
    m_len = mirrored.shape[0]          # 2n, always even
    half = m_len // 2
    f_hat_plus = np.fft.fft(mirrored)[:half]  # one-sided grid
    freqs = np.arange(half) / m_len    # cycles/sample on [0, 0.5)

    omegas = _initial_omegas(config)
    lambda_hat = np.zeros(half, dtype=np.complex128)
    modes_hat = np.zeros((k, half), dtype=np.complex128)
    next_hat = np.empty((k, half), dtype=np.complex128)
    modes_sum = np.empty(half, dtype=np.complex128)
    residual_hat = np.empty(half, dtype=np.complex128)
    half_dual = np.empty(half, dtype=np.complex128)
    change = np.empty((k, half), dtype=np.complex128)  # each mode's step this sweep
    change_parts = change.view(np.float64)             # [K, 2n]: re, im interleaved
    # one frequency row per mode, so the filters subtract without broadcasting
    freq_rows = np.repeat(freqs[None], k, axis=0)
    # Wiener denominators; once their reciprocals are taken, the same buffer
    # holds the modes' power spectra
    filters = np.empty((k, half))
    # the reciprocals, held as complex with a zero imaginary part so the
    # multiply below casts nothing; each sweep writes only the real parts
    gains = np.zeros((k, half), dtype=np.complex128)
    gains_real = gains.real
    norms = np.zeros(k)                                # squared norms of modes_hat
    # row views, bound once; the two spectrum buffers swap roles every sweep
    rows, next_rows = list(modes_hat), list(next_hat)
    change_rows, gain_rows = list(change), list(gains)
    two_alpha = 2.0 * config.alpha
    tau = config.tau
    add, subtract, multiply = np.add, np.subtract, np.multiply

    iterations = 0
    done = False
    residual = math.inf

    while iterations < config.max_iter and not done:
        # mode m's filter, 1 + 2*alpha*(v - omega_m)^2, is centred on its
        # omega from the previous sweep, so all K are built at once
        subtract(freq_rows, omegas[:, None], filters)
        np.square(filters, out=filters)
        multiply(filters, two_alpha, filters)
        add(filters, 1.0, filters)
        np.reciprocal(filters, out=gains_real)
        if tau != 0.0:   # tau = 0 keeps the dual variable at exactly zero
            np.divide(lambda_hat, 2.0, out=half_dual)
        modes_hat.sum(axis=0, out=modes_sum)
        for mode, updated, step, gain in zip(rows, next_rows, change_rows, gain_rows):
            # Wiener update: (residual + dual/2) / filter, where the residual
            # subtracts every other mode, those before this one already updated
            subtract(modes_sum, mode, residual_hat)
            subtract(f_hat_plus, residual_hat, residual_hat)
            if tau != 0.0:
                add(residual_hat, half_dual, residual_hat)
            # same bits as dividing by the filter c: numpy divides a + bi by
            # c + 0j as ((a + b*0) * (1/c), (b - a*0) * (1/c)), and the
            # product with (1/c) + 0j is (a*(1/c) - b*0, a*0 + b*(1/c)); the
            # two differ at most in the sign of an exact zero
            multiply(residual_hat, gain, updated)
            subtract(updated, mode, step)
            add(modes_sum, step, modes_sum)   # Gauss-Seidel: next mode sees this one
        modes_hat, next_hat = next_hat, modes_hat
        rows, next_rows = next_rows, rows
        prev_norms = norms
        # |z|^2 into the filter buffer: the same bits as np.abs(z) ** 2
        np.abs(modes_hat, out=filters)
        np.square(filters, out=filters)
        omegas, norms = update_omega(filters, freqs, omegas)
        if tau != 0.0:
            lambda_hat = update_lambda(lambda_hat, f_hat_plus, modes_sum, tau)
        iterations += 1
        if iterations >= 2:
            # the first sweep leaves all previous iterates at zero norm, which
            # the stopping rule excludes; comparing from the second sweep on.
            # Each step's squared norm is re^2 + im^2 summed over its parts
            change_norms = np.einsum("ij,ij->i", change_parts, change_parts)
            done, residual = converged(change_norms, prev_norms, config.tol)
            if not math.isfinite(residual):
                raise FloatingPointError(
                    f"non-finite convergence residual at iteration {iterations}"
                )

    # conjugate-symmetric completion, inverse transform, un-mirror
    full = np.zeros((k, m_len), dtype=np.complex128)
    full[:, :half] = modes_hat
    full[:, half + 1:] = np.conj(modes_hat[:, :0:-1])
    modes = np.fft.ifft(full).real[:, n // 2: n // 2 + n]

    order = np.argsort(omegas, kind="stable")
    return VmdResult(
        modes=modes[order],
        omegas=omegas[order],
        iterations=iterations,
        converged=done,
        final_residual=residual,
    )


def write_decomposition_csv(path, modes: np.ndarray) -> None:
    """CSV with header ``t,imf0,...,imf{K-1}``; one row per sample, in the
    bytes ``csv.writer`` writes for these rows (``repr`` of a float never
    needs quoting; rows end in CR LF)."""
    modes = np.asarray(modes, dtype=np.float64)
    k, _n = modes.shape
    lines = [",".join(["t"] + [f"imf{m}" for m in range(k)])]
    lines += [
        ",".join([str(t), *map(repr, row)]) for t, row in enumerate(modes.T.tolist())
    ]
    with Path(path).open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_decomposition_metadata(path, config: VmdConfig, result: VmdResult) -> None:
    """Sidecar JSON recording the configuration and convergence telemetry.

    ``final_residual`` is ``null`` when fewer than two sweeps ran, because the
    stopping rule then has no residual to report (``inf`` is not valid JSON).
    """
    residual = result.final_residual
    payload = {
        "config": config.to_dict(),
        "omegas": [float(w) for w in result.omegas],
        "iterations": result.iterations,
        "converged": result.converged,
        "final_residual": residual if math.isfinite(residual) else None,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
