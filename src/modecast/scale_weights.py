"""Adaptive per-channel loss weights that re-inject raw scale information.

Min-max scaling erases how large each decomposed mode originally was, so a
trainer that sums per-channel losses treats a huge low-frequency trend and a
tiny high-frequency ripple as equals.  This module keeps a learnable
unconstrained vector ``theta`` (one entry per channel) and derives strictly
positive weights ``w = M * softmax(theta)``.  The softmax parameterization
pins the total weight mass at the channel count M, so the optimizer can shift
emphasis between channels but can never shrink every weight toward zero to
cheat the weighted loss down.

Weights start proportional to each channel's raw value range, which is
exactly the scale information the normalization removed; training then
adjusts them jointly with the model parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor

__all__ = ["ScaleWeights", "init_from_scales", "weights", "weights_on_tape", "weighted_loss"]

_RANGE_EPS = 1e-12


@dataclass
class ScaleWeights:
    """Unconstrained parameter vector."""

    theta: Tensor   # [M], requires_grad

    @property
    def n_channels(self) -> int:
        return self.theta.size


def init_from_scales(ranges: np.ndarray) -> ScaleWeights:
    """Seed ``theta = log(range + eps)`` (zero-mean shifted), so the initial
    weights are proportional to each channel's raw range and sum to M."""
    r = np.asarray(ranges, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("ranges must be a nonempty 1D array")
    if np.any(r < 0):
        raise ValueError("ranges must be >= 0")
    if not np.any(r > 0):
        raise ValueError("at least one channel range must be positive")
    theta = np.log(r + _RANGE_EPS)
    theta -= theta.mean()
    return ScaleWeights(theta=Tensor(theta, requires_grad=True))


def uniform(n_channels: int) -> ScaleWeights:
    """All-equal weights (theta = 0); useful as a frozen reference."""
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    return ScaleWeights(theta=Tensor(np.zeros(n_channels), requires_grad=True))


def weights_on_tape(tape: Tape, sw: ScaleWeights) -> Tensor:
    """Differentiable weights ``M * softmax(theta)``.

    Computed as (M * exp(theta - max)) / sum(exp(theta - max)) so a uniform
    theta yields exactly 1.0 per channel, which makes uniform-weighted
    training bit-identical to unweighted training.
    """
    m = sw.n_channels
    shifted = tape.add_scalar(sw.theta, -float(sw.theta.values.max()))
    e = tape.exp(shifted)
    scaled = tape.mul_scalar(e, float(m))
    total = tape.sum(e)
    return tape.div(scaled, tape.reshape(total, (1,)))


def weights(sw: ScaleWeights) -> np.ndarray:
    """Current weight values (no gradient tracking)."""
    return weights_on_tape(Tape(record=False), sw).values.copy()


def weighted_loss(tape: Tape, per_channel_loss: Tensor, sw: ScaleWeights | None) -> Tensor:
    """Scalar training loss: the ``[M]`` per-channel losses scaled by the
    adaptive weights and summed, or their plain sum when ``sw`` is None.  A
    uniform theta yields weights of exactly 1.0, so uniform weights reproduce
    the plain sum bitwise."""
    if sw is not None:
        if per_channel_loss.size != sw.n_channels:
            raise ValueError(
                f"got {per_channel_loss.size} losses for {sw.n_channels} channels"
            )
        per_channel_loss = tape.mul(per_channel_loss, weights_on_tape(tape, sw))
    return tape.sum(per_channel_loss)
