"""Channel-independent patch-based attention forecaster.

One model holds K univariate channels: every parameter has a leading channel
axis and channel ``m`` sees only its own slice (PatchTST's channel
independence), so one forward and one backward pass serve all K.  A forward
pass normalizes each window to zero mean/unit variance, slices it into
overlapping patches (the last value is first repeated ``stride`` times so the
tail is never dropped), projects patches into a latent space with an additive
learned positional encoding, runs them through a stack of multi-head
self-attention encoder layers, and maps the flattened token matrix to the
forecast horizon through a linear head.  The per-window statistics are applied
back to the head output, so predictions return at the input's scale.

The encoder runs in float32: parameters, activations, gradients, optimizer
moments and batch-norm statistics.  Its interface stays float64: windows are
normalized in float64 and cast only for patching, and the linear head's output
is cast back before it is de-normalized, so the loss and the forecasts are
float64.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .autodiff import Adam, BatchNormState, Tape, Tensor
from .scale_weights import ScaleWeights, weighted_loss

__all__ = [
    "CheckpointMismatchError",
    "ForecasterConfig",
    "InstanceStats",
    "PatchForecaster",
    "instance_normalize",
    "patchify",
    "n_patches",
    "embed",
    "train_epoch",
]

INSTANCE_STD_FLOOR = 1e-5
PREDICT_ROWS = 32  # windows per encoder pass in predict (the default batch size)


@dataclass(frozen=True)
class ForecasterConfig:
    lookback: int = 96
    horizon: int = 1
    patch_len: int = 16
    stride: int = 8
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128

    def __post_init__(self) -> None:
        if self.lookback < 2:
            raise ValueError("lookback must be >= 2")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 1 <= self.patch_len <= self.lookback:
            raise ValueError("patch_len must satisfy 1 <= patch_len <= lookback")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if min(self.d_model, self.n_heads, self.n_layers, self.d_ff) < 1:
            raise ValueError("model dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )

    @property
    def n_patches(self) -> int:
        return n_patches(self.lookback, self.patch_len, self.stride)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)


class CheckpointMismatchError(ValueError):
    """A checkpoint's arrays do not fit the model its config describes."""


@dataclass(frozen=True)
class InstanceStats:
    """Per-window mean and (floored) standard deviation, shaped to broadcast
    over ``[..., time]`` arrays."""

    mean: np.ndarray  # [..., 1]
    std: np.ndarray   # [..., 1], >= INSTANCE_STD_FLOOR


def n_patches(lookback: int, patch_len: int, stride: int) -> int:
    """Patch count after the stride-long tail pad: floor((L - P) / S) + 2."""
    if patch_len > lookback:
        raise ValueError(f"patch_len {patch_len} exceeds lookback {lookback}")
    return (lookback - patch_len) // stride + 2


def instance_normalize(window: np.ndarray) -> tuple[np.ndarray, InstanceStats]:
    """Zero-mean/unit-variance scaling of ``[..., L]`` windows along the last
    axis; a constant window hits the std floor and normalizes to zeros."""
    x = np.asarray(window, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("instance normalization needs windows of length >= 2")
    mean = x.mean(axis=-1, keepdims=True)
    std = np.maximum(x.std(axis=-1, keepdims=True), INSTANCE_STD_FLOOR)
    return (x - mean) / std, InstanceStats(mean=mean, std=std)


def patchify(window: np.ndarray, patch_len: int, stride: int) -> np.ndarray:
    """Slice a window into overlapping patches after repeating the final value
    ``stride`` times.  ``[..., L] -> [..., P, N]``; patch ``j`` covers padded
    indices ``[j*stride, j*stride + patch_len)``.  The dtype is kept."""
    x = np.asarray(window)
    count = n_patches(x.shape[-1], patch_len, stride)
    pad = np.repeat(x[..., -1:], stride, axis=-1)
    padded = np.concatenate([x, pad], axis=-1)
    return np.stack(
        [padded[..., j * stride: j * stride + patch_len] for j in range(count)],
        axis=-1,
    )


def embed(tape: Tape, patches: Tensor, w_patch: Tensor, w_pos: Tensor) -> Tensor:
    """Project patches into the latent space and add the positional encoding:
    ``w_patch @ patches + w_pos``.  The last axis of ``patches`` may hold the
    N tokens of several windows, window after window (``[K, D, P]`` weights
    against ``[K, P, B*N]`` patches, say: the leading axes must be equal);
    ``w_pos`` (``[..., D, N]``) is added to each window's tokens."""
    tokens = tape.matmul(w_patch, patches)                          # [..., D, B*N]
    n = w_pos.shape[-1]
    by_window = tape.reshape(tokens, tokens.shape[:-1] + (-1, n))  # [..., D, B, N]
    z = tape.add(by_window, tape.reshape(w_pos, w_pos.shape[:-1] + (1, n)))
    return tape.reshape(z, tokens.shape)


class PatchForecaster:
    """K channels' forecasters as one model: parameters, forward pass, and
    persistence.

    Every parameter and batch-norm statistic has a leading ``[K]`` channel
    axis.  Channel ``m``'s slice is drawn from ``rngs[m]``, uniform(-1/sqrt(
    fan_in), +1/sqrt(fan_in)) in a fixed draw order, so the generators fully
    determine the model and each slice equals a one-channel model drawn from
    the same generator.  Draws are float64 whatever ``dtype`` is, and are
    stored rounded to it.
    """

    def __init__(
        self,
        config: ForecasterConfig,
        rngs: Sequence[np.random.Generator],
        *,
        dtype=np.float32,
    ):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.n_channels = k = len(rngs)
        self.params: dict[str, Tensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        d, p, n, t = config.d_model, config.patch_len, config.n_patches, config.horizon

        def draw(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
            bound = 1.0 / math.sqrt(fan_in)
            return np.stack([rng.uniform(-bound, bound, size=shape) for rng in rngs])

        def store(name: str, values: np.ndarray) -> None:
            self.params[name] = Tensor(values.astype(self.dtype), requires_grad=True)

        def init(name: str, shape: tuple[int, ...], fan_in: int) -> None:
            store(name, draw(shape, fan_in))

        def init_norm(name: str) -> None:
            store(f"{name}.gamma", np.ones((k, d)))
            store(f"{name}.beta", np.zeros((k, d)))
            self.bn_states[name] = BatchNormState.for_features(k, d, self.dtype)

        init("w_patch", (d, p), p)
        init("w_pos", (d, n), d)
        dk = config.head_dim
        for i in range(config.n_layers):
            # per head, q, k and v are drawn as (d, d_k) blocks; each projection
            # is applied as W @ x, so head h's block is stored transposed as
            # rows h*d_k:(h+1)*d_k, and w_attn_out transposed too
            qkv = [[draw((d, dk), d) for _ in range(3)] for _ in range(config.n_heads)]
            drawn = [np.concatenate([head[j] for head in qkv], axis=-1) for j in range(3)]
            drawn.append(draw((d, d), d))
            for name, w in zip(("w_q", "w_k", "w_v", "w_attn_out"), drawn):
                store(f"layer{i}.{name}", np.ascontiguousarray(np.swapaxes(w, -1, -2)))
            init_norm(f"layer{i}.norm1")
            init(f"layer{i}.w_ff1", (config.d_ff, d), d)
            init(f"layer{i}.b_ff1", (config.d_ff, 1), d)
            init(f"layer{i}.w_ff2", (d, config.d_ff), config.d_ff)
            init(f"layer{i}.b_ff2", (d, 1), config.d_ff)
            init_norm(f"layer{i}.norm2")
        init("w_head", (t, d * n), d * n)
        init("b_head", (t,), d * n)

    # -- parameter access -------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Flat name -> array map, including batch-norm running statistics."""
        out = {name: p.values.copy() for name, p in self.params.items()}
        for name, state in self.bn_states.items():
            out[f"{name}.running_mean"] = state.running_mean.copy()
            out[f"{name}.running_var"] = state.running_var.copy()
        return out

    def load_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Load a :meth:`param_arrays` map into the model's arrays in place,
        each array cast to the model's dtype (a float64 checkpoint loads
        rounded into a float32 model).  Every key and shape is checked before
        anything is loaded."""
        expected = self.param_arrays()
        if set(expected) != set(arrays):
            missing, extra = set(expected) - set(arrays), set(arrays) - set(expected)
            raise CheckpointMismatchError(
                f"checkpoint key mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        loaded = {name: np.asarray(arrays[name], dtype=self.dtype) for name in expected}
        for name, arr in loaded.items():
            if arr.shape != expected[name].shape:
                raise CheckpointMismatchError(
                    f"{name}: shape {arr.shape} != expected {expected[name].shape}"
                )
        # into the existing arrays, which an optimizer may hold views of
        for name, p in self.params.items():
            p.values[...] = loaded[name]
        for name, state in self.bn_states.items():
            state.running_mean[...] = loaded[f"{name}.running_mean"]
            state.running_var[...] = loaded[f"{name}.running_var"]

    # -- forward ----------------------------------------------------------

    def _norm(self, tape: Tape, x, name: str, training: bool):
        gamma = self.params[f"{name}.gamma"]
        beta = self.params[f"{name}.beta"]
        return tape.batch_norm(x, gamma, beta, state=self.bn_states[name], training=training)

    def _attention_layer(self, tape: Tape, x, index: int, training: bool):
        """One encoder layer on feature-major ``[K, D, B*N]`` tokens: every
        weight is one ``[K, D_out, D_in] @ [K, D_in, B*N]`` product, which adds
        its bias and residual in place, and the heads' attention is one op."""
        cfg = self.config

        def param(name: str) -> Tensor:
            return self.params[f"layer{index}.{name}"]

        def linear(name: str, z, **addends) -> Tensor:
            return tape.matmul(param(name), z, **addends)

        merged = tape.attention(linear("w_q", x), linear("w_k", x), linear("w_v", x),
                                cfg.n_heads, cfg.n_patches)
        z = linear("w_attn_out", merged, residual=x)
        z = self._norm(tape, z, f"layer{index}.norm1", training)
        hidden = tape.gelu(linear("w_ff1", z, bias=param("b_ff1")))
        z = linear("w_ff2", hidden, bias=param("b_ff2"), residual=z)
        return self._norm(tape, z, f"layer{index}.norm2", training)

    def _channel_major(self, windows: np.ndarray) -> np.ndarray:
        """Validate ``[batch, lookback, K]`` windows and return them as
        ``[K, batch, lookback]``."""
        cfg = self.config
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (cfg.lookback, self.n_channels):
            raise ValueError(
                f"expected windows of shape [batch, {cfg.lookback}, {self.n_channels}], "
                f"got {x.shape}"
            )
        # contiguous: window statistics then sum as in a one-channel model
        return np.ascontiguousarray(np.moveaxis(x, -1, 0))

    def _encode(self, tape: Tape, normed: np.ndarray, training: bool) -> Tensor:
        """``[K, batch, lookback]`` normalized windows -> ``[K, batch, D*N]``
        in the model's dtype.  The encoder runs feature-major, on
        ``[K, D, batch*N]`` tokens."""
        cfg = self.config
        k, b = normed.shape[:2]
        d, n = cfg.d_model, cfg.n_patches
        normed = normed.astype(self.dtype)
        patches = patchify(normed, cfg.patch_len, cfg.stride)      # [K, B, P, N]
        patches = np.moveaxis(patches, 1, 2).reshape(k, cfg.patch_len, b * n)
        z = embed(tape, Tensor(patches), self.params["w_patch"], self.params["w_pos"])
        for i in range(cfg.n_layers):
            z = self._attention_layer(tape, z, i, training)
        by_window = tape.transpose(tape.reshape(z, (k, d, b, n)), (0, 2, 1, 3))  # [K, B, D, N]
        return tape.reshape(by_window, (k, b, d * n))

    def _head(self, tape: Tape, flat: Tensor, stats: InstanceStats) -> Tensor:
        """Linear head, cast to float64 and back at the windows' scale:
        ``[K, batch, horizon]``."""
        b_head = self.params["b_head"]
        pred = tape.add(
            tape.matmul(flat, tape.transpose(self.params["w_head"])),
            tape.reshape(b_head, (b_head.shape[0], 1, b_head.shape[1])),
        )
        pred = tape.astype(pred, np.float64)
        return tape.add(tape.mul(pred, Tensor(stats.std)), Tensor(stats.mean))

    def forward_on_tape(self, tape: Tape, windows: np.ndarray, training: bool = False) -> Tensor:
        """Record one forward pass for all K channels on ``tape``.  ``windows``
        is ``[batch, lookback, K]``; returns the ``[K, batch, horizon]``
        prediction at the input's original scale."""
        normed, stats = instance_normalize(self._channel_major(windows))
        return self._head(tape, self._encode(tape, normed, training), stats)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference forward pass (running statistics, no state mutation):
        ``[batch, lookback, K]`` windows to ``[K, batch, horizon]`` forecasts.
        The encoder, which treats windows independently, runs on
        ``PREDICT_ROWS`` at a time to bound memory; the head runs once on all
        rows, since its matrix product can round differently on fewer."""
        normed, stats = instance_normalize(self._channel_major(windows))
        flat = np.concatenate([
            self._encode(Tape(), normed[:, i: i + PREDICT_ROWS], False).values
            for i in range(0, normed.shape[1], PREDICT_ROWS)
        ], axis=1)
        return self._head(Tape(), Tensor(flat), stats).values


@functools.cache
def _retain_freed_memory() -> None:
    """Keep freed training memory in the heap, once per process.

    Each minibatch's tape frees tens of MB at the top of the heap; by default
    glibc returns that to the kernel and the next step page-faults it back
    in.  A high trim threshold keeps it for reuse.  Setting any ``mallopt``
    parameter also switches off glibc's dynamic mmap threshold, which would
    put every array of 128 KiB or more back on fresh mmapped pages, so the
    mmap threshold is raised too.  Without ``mallopt`` (musl, macOS, Windows)
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: heap below 32 MiB, glibc's 64-bit maximum
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB of free heap top


def train_epoch(
    model: PatchForecaster,
    inputs: np.ndarray,
    targets: np.ndarray,
    optimizer: Adam,
    batch_size: int,
    rng: np.random.Generator,
    sw: ScaleWeights | None = None,
) -> float:
    """One shuffled pass of minibatch training over the model's K channels.

    ``inputs`` is ``[n, lookback, K]`` and ``targets`` ``[n, horizon, K]``;
    channel ``m`` sees only its own inputs.  Each minibatch records one forward
    pass and the ``[K]`` per-channel MSE on one tape and combines it with
    :func:`weighted_loss` (the scale weights ``sw``, or the plain sum when
    ``sw`` is None), so the optimizer may also hold ``sw.theta``.  Returns the
    mean minibatch loss.  Aborts on a non-finite loss.
    """
    _retain_freed_memory()
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape[0] != targets.shape[0] or inputs.shape[0] == 0:
        raise ValueError("inputs and targets must be nonempty and aligned")
    order = rng.permutation(inputs.shape[0])
    losses = []
    for start in range(0, len(order), batch_size):
        idx = order[start: start + batch_size]
        tape = Tape()
        pred = model.forward_on_tape(tape, inputs[idx], training=True)   # [K, B, T]
        target = Tensor(np.moveaxis(targets[idx], -1, 0))
        total = weighted_loss(tape, tape.mse(pred, target), sw)
        value = float(total.values)
        if not math.isfinite(value):
            raise FloatingPointError(
                f"non-finite training loss {value} at minibatch starting {start}"
            )
        optimizer.zero_grad()   # a trained sw.theta's gradient views its arena too
        tape.backward(total)
        optimizer.step()
        losses.append(value)
    return float(np.mean(losses))
