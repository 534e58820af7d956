"""Dense float tensors with a recorded-operation tape for reverse-mode gradients.

The engine is deliberately small: a ``Tensor`` wraps a numpy array, a ``Tape``
records every operation applied through it (input and output node ids,
backward rule), and ``Tape.backward`` replays the records in exact reverse
order, accumulating gradients additively wherever a tensor fans out to
several consumers.  One tape serves one forward/backward cycle; parameters
are plain ``Tensor`` objects that outlive tapes and carry their accumulated
``grad`` between optimizer steps.

A tensor holds float32 or float64 values; an op's output takes numpy's
promotion of its inputs, and ``Tape.astype`` casts explicitly.  Python floats
stay weak under numpy's promotion rules (NEP 50), so every scalar constant
here is one: a numpy float64 scalar would turn a float32 op's output into
float64.  Shapes are validated when an operation is recorded, never during
backward.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "BatchNormState",
    "Adam",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointFormatError",
    "CHECKPOINT_FORMAT_VERSION",
]

_GELU_C = math.sqrt(2.0 / math.pi)  # a Python float: see the module docstring


class Tensor:
    """A dense float32 or float64 array plus gradient bookkeeping.  Values of
    any other dtype are stored as float64.

    ``grad`` is allocated (zeros) for ``requires_grad`` tensors and accumulates
    across ``Tape.backward`` calls until ``zero_grad`` resets it.  ``node_id``
    is assigned by whichever tape last recorded this tensor, and ``owner``
    names that tape; tensors may be reused across consecutive tapes.
    """

    __slots__ = ("values", "requires_grad", "grad", "node_id", "owner")

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        self.values = values
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self.node_id: int | None = None
        self.owner: object | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting), one axis
    per call: extra leading axes, then size-1 axes left to right.  That fixes
    the summation order whether or not a channel axis leads the others."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _broadcasts_to(shape: tuple[int, ...], target: tuple[int, ...]) -> bool:
    """Whether an array of ``shape`` broadcasts to ``target`` unchanged."""
    return len(shape) <= len(target) and all(
        n == 1 or n == m for n, m in zip(reversed(shape), reversed(target))
    )


def _norm_shape(xv: np.ndarray, gamma: Tensor, beta: Tensor) -> tuple[int, ...]:
    """Check that ``x`` is ``[K, features, tokens...]`` and scale/shift
    ``[K, features]``; return the shape that broadcasts those against ``x``."""
    if xv.ndim < 3:
        raise ValueError(
            f"batch_norm expects [K, features, tokens...] input, got shape {xv.shape}"
        )
    k, n_features = xv.shape[:2]
    if gamma.shape != (k, n_features) or beta.shape != (k, n_features):
        raise ValueError(
            f"batch_norm scale/shift must have shape ({k}, {n_features}), "
            f"got {gamma.shape} and {beta.shape}"
        )
    return (k, n_features) + (1,) * (xv.ndim - 2)


def _spare(buffer: np.ndarray | None, *operands: np.ndarray) -> np.ndarray | None:
    """``buffer`` if it has the dtype numpy promotes ``operands`` to, else
    None: as a ufunc's ``out=``, a scratch array that can take the result
    unrounded, or a new array of the promoted dtype."""
    if buffer is not None and buffer.dtype == np.result_type(*operands):
        return buffer
    return None


def _by_window(a: np.ndarray) -> np.ndarray:
    """The ``[K, B, H, rows, N]`` view of a window-inner ``[K, H, rows, B, N]``
    array: attention heads (rows are ``d_k`` features) and attention maps
    (rows are ``N`` keys) are both stored this way."""
    return a.transpose(0, 3, 1, 2, 4)


def _window_inner(a: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_by_window`."""
    return a.transpose(0, 2, 3, 1, 4)


def _sum_over_keys(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=2, keepdims=True)`` of window-inner ``[K, H, N_keys, B, N]``
    maps as one BLAS product with a row of ones per map, written into a
    ``[K, H, 1, B, N]`` array through its strided view: numpy's reduction
    along the key axis of ``[..., 13, 13]`` maps is several times slower."""
    sums = np.empty(a.shape[:2] + (1,) + a.shape[3:], a.dtype)
    np.matmul(np.ones((1, a.shape[2]), a.dtype), _by_window(a), out=_by_window(sums))
    return sums


def _transposed_copy(a: np.ndarray) -> np.ndarray:
    """``a`` with its last two axes swapped, contiguous: at the attention
    maps' sizes a BLAS product whose right operand is a transposed view runs
    about three times slower than this copy and a plain product."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _attention_probabilities(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Key-major attention maps ``softmax(scale * kᵀ q)`` over the key axis:
    ``[K, B, H, d_k, N]`` query and key heads give ``[K, B, H, N_keys,
    N_queries]`` maps whose every column sums to one.  The maps are the
    :func:`_by_window` view of a window-inner ``[K, H, N_keys, B, N_queries]``
    array, so every softmax pass runs across the ``B*N`` contiguous queries
    of one key, in place on the score product."""
    n_channels, batch, n_heads, _, n_tokens = q.shape
    p = np.empty((n_channels, n_heads, k.shape[-1], batch, n_tokens), np.result_type(q, k))
    np.matmul(np.swapaxes(k, -1, -2), q, out=_by_window(p))
    p *= scale
    # the maximum over keys key by key: numpy's max along the key axis of
    # small maps is about four times slower
    top = p[:, :, 0].copy()
    for key in range(1, p.shape[2]):
        np.maximum(top, p[:, :, key], out=top)
    p -= top[:, :, None]
    np.exp(p, out=p)
    p /= _sum_over_keys(p)
    return _by_window(p)


@dataclass
class _TapeEntry:
    input_ids: tuple[int, ...]
    output_id: int
    backward: Callable[[np.ndarray], tuple[np.ndarray, ...]]


@dataclass
class BatchNormState:
    """Running ``[K, features]`` statistics for one batch-norm layer (inference
    path)."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1

    @classmethod
    def for_features(
        cls, n_channels: int, n_features: int, dtype=np.float64, momentum: float = 0.1
    ) -> "BatchNormState":
        return cls(
            running_mean=np.zeros((n_channels, n_features), dtype=dtype),
            running_var=np.ones((n_channels, n_features), dtype=dtype),
            momentum=momentum,
        )


class Tape:
    """Operation recorder.  Recording order is topological order; backward
    walks it in exact reverse.  Single-threaded by contract.  Every op takes
    ``Tensor`` operands: wrap a constant array in a ``Tensor``.

    The tape holds only the ``requires_grad`` tensors and the arrays its
    backward rules need; an intermediate result is freed as soon as the caller
    drops it, unless a backward rule keeps its values.  ``backward`` releases
    each rule, and the arrays it kept, as soon as the rule has run, so a tape
    serves one backward.
    """

    def __init__(self) -> None:
        self._token = object()  # a tensor's ``owner`` when this tape numbered it
        self._n_nodes = 0
        self._n_ops = 0
        self._leaves: list[tuple[int, Tensor]] = []  # requires_grad tensors by node id
        self._entries: list[_TapeEntry] = []
        self._consumed = False

    # -- bookkeeping ---------------------------------------------------

    def _register(self, t: Tensor) -> int:
        if t.owner is self._token:
            return t.node_id
        nid = self._n_nodes
        self._n_nodes += 1
        t.node_id, t.owner = nid, self._token
        if t.requires_grad:
            self._leaves.append((nid, t))
        return nid

    def _record(self, inputs: Sequence[Tensor], out_values: np.ndarray, backward) -> Tensor:
        input_ids = tuple(self._register(t) for t in inputs)
        out = Tensor(out_values)
        out_id = self._register(out)
        self._entries.append(_TapeEntry(input_ids, out_id, backward))
        self._n_ops += 1
        return out

    @property
    def n_ops(self) -> int:
        """The number of ops recorded, before and after ``backward``."""
        return self._n_ops

    # -- elementwise arithmetic -----------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        out = a.values + b.values
        a_shape, b_shape = a.shape, b.shape

        def bwd(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        return self._record((a, b), out, bwd)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.values, b.values
        out = av * bv

        def bwd(g):
            return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

        return self._record((a, b), out, bwd)

    def div(self, a: Tensor, b: Tensor) -> Tensor:
        bv = b.values
        out = a.values / bv
        a_shape = a.shape

        def bwd(g):
            return (
                _unbroadcast(g / bv, a_shape),
                _unbroadcast(-g * out / bv, bv.shape),
            )

        return self._record((a, b), out, bwd)

    def add_scalar(self, a: Tensor, c: float) -> Tensor:
        return self._record((a,), a.values + float(c), lambda g: (g,))

    def mul_scalar(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._record((a,), a.values * c, lambda g: (g * c,))

    def exp(self, a: Tensor) -> Tensor:
        out = np.exp(a.values)

        def bwd(g):
            return (g * out,)

        return self._record((a,), out, bwd)

    def gelu(self, a: Tensor) -> Tensor:
        """tanh-approximated GELU with a closed-form derivative.  Every
        intermediate is computed in place in a buffer the op owns, in the
        order ``0.5*x*(1 + tanh(c*(x + 0.044715*x*x*x)))`` spells out."""
        # x * x * x, not x**3: numpy's pow is over ten times slower here, and
        # its SIMD path is not correctly rounded on every machine
        x = a.values
        t = x * x
        t *= x
        t *= 0.044715
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        out = 0.5 * x
        out *= t + 1.0

        def bwd(g):
            # d = 0.5*(1 + t) + 0.5*x * (1 - t*t) * c * (1 + 3*0.044715*x*x)
            s = t * t
            np.subtract(1.0, s, out=s)
            d = 0.5 * x
            d *= s
            d *= _GELU_C
            np.multiply(x, x, out=s)
            s *= 3 * 0.044715
            s += 1.0
            d *= s
            np.add(t, 1.0, out=s)
            s *= 0.5
            s += d
            return (np.multiply(s, g, out=_spare(s, s, g)),)

        return self._record((a,), out, bwd)

    def astype(self, a: Tensor, dtype) -> Tensor:
        """Cast to ``dtype``; backward casts the gradient back to ``a``'s."""
        source = a.values.dtype
        return self._record((a,), a.values.astype(dtype), lambda g: (g.astype(source),))

    # -- linear algebra and shape ----------------------------------------

    def matmul(self, a: Tensor, b: Tensor, *, bias: Tensor | None = None,
               residual: Tensor | None = None) -> Tensor:
        """Matrix product over the last two axes of operands with equal leading
        axes (``[K, m, n] @ [K, n, p]``, say); nothing broadcasts.

        ``bias`` (broadcast against the product) and then ``residual`` (of the
        product's shape) are added into the product in place: one tape entry
        and no new array where ``matmul`` -> ``add`` -> ``add`` records three
        and allocates two.  The sums and their gradients are the chain's bit
        for bit, since each addition only swaps commutative operands."""
        av, bv = a.values, b.values
        if min(av.ndim, bv.ndim) < 2 or av.shape[:-2] != bv.shape[:-2]:
            raise ValueError(
                f"matmul needs ndim >= 2 and equal leading axes, got {av.shape} @ {bv.shape}"
            )
        if av.shape[-1] != bv.shape[-2]:
            raise ValueError(f"matmul inner dims disagree: {av.shape} @ {bv.shape}")
        out = np.matmul(av, bv)
        inputs, addend_shapes = (a, b), []
        for name, addend in (("bias", bias), ("residual", residual)):
            if addend is None:
                continue
            fits = (_broadcasts_to(addend.shape, out.shape) if name == "bias"
                    else addend.shape == out.shape)
            if not fits:
                raise ValueError(f"matmul {name} of shape {addend.shape} does not fit "
                                 f"the product's {out.shape}")
            # a promoted dtype takes a new array, as the chain's add would
            out = np.add(out, addend.values, out=_spare(out, out, addend.values))
            inputs += (addend,)
            addend_shapes.append(addend.shape)

        def bwd(g):
            return (np.matmul(g, np.swapaxes(bv, -1, -2)), np.matmul(np.swapaxes(av, -1, -2), g),
                    *(_unbroadcast(g, shape) for shape in addend_shapes))

        return self._record(inputs, out, bwd)

    def transpose(self, a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
        """Permute the axes as ``np.transpose(a, axes)`` does; by default swap
        the last two.  The output is a view."""
        if axes is None:
            if a.ndim < 2:
                raise ValueError(f"transpose needs ndim >= 2, got shape {a.shape}")
            axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
        out = np.transpose(a.values, axes)  # raises ValueError if axes is no permutation
        inverse = [0] * a.ndim
        for position, axis in enumerate(axes):
            inverse[axis] = position

        def bwd(g):
            return (np.transpose(g, inverse),)

        return self._record((a,), out, bwd)

    def reshape(self, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        old_shape = a.values.shape
        out = a.values.reshape(shape)

        def bwd(g):
            return (g.reshape(old_shape),)

        return self._record((a,), out, bwd)

    def concat(self, tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
        out = np.concatenate([t.values for t in tensors], axis=axis)
        sizes = [t.values.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def bwd(g):
            return tuple(np.split(g, splits, axis=axis))

        return self._record(tuple(tensors), out, bwd)

    # -- reductions ------------------------------------------------------

    def sum(self, a: Tensor) -> Tensor:
        """Sum of every entry: a scalar."""
        shape = a.values.shape
        return self._record((a,), a.values.sum(), lambda g: (np.broadcast_to(g, shape).copy(),))

    # -- nonlinear blocks --------------------------------------------------

    def softmax(self, a: Tensor, axis: int = -1) -> Tensor:
        shifted = a.values - a.values.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def bwd(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - dot),)

        return self._record((a,), out, bwd)

    def attention(self, q: Tensor, k: Tensor, v: Tensor, n_heads: int, n_tokens: int) -> Tensor:
        """Multi-head scaled dot-product attention on feature-major
        ``[K, D, B*N]`` query, key and value projections, whose last axis
        holds the N tokens of each of B windows, window after window.  Rows
        ``h*d_k:(h+1)*d_k`` (``d_k = D / n_heads``) form head ``h``, and the
        same rows of the ``[K, D, B*N]`` output hold its result ``v_h P_h``,
        where ``P_h = softmax(k_hᵀ q_h / sqrt(d_k))`` over the keys.

        One tape entry with a closed-form backward.  Heads are views of the
        inputs, the key-major ``[K, B, H, N_keys, N_queries]`` maps ``P`` are
        all the entry keeps besides q, k and v, and the output and each
        gradient are written into ``[K, H, d_k, B, N]`` buffers, which are
        ``[K, D, B*N]`` already.  ``P`` and its score gradient are stored
        window-inner, ``[K, H, N_keys, B, N_queries]``, the heads' layout, so
        their elementwise passes run over ``B*N`` contiguous queries.
        """
        if q.ndim != 3 or not q.shape == k.shape == v.shape:
            raise ValueError(
                f"attention needs equal [K, D, B*N] shapes, got {q.shape}, {k.shape}, {v.shape}"
            )
        n_channels, d_model, width = q.shape
        if d_model % n_heads or width % n_tokens:
            raise ValueError(
                f"attention: {d_model} features do not split into {n_heads} heads, "
                f"or {width} tokens into windows of {n_tokens}"
            )
        layout = (n_channels, n_heads, d_model // n_heads, width // n_tokens, n_tokens)

        def heads(a: np.ndarray) -> np.ndarray:
            return _by_window(a.reshape(layout))

        def new_heads(dtype) -> tuple[np.ndarray, np.ndarray]:
            """A new array as its ``[K, D, B*N]`` and heads views."""
            buffer = np.empty(layout, dtype)
            return buffer.reshape(q.shape), _by_window(buffer)

        qh, kh, vh = heads(q.values), heads(k.values), heads(v.values)
        scale = 1.0 / math.sqrt(layout[2])
        p = _attention_probabilities(qh, kh, scale)
        out, out_heads = new_heads(np.result_type(vh, p))
        np.matmul(vh, p, out=out_heads)

        def bwd(g):
            gh = heads(g)
            dq, dq_heads = new_heads(qh.dtype)
            dk, dk_heads = new_heads(kh.dtype)
            dv, dv_heads = new_heads(vh.dtype)
            np.matmul(gh, _transposed_copy(p), out=dv_heads)
            # dP, then dS in place, window-inner as P is
            p_inner = _window_inner(p)
            ds = np.empty(p_inner.shape, np.result_type(vh, gh))
            np.matmul(np.swapaxes(vh, -1, -2), gh, out=_by_window(ds))
            ds -= _sum_over_keys(ds * p_inner)
            ds *= p_inner
            ds *= scale
            np.matmul(kh, _by_window(ds), out=dq_heads)
            np.matmul(qh, _transposed_copy(_by_window(ds)), out=dk_heads)
            return dq, dk, dv

        return self._record((q, k, v), out, bwd)

    def mse(self, pred: Tensor, target: Tensor) -> Tensor:
        """Mean squared difference per channel: a ``[K]`` vector holding the
        mean over every axis but the leading channel axis."""
        if pred.shape != target.shape:
            raise ValueError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
        diff = pred.values - target.values
        squared = (diff * diff).reshape(diff.shape[0], -1)
        scale = 2.0 / squared.shape[1]

        def bwd(g):
            gd = (g * scale).reshape((-1,) + (1,) * (diff.ndim - 1)) * diff
            return gd, -gd

        return self._record((pred, target), squared.mean(axis=1), bwd)

    def batch_norm(
        self,
        x: Tensor,
        gamma: Tensor,
        beta: Tensor,
        state: BatchNormState | None = None,
        training: bool = True,
        eps: float = 1e-5,
    ) -> Tensor:
        """Per-(channel, feature) normalization of ``[K, features, tokens...]``
        input over its token axes, with trainable scale/shift.  Feature-major
        ``[K, features, batch*tokens]`` input takes its statistics over the
        contiguous last axis.

        Training mode normalizes by batch statistics and folds them into
        ``state`` with its momentum; eval mode normalizes by the running
        statistics in ``state``.
        """
        xv = x.values
        pshape = _norm_shape(xv, gamma, beta)
        axes = tuple(range(2, xv.ndim))
        gv = gamma.values.reshape(pshape)

        if training:
            mu = xv.mean(axis=axes, keepdims=True)
            xhat = xv - mu  # centred here, normalized in place below
            # the sum of squares np.var takes, without centring a second
            # time; the squares' buffer then takes the output
            squares = xhat * xhat
            var = squares.mean(axis=axes, keepdims=True)
            if state is not None:
                m = state.momentum
                state.running_mean += m * (mu.reshape(gamma.shape) - state.running_mean)
                state.running_var += m * (var.reshape(gamma.shape) - state.running_var)
        else:
            if state is None:
                raise ValueError("batch_norm eval mode needs running statistics")
            xhat = xv - state.running_mean.reshape(pshape)
            var = state.running_var.reshape(pshape)
            squares = None

        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv
        bv = beta.values.reshape(pshape)
        out = np.multiply(gv, xhat, out=_spare(squares, gv, xhat, bv))
        out += bv

        def bwd(g):
            gx = g * xhat
            dgamma = gx.sum(axis=axes)
            dbeta = g.sum(axis=axes)
            if training:
                # the means of g and g*xhat from the sums above, divided in
                # their dtype: bit-equal to np.mean, which divides in float64
                # and rounds once
                count = dbeta.dtype.type(g.size // dbeta.size)
                gm = (dbeta / count).reshape(pshape)
                gxm = (dgamma / count).reshape(pshape)
                np.multiply(xhat, gxm, out=gx)
                dx = g - gm
                dx -= gx
                dx *= gv * inv
            else:
                dx = g * gv
                dx *= inv
            return dx, dgamma, dbeta

        return self._record((x, gamma, beta), out, bwd)

    # -- backward ----------------------------------------------------------

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Reverse sweep from a scalar loss.

        Returns the gradient for every ``requires_grad`` tensor registered on
        this tape (zeros for tensors with no path to the loss), in that
        tensor's dtype, and accumulates the same values into its ``grad``.
        The sweep pops each entry before running its rule, so the arrays a
        rule kept are freed once it has run; a second ``backward`` on the
        tape raises ``ValueError``.
        """
        if self._consumed:
            raise ValueError("this tape's backward has run: a tape serves one backward")
        if loss.values.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss.owner is not self._token:
            raise ValueError("loss tensor was not produced on this tape")
        self._consumed = True

        grads: dict[int, np.ndarray] = {
            loss.node_id: np.ones_like(loss.values)
        }
        entries = self._entries
        while entries:
            entry = entries.pop()
            # every consumer of an op's output was recorded after the op, so
            # its gradient is complete here and is dropped once propagated
            g = grads.pop(entry.output_id, None)
            if g is None:
                continue
            for nid, ig in zip(entry.input_ids, entry.backward(g)):
                acc = grads.get(nid)
                grads[nid] = ig if acc is None else acc + ig

        result: dict[Tensor, np.ndarray] = {}
        for nid, t in self._leaves:
            g = grads.get(nid)
            if g is None:
                g = np.zeros_like(t.values)
            else:
                g = np.asarray(g, dtype=t.values.dtype).reshape(t.values.shape)
            t.grad += g
            result[t] = g
        return result


@dataclass
class AdamState:
    """First/second moment views for one parameter."""

    m: np.ndarray
    v: np.ndarray


class _Arena:
    """Parameters of one dtype moved into one flat buffer each for values,
    gradients and the two moments.  Every parameter's ``values`` and ``grad``
    become views of these buffers, in parameter order."""

    def __init__(self, params: list[Tensor]):
        size = sum(p.size for p in params)
        dtype = params[0].values.dtype
        self.params = params
        self.values = np.empty(size, dtype)
        self.grad = np.empty(size, dtype)
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)
        self.views: list[tuple[np.ndarray, np.ndarray]] = []
        self.states: list[AdamState] = []
        offset = 0
        for p in params:
            span, shape = slice(offset, offset + p.size), p.shape
            offset += p.size
            self.values[span] = p.values.reshape(-1)
            self.grad[span] = p.grad.reshape(-1)
            p.values, p.grad = self.values[span].reshape(shape), self.grad[span].reshape(shape)
            self.views.append((p.values, p.grad))
            self.states.append(AdamState(self.m[span].reshape(shape), self.v[span].reshape(shape)))

    def check_views(self) -> None:
        """Raise if a parameter's ``values`` or ``grad`` was rebound to an
        array outside the arena: the optimizer would no longer see it."""
        for p, (values, grad) in zip(self.params, self.views):
            if p.values is not values or p.grad is not grad:
                raise RuntimeError(
                    f"a {p.shape} parameter's values or grad was replaced after Adam was "
                    "built; write into the existing array (p.values[...] = ...) instead"
                )


class Adam:
    """Adam with bias correction: m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
    update = -lr * m_hat / (sqrt(v_hat) + eps).

    Every parameter needs a gradient (``requires_grad``).  The parameters are
    grouped by dtype, and each group moves into an arena (flat values,
    gradient and moment buffers that the parameters view), so a step runs one
    elementwise update per dtype rather than per parameter.  Every element
    sees the operations a per-parameter update would run, in the same order,
    so the results are bit-identical.
    Build the optimizer once the parameters hold their starting values and
    from then on write into them in place: a parameter rebound to a new array
    makes ``step`` raise.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        # lr = 0 is allowed: it freezes the parameters while still advancing
        # moment estimates, which some harnesses use as a control run
        if lr < 0:
            raise ValueError("lr must be >= 0")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed twice")
        # Python floats, so a float32 parameter's update stays float32
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0   # steps taken; every parameter takes each one
        by_dtype: dict[np.dtype, list[Tensor]] = {}
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"a {p.shape} parameter has no gradient (requires_grad=False)")
            by_dtype.setdefault(p.values.dtype, []).append(p)
        self._arenas = [_Arena(group) for group in by_dtype.values()]
        state_of = {id(p): s for a in self._arenas for p, s in zip(a.params, a.states)}
        self.states = [state_of[id(p)] for p in self.params]

    def step(self) -> None:
        """One update per arena through one scratch array, in the order the
        class docstring spells out."""
        self.t += 1
        for a in self._arenas:
            a.check_views()
            g = a.grad
            scratch = g - a.m
            scratch *= 1.0 - self.beta1
            a.m += scratch
            np.multiply(g, g, out=scratch)
            scratch -= a.v
            scratch *= 1.0 - self.beta2
            a.v += scratch
            np.divide(a.v, 1.0 - self.beta2**self.t, out=scratch)  # v_hat
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            step = a.m / (1.0 - self.beta1**self.t)  # m_hat
            step *= self.lr
            step /= scratch
            a.values -= step

    def zero_grad(self) -> None:
        for a in self._arenas:
            a.grad.fill(0.0)


# -- checkpoint format -------------------------------------------------------

CHECKPOINT_FORMAT_VERSION = 1

_META_KEY = "__checkpoint_meta__"


class CheckpointFormatError(ValueError):
    """A file that is not a checkpoint :func:`save_checkpoint` wrote."""


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write a versioned key->array map.  Reload is bit-exact: each array
    keeps its dtype (a model's float32 parameters stay float32)."""
    payload = dict(meta or {})
    payload["format_version"] = CHECKPOINT_FORMAT_VERSION
    blobs = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
    if _META_KEY in blobs:
        raise ValueError(f"array key {_META_KEY!r} is reserved")
    blobs[_META_KEY] = np.frombuffer(json.dumps(payload, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **blobs)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`; any other file
    raises :class:`CheckpointFormatError`."""
    try:
        data = np.load(path)   # allow_pickle=False: a file that is no array raises
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:   # text, empty, truncated
        raise CheckpointFormatError(f"{path}: not a checkpoint file ({exc})") from exc
    with data:
        if _META_KEY not in data:
            raise CheckpointFormatError(f"{path}: not a checkpoint file (missing metadata)")
        meta = json.loads(bytes(data[_META_KEY]).decode())
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version!r}")
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
    return arrays, meta
