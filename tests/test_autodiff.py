"""Tensor/tape engine: forward semantics, gradient checks, Adam, checkpoints."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import numeric_gradient, rel_err
from hypothesis import example, given
from hypothesis import strategies as st

from modecast import autodiff
from modecast.autodiff import (
    Adam,
    BatchNormState,
    Tape,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)

GRAD_TOL = 1e-4


# -- forward semantics --------------------------------------------------------


def test_softmax_symmetry():
    out = Tape().softmax(Tensor(np.array([0.0, 0.0])))
    assert np.allclose(out.values, [0.5, 0.5])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = Tape().matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.values, a)


def test_mse_zero_loss_and_zero_gradient():
    tape = Tape()
    x = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
    loss = tape.mse(x, Tensor(x.values.copy()))
    assert loss.values == 0.0
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], np.zeros((1, 3)))


def test_matmul_shape_errors_report_both_shapes():
    tape = Tape()
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        tape.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    # leading axes must be equal: none is broadcast
    with pytest.raises(ValueError, match=r"\(2, 1, 3, 4\).*\(2, 5, 4, 2\)"):
        tape.matmul(Tensor(np.zeros((2, 1, 3, 4))), Tensor(np.zeros((2, 5, 4, 2))))


def test_concat_and_slice_round_trip():
    tape = Tape()
    a = Tensor(np.arange(6.0).reshape(2, 3))
    b = Tensor(np.arange(6.0, 12.0).reshape(2, 3))
    merged = tape.concat([a, b], axis=1)
    assert merged.shape == (2, 6)
    assert np.array_equal(merged.values[:, :3], a.values)
    assert np.array_equal(merged.values[:, 3:], b.values)


_RAW = np.ones((1, 4, 6))
_W = Tensor(np.ones((1, 6, 2)))
_NORM = (Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))))
# every op, called with a plain array where a Tensor operand belongs
RAW_OPERAND_CALLS = {
    "add": lambda tape, t: tape.add(t, _RAW),
    "mul": lambda tape, t: tape.mul(_RAW, t),
    "div": lambda tape, t: tape.div(t, _RAW),
    "add_scalar": lambda tape, t: tape.add_scalar(_RAW, 1.0),
    "mul_scalar": lambda tape, t: tape.mul_scalar(_RAW, 2.0),
    "exp": lambda tape, t: tape.exp(_RAW),
    "gelu": lambda tape, t: tape.gelu(_RAW),
    "astype": lambda tape, t: tape.astype(_RAW, np.float32),
    "matmul": lambda tape, t: tape.matmul(t, _W.values),
    "matmul_bias": lambda tape, t: tape.matmul(t, _W, bias=np.ones((1, 4, 1))),
    "matmul_residual": lambda tape, t: tape.matmul(t, _W, residual=np.ones((1, 4, 2))),
    "transpose": lambda tape, t: tape.transpose(_RAW),
    "reshape": lambda tape, t: tape.reshape(_RAW, (4, 6)),
    "concat": lambda tape, t: tape.concat([t, _RAW]),
    "sum": lambda tape, t: tape.sum(_RAW),
    "softmax": lambda tape, t: tape.softmax(_RAW),
    "attention": lambda tape, t: tape.attention(t, t, _RAW, 2, 3),
    "mse": lambda tape, t: tape.mse(t, _RAW),
    "batch_norm": lambda tape, t: tape.batch_norm(_RAW, *_NORM),
}


@pytest.mark.parametrize("op", sorted(RAW_OPERAND_CALLS))
def test_ops_reject_a_raw_array_operand(op):
    # a plain array is no constant: it fails, and the tape records nothing
    tape = Tape()
    with pytest.raises(AttributeError, match="values"):
        RAW_OPERAND_CALLS[op](tape, Tensor(_RAW))
    assert tape.n_ops == 0


# -- backward contracts -------------------------------------------------------


def test_backward_sum_is_ones():
    tape = Tape()
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
    grads = tape.backward(tape.sum(x))
    assert np.array_equal(grads[x], np.ones(4))


def test_backward_square_power_rule():
    tape = Tape()
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    grads = tape.backward(tape.sum(tape.mul(x, x)))
    assert np.allclose(grads[x], [2.0, 4.0])


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = Tensor(np.ones(3), requires_grad=True)
    y = tape.mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_parameter_off_the_loss_path_gets_zero_gradient():
    tape = Tape()
    x = Tensor(np.ones(2), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    tape.mul_scalar(y, 2.0)  # on the tape, but not feeding the loss
    grads = tape.backward(tape.sum(x))
    assert np.array_equal(grads[y], np.zeros(2))
    assert np.array_equal(grads[x], np.ones(2))


def test_tape_keeps_only_values_a_backward_rule_needs():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    tape = Tape()
    doubled = tape.add(x, x)               # add's rule needs no values
    squared = tape.mul(doubled, doubled)   # mul's rule needs both operands
    loss = tape.sum(tape.mul_scalar(squared, 0.5))
    freed, kept = weakref.ref(squared.values), weakref.ref(doubled.values)
    del doubled, squared
    assert freed() is None and kept() is not None
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], 4.0 * x.values)  # d/dx of (2x)^2 / 2


def test_backward_frees_what_the_rules_kept_and_serves_once():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    tape = Tape()
    doubled = tape.add(x, x)
    loss = tape.sum(tape.mul(doubled, doubled))   # mul's rule keeps doubled's values
    kept = weakref.ref(doubled.values)
    del doubled
    assert kept() is not None and tape.n_ops == 3
    grads = tape.backward(loss)
    assert kept() is None
    assert tape.n_ops == 3                         # ops recorded, not ops still held
    assert np.array_equal(grads[x], 8.0 * x.values)
    # the rules are gone: a second sweep raises instead of returning zeros
    with pytest.raises(ValueError, match="one backward"):
        tape.backward(loss)
    assert np.array_equal(x.grad, 8.0 * x.values)


def test_fanout_accumulation_matches_scaling():
    x1 = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    tape1 = Tape()
    tape1.backward(tape1.sum(tape1.add(x1, x1)))

    x2 = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    tape2 = Tape()
    tape2.backward(tape2.sum(tape2.mul_scalar(x2, 2.0)))

    assert np.array_equal(x1.grad, x2.grad)


def test_no_gradient_leak_between_backward_passes():
    def run_once(x):
        tape = Tape()
        loss = tape.sum(tape.mul(x, x))
        tape.backward(loss)
        return x.grad.copy()

    x = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    first = run_once(x)
    x.zero_grad()
    second = run_once(x)
    assert np.array_equal(first, second)


# -- finite-difference gradient checks over every differentiable op -----------


def _loss_through(tape, out, weight):
    return tape.sum(tape.mul(out, Tensor(weight)))


def _gradcheck(build, shapes, seeds=range(10), positive=False, tol=GRAD_TOL):
    """build(tape, tensors) -> output tensor; checks every input's gradient."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        arrays = []
        for shape in shapes:
            a = rng.normal(size=shape)
            if positive:
                a = np.abs(a) + 0.5
            arrays.append(a)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        probe_tape = Tape()
        out = build(probe_tape, tensors)
        weight = np.random.default_rng(seed + 1).normal(size=out.shape)

        tape = Tape()
        loss = _loss_through(tape, build(tape, tensors), weight)
        for t in tensors:
            t.zero_grad()
        tape.backward(loss)

        def value():
            vt = Tape()
            return float(_loss_through(vt, build(vt, tensors), weight).values)

        for t in tensors:
            numeric = numeric_gradient(value, t.values)
            assert rel_err(t.grad, numeric) < tol


OP_CASES = {
    "add": (lambda tp, ts: tp.add(ts[0], ts[1]), [(3, 4), (3, 4)], {}),
    "add_broadcast": (lambda tp, ts: tp.add(ts[0], ts[1]), [(2, 3, 4), (3, 1)], {}),
    "mul": (lambda tp, ts: tp.mul(ts[0], ts[1]), [(3, 4), (3, 4)], {}),
    "mul_broadcast": (lambda tp, ts: tp.mul(ts[0], ts[1]), [(4, 2), (4, 1)], {}),
    "div": (lambda tp, ts: tp.div(ts[0], ts[1]), [(3, 4), (3, 4)], {"positive": True}),
    "add_scalar": (lambda tp, ts: tp.add_scalar(ts[0], 1.7), [(4, 2)], {}),
    "mul_scalar": (lambda tp, ts: tp.mul_scalar(ts[0], -0.6), [(4, 2)], {}),
    "exp": (lambda tp, ts: tp.exp(ts[0]), [(6,)], {}),
    "gelu": (lambda tp, ts: tp.gelu(ts[0]), [(5, 3)], {}),
    "matmul_2d": (lambda tp, ts: tp.matmul(ts[0], ts[1]), [(3, 4), (4, 2)], {}),
    "matmul_3d": (lambda tp, ts: tp.matmul(ts[0], ts[1]), [(2, 3, 4), (2, 4, 5)], {}),
    "transpose": (lambda tp, ts: tp.transpose(ts[0]), [(2, 3, 4)], {}),
    "transpose_axes": (lambda tp, ts: tp.transpose(ts[0], (2, 0, 3, 1)), [(2, 3, 4, 5)], {}),
    "reshape": (lambda tp, ts: tp.reshape(ts[0], (6, 2)), [(3, 4)], {}),
    "concat": (lambda tp, ts: tp.concat(ts, axis=1), [(2, 3), (2, 2)], {}),
    "sum_all": (lambda tp, ts: tp.sum(ts[0]), [(3, 4)], {}),
    "softmax": (lambda tp, ts: tp.softmax(ts[0], axis=-1), [(3, 5)], {}),
    "softmax_3d": (lambda tp, ts: tp.softmax(ts[0], axis=-1), [(2, 3, 4)], {}),
    "mse": (lambda tp, ts: tp.mse(ts[0], ts[1]), [(3, 4), (3, 4)], {}),
    # K=2, two heads of d_k=2, two windows of three tokens
    "attention": (lambda tp, ts: tp.attention(*ts, 2, 3), [(2, 4, 6)] * 3, {}),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradcheck_op(name):
    build, shapes, kwargs = OP_CASES[name]
    _gradcheck(build, shapes, **kwargs)


@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    sizes=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
)
def test_matmul_gradients_match_finite_differences(lead, sizes, seed):
    # [*lead, m, n] @ [*lead, n, p]: the same leading axes on both operands
    m, n, p = sizes
    _gradcheck(lambda tp, ts: tp.matmul(ts[0], ts[1]),
               [(*lead, m, n), (*lead, n, p)], seeds=(seed,))


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("ndim", [2, 3])
def test_gradcheck_batch_norm(training, ndim):
    # ndim counts the axes after the leading channel axis (2 channels here):
    # [K, features, tokens] or [K, features, batch, tokens]
    shape = (2, 3, 4) if ndim == 2 else (2, 3, 4, 5)
    state = BatchNormState.for_features(2, 3)
    state.running_mean = np.array([[0.1, -0.2, 0.3], [0.2, 0.0, -0.1]])
    state.running_var = np.array([[1.1, 0.7, 1.4], [0.9, 1.3, 0.6]])

    def build(tp, ts):
        return tp.batch_norm(ts[0], ts[1], ts[2], state=None if training else state,
                             training=training)

    _gradcheck(build, [shape, (2, 3), (2, 3)], seeds=range(5))


# Bounds set from an error estimate, not from measured errors: central
# differences at h=1e-6 in float64 leave ~1e-8 of the largest gradient at
# these sizes, and batch norm's eps keeps 1/sqrt(var + eps) below ~316, which
# bounds its curvature.  mse and eval-mode batch norm are polynomials of
# degree two or less in each leaf, so their differences carry rounding only;
# attention's softmax has bounded curvature in the scaled scores.
GELU_FD_BOUND = 1e-6
BATCH_NORM_FD_BOUND = 1e-5
ATTENTION_FD_BOUND = 1e-6
MSE_FD_BOUND = 1e-6
EVAL_BATCH_NORM_FD_BOUND = 1e-6
leaf_dtypes = st.sampled_from([np.float32, np.float64])


def _gradients_keep_leaf_dtypes(build, shapes, dtypes, seed):
    """Each leaf, in its own dtype, gets its gradient in that dtype, both as
    ``backward`` returns it and in ``grad``."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
               for shape, dtype in zip(shapes, dtypes)]
    tape = Tape()
    grads = tape.backward(tape.sum(build(tape, tensors)))
    for t in tensors:
        assert grads[t].dtype == t.values.dtype and grads[t].shape == t.shape
        assert t.grad.dtype == t.values.dtype


@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3), dtype=leaf_dtypes,
       seed=st.integers(0, 2**16))
def test_gelu_gradients_match_finite_differences(shape, dtype, seed):
    def build(tp, ts):
        return tp.gelu(ts[0])

    _gradcheck(build, [tuple(shape)], seeds=(seed,), tol=GELU_FD_BOUND)
    _gradients_keep_leaf_dtypes(build, [tuple(shape)], [dtype], seed)


@given(
    kf=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    # [K, F, T] or [K, F, B, N] with at least three tokens per (channel,
    # feature): two normalize to +-1 up to eps, so x's gradient is O(eps) and
    # a relative bound on it measures finite-difference noise
    tokens=st.one_of(st.tuples(st.integers(3, 6)),
                     st.tuples(st.integers(1, 3), st.integers(3, 4))),
    dtypes=st.tuples(leaf_dtypes, leaf_dtypes, leaf_dtypes),
    seed=st.integers(0, 2**16),
)
def test_training_batch_norm_gradients_match_finite_differences(kf, tokens, dtypes, seed):
    def build(tp, ts):
        return tp.batch_norm(ts[0], ts[1], ts[2], training=True)

    shapes = [kf + tokens, kf, kf]
    _gradcheck(build, shapes, seeds=(seed,), tol=BATCH_NORM_FD_BOUND)
    _gradients_keep_leaf_dtypes(build, shapes, dtypes, seed)


@given(
    kf=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    tokens=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    dtypes=st.tuples(leaf_dtypes, leaf_dtypes, leaf_dtypes),
    seed=st.integers(0, 2**16),
)
def test_eval_batch_norm_gradients_match_finite_differences(kf, tokens, dtypes, seed):
    rng = np.random.default_rng(seed)
    state = BatchNormState(running_mean=rng.normal(size=kf),
                           running_var=rng.uniform(0.5, 2.0, size=kf))

    def build(tp, ts):
        return tp.batch_norm(ts[0], ts[1], ts[2], state=state, training=False)

    shapes = [kf + tuple(tokens), kf, kf]
    _gradcheck(build, shapes, seeds=(seed,), tol=EVAL_BATCH_NORM_FD_BOUND)
    _gradients_keep_leaf_dtypes(build, shapes, dtypes, seed)


@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       dtypes=st.tuples(leaf_dtypes, leaf_dtypes), seed=st.integers(0, 2**16))
def test_mse_gradients_match_finite_differences(shape, dtypes, seed):
    # [K, ...]: one mean per leading channel
    def build(tp, ts):
        return tp.mse(ts[0], ts[1])

    shapes = [tuple(shape)] * 2
    _gradcheck(build, shapes, seeds=(seed,), tol=MSE_FD_BOUND)
    _gradients_keep_leaf_dtypes(build, shapes, dtypes, seed)


# K channels, H heads of d_k features, B windows of N >= 2 tokens, small
# enough to difference every entry: with one token per window each query's
# softmax is 1 whatever the scores, so q's and k's gradients are exactly zero
# and a relative bound on them would measure finite-difference noise
@given(shape=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
                       st.integers(1, 2), st.integers(2, 4)),
       seed=st.integers(0, 2**16))
def test_attention_gradients_match_finite_differences(shape, seed):
    n_channels, n_heads, d_k, batch, n_tokens = shape
    _gradcheck(lambda tp, ts: tp.attention(*ts, n_heads, n_tokens),
               [(n_channels, n_heads * d_k, batch * n_tokens)] * 3, seeds=(seed,),
               tol=ATTENTION_FD_BOUND)


# -- rewritten kernels against the code they replaced ---------------------------

_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_reference(x):
    """gelu and its derivative with the cube taken by ``x**3`` (numpy's pow)."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), d


def test_gelu_within_4_ulp_of_pow_reference():
    # ULPs are counted at the magnitude of the terms each result sums, not of
    # the result: where 1 + tanh or the derivative cancels (x < -3, x near
    # -0.75) a one-ulp change in tanh is thousands of ulps of the small result
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=20000), rng.uniform(-10.0, 10.0, size=20000)])
    tape = Tape()
    xt = Tensor(x, requires_grad=True)
    out = tape.gelu(xt)
    grads = tape.backward(tape.sum(out))
    ref_out, ref_d = _gelu_reference(x)
    t = np.abs(np.tanh(_GELU_C * (x + 0.044715 * x**3)))
    out_scale = 0.5 * np.abs(x) * (1.0 + t)
    d_scale = 0.5 * (1.0 + t) + 0.5 * np.abs(x) * (1.0 + t * t) * _GELU_C * (
        1.0 + 3 * 0.044715 * x * x
    )
    assert np.all(np.abs(out.values - ref_out) <= 4 * np.spacing(out_scale))
    assert np.all(np.abs(grads[xt] - ref_d) <= 4 * np.spacing(d_scale))


def _matmul_grads_reference(av, bv, g, op=np.matmul):
    """Each operand's gradient as one product; ``op`` on absolute values gives
    the summation bound's ``|a|^T |g|``."""
    return op(g, np.swapaxes(bv, -1, -2)), op(np.swapaxes(av, -1, -2), g)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((3, 16, 8), (3, 8, 30)),          # weight on the left: w_patch, w_q/k/v, w_ff1, w_ff2
    ((3, 6, 16), (3, 16, 5)),          # weight on the right: flat @ w_head^T
    ((2, 3, 2, 5, 4), (2, 3, 2, 4, 5)),  # attention: q @ k per window and head
    ((7, 4), (4, 5)),                  # no leading axis
    ((1, 7, 4), (1, 4, 5)),            # size-1 leading axis on both sides
    ((3, 6, 5, 8), (3, 6, 8, 4)),      # nothing broadcast
])
def test_matmul_gradients_within_summation_bound(a_shape, b_shape):
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = Tensor(rng.normal(size=b_shape), requires_grad=True)
    tape = Tape()
    out = tape.matmul(a, b)
    g = rng.normal(size=out.shape)
    grads = tape.backward(tape.sum(tape.mul(out, Tensor(g))))
    refs = _matmul_grads_reference(a.values, b.values, g)
    bounds = _matmul_grads_reference(
        a.values, b.values, g, op=lambda x, y: np.matmul(np.abs(x), np.abs(y))
    )
    eps = np.finfo(np.float64).eps
    for t, inner, ref, bound in zip((a, b), (a_shape[-1], b_shape[-2]), refs, bounds):
        n = out.size * inner // t.size  # products summed into each gradient entry
        assert grads[t].shape == t.shape
        assert np.all(np.abs(grads[t] - ref) <= 2 * n * eps * bound)


def _attention_chain(tp, q, k, v, n_heads, n_tokens):
    """The five-op chain ``Tape.attention`` replaced: query-major scores
    ``q_hᵀ k_h``, scaled, a softmax over keys and values weighted by the
    transposed maps, with heads split and merged by reshapes and transposes."""
    n_channels, d_model, width = q.shape
    heads = (n_channels, n_heads, d_model // n_heads, width // n_tokens, n_tokens)

    def split(t, axes):
        return tp.transpose(tp.reshape(t, heads), axes)

    scores = tp.matmul(split(q, (0, 3, 1, 4, 2)), split(k, (0, 3, 1, 2, 4)))
    attn = tp.softmax(tp.mul_scalar(scores, 1.0 / math.sqrt(heads[2])), axis=-1)
    out = tp.matmul(split(v, (0, 3, 1, 2, 4)), tp.transpose(attn))
    return tp.reshape(tp.transpose(out, (0, 2, 3, 1, 4)), q.shape)


def _attention_run(build, arrays, weight, n_heads, n_tokens):
    """Output and q/k/v gradients of ``sum(build(q, k, v) * weight)``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    tape = Tape()
    out = build(tape, *tensors, n_heads, n_tokens)
    grads = tape.backward(_loss_through(tape, out, weight))
    return [out.values] + [grads[t] for t in tensors]


# K channels, H heads of d_k features, B windows of N tokens
attention_shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 8),
                             st.integers(1, 4), st.integers(1, 16))


def _attention_inputs(shape, seed, dtype):
    n_channels, n_heads, d_k, batch, n_tokens = shape
    rng = np.random.default_rng(seed)
    size = (n_channels, n_heads * d_k, batch * n_tokens)
    return [rng.normal(size=size).astype(dtype) for _ in range(4)]  # q, k, v, weight


@example(shape=(2, 3, 4, 1, 6), seed=1)   # one window
@example(shape=(2, 3, 4, 5, 1), seed=2)   # one token per window
@example(shape=(1, 1, 1, 1, 1), seed=3)
@given(shape=attention_shapes, seed=st.integers(0, 2**16))
def test_attention_matches_the_five_op_chain(shape, seed):
    # float64; relative to the chain's largest |value| of each output: the
    # two differ only in the order sums are added in
    *arrays, weight = _attention_inputs(shape, seed, np.float64)
    got = _attention_run(Tape.attention, arrays, weight, shape[1], shape[4])
    want = _attention_run(_attention_chain, arrays, weight, shape[1], shape[4])
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@example(shape=(2, 3, 4, 1, 6), seed=1)   # one window
@example(shape=(2, 3, 4, 5, 1), seed=2)   # one token per window
@example(shape=(1, 1, 1, 1, 1), seed=3)
@given(shape=attention_shapes, seed=st.integers(0, 2**16))
def test_attention_maps_are_window_inner_columns_that_sum_to_one(shape, seed):
    # the maps are a [K, B, H, N_keys, N_queries] view of a contiguous
    # [K, H, N_keys, B, N_queries] array; each query's N float64
    # probabilities sum to one within N eps
    n_channels, n_heads, d_k, batch, n_tokens = shape
    q, k = (a.reshape(n_channels, n_heads, d_k, batch, n_tokens).transpose(0, 3, 1, 2, 4)
            for a in _attention_inputs(shape, seed, np.float64)[:2])
    maps = autodiff._attention_probabilities(q, k, 1.0 / math.sqrt(d_k))
    assert maps.shape == (n_channels, batch, n_heads, n_tokens, n_tokens)
    assert maps.transpose(0, 2, 3, 1, 4).flags.c_contiguous
    assert np.max(np.abs(maps.sum(axis=-2) - 1.0)) <= n_tokens * np.finfo(np.float64).eps


@given(shape=attention_shapes, seed=st.integers(0, 2**16))
def test_attention_in_float32_within_1e_6_of_float64(shape, seed):
    # the same float32-representable inputs in both dtypes; 1e-6 is about 8.4
    # float32 eps of the float64 op's largest |value| of each output
    inputs = _attention_inputs(shape, seed, np.float32)
    *arrays, weight = [a.astype(np.float64) for a in inputs]
    want = _attention_run(Tape.attention, arrays, weight, shape[1], shape[4])
    *arrays, weight = inputs
    got = _attention_run(Tape.attention, arrays, weight, shape[1], shape[4])
    for g, w in zip(got, want):
        assert g.dtype == np.float32
        assert np.max(np.abs(g - w)) <= 1e-6 * np.max(np.abs(w))


@given(dtypes=st.tuples(*[st.sampled_from([np.float32, np.float64])] * 3))
def test_attention_gradients_take_each_inputs_dtype(dtypes):
    *arrays, weight = _attention_inputs((2, 2, 3, 2, 4), 0, np.float64)
    tensors = [Tensor(a.astype(dtype)) for a, dtype in zip(arrays, dtypes)]
    tape = Tape()
    out = tape.attention(*tensors, 2, 4)
    assert out.values.dtype == np.result_type(*dtypes)
    (entry,) = tape._entries
    grads = entry.backward(weight.astype(out.values.dtype))
    assert [g.dtype for g in grads] == [np.dtype(dtype) for dtype in dtypes]
    assert all(g.shape == t.shape for g, t in zip(grads, tensors))


def test_attention_rejects_mismatched_or_unsplittable_inputs():
    tape = Tape()
    x = Tensor(np.zeros((2, 4, 6)))
    with pytest.raises(ValueError, match="equal"):
        tape.attention(x, x, Tensor(np.zeros((2, 4, 3))), 2, 3)
    with pytest.raises(ValueError, match="heads"):
        tape.attention(x, x, x, 3, 3)
    with pytest.raises(ValueError, match="windows of 4"):
        tape.attention(x, x, x, 2, 4)


def test_batch_norm_updates_running_stats_only_in_training():
    state = BatchNormState.for_features(1, 2)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 8)))
    gamma, beta = Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))
    before = state.running_mean.copy()
    Tape().batch_norm(x, gamma, beta, state=state, training=True)
    assert not np.array_equal(before, state.running_mean)
    frozen = state.running_mean.copy()
    Tape().batch_norm(x, gamma, beta, state=state, training=False)
    assert np.array_equal(frozen, state.running_mean)


# -- in-place kernels against the expressions they replaced ---------------------
#
# gelu, batch_norm and Adam write their intermediates into buffers they own;
# the references below are the expressions they replaced, copied verbatim,
# and every result must equal them bit for bit.


def _gelu_replaced(x):
    """``Tape.gelu``'s forward and backward before its buffers were reused."""
    _GELU_C = math.sqrt(2.0 / math.pi)  # the source's Python float
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        return (g * d,)

    return out, bwd


def _batch_norm_replaced(xv, gamma, beta, state, training, eps=1e-5):
    """``Tape.batch_norm``'s forward and backward before its buffers were
    reused, on arrays."""
    pshape = gamma.shape + (1,) * (xv.ndim - 2)
    axes = tuple(range(2, xv.ndim))
    gv = gamma.reshape(pshape)

    if training:
        mu = xv.mean(axis=axes, keepdims=True)
        centred = xv - mu
        # the sum of squares np.var takes, without centring a second time
        var = (centred * centred).mean(axis=axes, keepdims=True)
        if state is not None:
            m = state.momentum
            state.running_mean += m * (mu.reshape(gamma.shape) - state.running_mean)
            state.running_var += m * (var.reshape(gamma.shape) - state.running_var)
    else:
        centred = xv - state.running_mean.reshape(pshape)
        var = state.running_var.reshape(pshape)

    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = gv * xhat + beta.reshape(pshape)

    def bwd(g):
        gx = g * xhat
        dgamma = gx.sum(axis=axes)
        dbeta = g.sum(axis=axes)
        if training:
            gm = g.mean(axis=axes, keepdims=True)
            gxm = gx.mean(axis=axes, keepdims=True)
            dx = gv * inv * (g - gm - xhat * gxm)
        else:
            dx = g * gv * inv
        return dx, dgamma, dbeta

    return out, bwd


def _adam_step_replaced(opt, params, states):
    """``Adam.step`` before its scratch array and its per-dtype arenas: one
    update per parameter with ``opt``'s settings, on ``states`` holding each
    parameter's own ``m``, ``v`` and step count ``t``."""
    for p, s in zip(params, states):
        g = p.grad
        if g is None:
            continue
        s.t += 1
        s.m += (1.0 - opt.beta1) * (g - s.m)
        s.v += (1.0 - opt.beta2) * (g * g - s.v)
        m_hat = s.m / (1.0 - opt.beta1**s.t)
        v_hat = s.v / (1.0 - opt.beta2**s.t)
        p.values -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


kernel_dtypes = st.sampled_from([np.float32, np.float64])
# [K, D, T] or [K, D, B, N]
kernel_shapes = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 12)),
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 6)),
)
_TINY = float(np.finfo(np.float32).smallest_subnormal)
_EDGE_VALUES = np.array([0.0, -0.0, _TINY, -_TINY, 37 * _TINY, 1e-40, -1e-30, 1e6, -1e6])


def _kernel_array(rng, dtype, shape, positive=False):
    """Values up to 1e6 in magnitude, so no intermediate overflows in float32:
    half of them normal with scale 3, half of any magnitude down to below
    float32's subnormals, and about a fifth replaced by exact zeros, float32
    subnormals or +-1e6."""
    scale = np.where(rng.random(shape) < 0.5, 3.0, 10.0 ** rng.uniform(-47.0, 6.0, shape))
    a = np.clip(rng.normal(size=shape) * scale, -1e6, 1e6)
    edge = rng.random(shape) < 0.2
    a[edge] = rng.choice(_EDGE_VALUES, size=int(edge.sum()))
    return (np.abs(a) if positive else a).astype(dtype)


def _bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(dtype=kernel_dtypes, g_dtype=kernel_dtypes, shape=kernel_shapes,
       seed=st.integers(0, 2**16))
def test_gelu_equals_the_expressions_it_replaced(dtype, g_dtype, shape, seed):
    rng = np.random.default_rng(seed)
    x, g = _kernel_array(rng, dtype, shape), _kernel_array(rng, g_dtype, shape)
    x_before, g_before = x.copy(), g.copy()
    tape = Tape()
    out = tape.gelu(Tensor(x))
    (entry,) = tape._entries
    (dx,) = entry.backward(g)
    want_out, want_bwd = _gelu_replaced(x_before)
    (want_dx,) = want_bwd(g_before)
    _bitwise_equal(out.values, want_out)
    _bitwise_equal(dx, want_dx)
    _bitwise_equal(x, x_before)
    _bitwise_equal(g, g_before)


@given(x_dtype=kernel_dtypes, p_dtype=kernel_dtypes, g_wide=st.booleans(), shape=kernel_shapes,
       mode=st.sampled_from(["training", "training with state", "eval"]),
       seed=st.integers(0, 2**16))
def test_batch_norm_equals_the_expressions_it_replaced(x_dtype, p_dtype, g_wide, shape, mode,
                                                       seed):
    # scale, shift and running statistics share one dtype, as a model's do;
    # the incoming gradient has at least the output's dtype, as on a tape
    rng = np.random.default_rng(seed)
    training = mode != "eval"
    params = (shape[0], shape[1])
    x = _kernel_array(rng, x_dtype, shape)
    gamma, beta = _kernel_array(rng, p_dtype, params), _kernel_array(rng, p_dtype, params)
    g_dtype = np.float64 if g_wide else np.result_type(x_dtype, p_dtype)
    g = _kernel_array(rng, g_dtype, shape)
    states = [None, None]
    if mode != "training":
        mean = _kernel_array(rng, p_dtype, params)
        var = _kernel_array(rng, p_dtype, params, positive=True)
        states = [BatchNormState(mean.copy(), var.copy()) for _ in range(2)]
    before = [a.copy() for a in (x, gamma, beta, g)]

    tape = Tape()
    out = tape.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state=states[0],
                          training=training)
    (entry,) = tape._entries
    grads = entry.backward(g)
    want_out, want_bwd = _batch_norm_replaced(*before[:3], states[1], training)
    _bitwise_equal(out.values, want_out)
    for got, want in zip(grads, want_bwd(before[3])):
        _bitwise_equal(got, want)
    if states[0] is not None:
        _bitwise_equal(states[0].running_mean, states[1].running_mean)
        _bitwise_equal(states[0].running_var, states[1].running_var)
    for after, copy in zip((x, gamma, beta, g), before):
        _bitwise_equal(after, copy)


addend_kinds = st.sampled_from(["bias", "residual", "both"])


@given(dtype=kernel_dtypes, addend_dtype=kernel_dtypes, kind=addend_kinds,
       full_bias=st.booleans(),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
                       st.integers(1, 8)),
       seed=st.integers(0, 2**16))
def test_matmul_addends_equal_the_add_chain(dtype, addend_dtype, kind, full_bias, shape,
                                            seed):
    # matmul(w, x, bias=b, residual=r) against the chain the encoder layer
    # recorded before, add(r, add(matmul(w, x), b)): output and every
    # input's gradient; a [K, F, 1] bias broadcasts over the tokens
    k, f, n, t = shape
    rng = np.random.default_rng(seed)
    w, x = _kernel_array(rng, dtype, (k, f, n)), _kernel_array(rng, dtype, (k, n, t))
    b = _kernel_array(rng, addend_dtype, (k, f, t if full_bias else 1))
    r = _kernel_array(rng, addend_dtype, (k, f, t))
    g_dtype = np.result_type(dtype, addend_dtype)
    g = _kernel_array(rng, g_dtype, (k, f, t))
    before = [a.copy() for a in (w, x, b, r, g)]
    bias = Tensor(b) if kind in ("bias", "both") else None
    residual = Tensor(r) if kind in ("residual", "both") else None

    tape = Tape()
    out = tape.matmul(Tensor(w), Tensor(x), bias=bias, residual=residual)
    (entry,) = tape._entries
    grads = entry.backward(g)

    chain = Tape()
    want = chain.matmul(Tensor(w), Tensor(x))
    if bias is not None:
        want = chain.add(want, bias)
    if residual is not None:
        want = chain.add(residual, want)
    # the chain's backward, last entry first
    g_product, added = g, []
    if residual is not None:
        g_residual, g_product = chain._entries[-1].backward(g_product)
        added.append(g_residual)
    if bias is not None:
        g_product, g_bias = chain._entries[1].backward(g_product)
        added.insert(0, g_bias)
    want_grads = [*chain._entries[0].backward(g_product), *added]   # w, x, bias, residual

    _bitwise_equal(out.values, want.values)
    assert len(grads) == len(want_grads)
    for got, want_grad in zip(grads, want_grads):
        _bitwise_equal(got, want_grad)
    for after, copy in zip((w, x, b, r), before):
        _bitwise_equal(after, copy)


@pytest.mark.parametrize("addends", [
    {"bias": np.zeros((2, 3, 2))},        # 2 tokens against 4
    {"bias": np.zeros((1, 2, 3, 1))},     # an extra leading axis
    {"residual": np.zeros((2, 3, 1))},    # a residual does not broadcast
], ids=["bias_tokens", "bias_ndim", "residual_broadcast"])
def test_matmul_rejects_addends_that_do_not_fit_the_product(addends):
    with pytest.raises(ValueError, match="does not fit"):
        Tape().matmul(Tensor(np.ones((2, 3, 5))), Tensor(np.ones((2, 5, 4))),
                      **{name: Tensor(a) for name, a in addends.items()})


# -- Adam ----------------------------------------------------------------------


def test_adam_first_step_matches_hand_computation():
    # fresh state, g = 1: m_hat = 1, v_hat = 1, delta = -lr / (1 + eps)
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    p.grad[:] = 1.0
    opt.step()
    assert abs(p.values[0] + 0.1) < 1e-6


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = Tensor(np.array([1.25, -3.5]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad[:] = 0.0
    opt.step()
    assert np.array_equal(p.values, [1.25, -3.5])


def test_adam_identical_gradients_give_identical_updates():
    a = Tensor(np.array([0.5]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([a, b], lr=0.01)
    for _ in range(5):
        a.grad[:] = 0.37
        b.grad[:] = 0.37
        opt.step()
    assert np.array_equal(a.values, b.values)


def test_adam_deterministic_trajectory():
    def run():
        rng = np.random.default_rng(42)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for _ in range(20):
            tape = Tape()
            loss = tape.sum(tape.mul(p, p))
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
        return p.values.copy()

    assert np.array_equal(run(), run())


@given(
    dtypes=st.lists(kernel_dtypes, min_size=1, max_size=4),
    lr=st.sampled_from([0.0, 1e-3, 0.1]),
    n_steps=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_adam_steps_equal_the_update_they_replaced(dtypes, lr, n_steps, seed):
    # float32 parameters (the encoder) next to float64 ones (theta); gradients
    # span small and large magnitudes and include exact zeros
    rng = np.random.default_rng(seed)
    shapes = [tuple(rng.integers(1, 5, size=rng.integers(1, 3))) for _ in dtypes]
    initial = [rng.normal(size=shape).astype(dtype) for shape, dtype in zip(shapes, dtypes)]
    opt = Adam([Tensor(values.copy(), requires_grad=True) for values in initial], lr=lr)
    alone = [Tensor(values.copy(), requires_grad=True) for values in initial]
    states = [SimpleNamespace(m=np.zeros_like(values), v=np.zeros_like(values), t=0)
              for values in initial]
    for _ in range(n_steps):
        for p, q in zip(opt.params, alone):
            grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-30, 6, size=p.shape)
            grad[rng.random(p.shape) < 0.2] = 0.0
            p.grad[...] = grad
            q.grad[...] = grad
        before = [p.grad.copy() for p in opt.params]
        opt.step()
        _adam_step_replaced(opt, alone, states)
        for p, q, grad in zip(opt.params, alone, before):
            _bitwise_equal(p.values, q.values)
            _bitwise_equal(p.grad, grad)
        for s, r in zip(opt.states, states):
            _bitwise_equal(s.m, r.m)
            _bitwise_equal(s.v, r.v)


def _mixed_params(rng):
    """Float32 parameters (the encoder) around a float64 one (theta)."""
    return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for shape, dtype in [((2, 3), np.float32), ((4,), np.float64),
                                 ((3, 1, 2), np.float32)]]


def test_adam_zero_grad_clears_every_parameter_through_its_arena():
    rng = np.random.default_rng(5)
    params = _mixed_params(rng)
    opt = Adam(params, lr=0.01)
    views = [p.grad for p in params]
    for p in params:
        p.grad[...] = rng.normal(size=p.shape)
    opt.zero_grad()
    for p, view in zip(params, views):
        assert p.grad is view and p.grad.dtype == p.values.dtype
        assert not np.any(p.grad)
    # a backward after zero_grad accumulates into the same views
    tape = Tape()
    tape.backward(tape.sum(tape.mul(params[1], params[1])))
    assert np.array_equal(params[1].grad, 2.0 * params[1].values)
    assert not np.any(params[0].grad) and not np.any(params[2].grad)


@pytest.mark.parametrize("attr", ["values", "grad"])
def test_adam_step_fails_loudly_on_a_rebound_parameter(attr):
    params = _mixed_params(np.random.default_rng(6))
    opt = Adam(params, lr=0.01)
    opt.step()
    setattr(params[2], attr, getattr(params[2], attr).copy())
    with pytest.raises(RuntimeError, match="replaced after Adam was built"):
        opt.step()


def test_adam_rejects_a_parameter_listed_twice():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="twice"):
        Adam([p, p])


def test_adam_rejects_a_parameter_without_a_gradient():
    trained = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match=r"\(2,\) parameter has no gradient"):
        Adam([trained, Tensor(np.zeros(2))])


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "weights": rng.normal(size=(7, 5)),
        "bias": rng.normal(size=5),
        "nested.buffer": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "model.npz"
    save_checkpoint(path, arrays, meta={"note": "test", "epochs": 3})
    loaded, meta = load_checkpoint(path)
    assert meta["note"] == "test" and meta["epochs"] == 3
    assert set(loaded) == set(arrays)
    for key, arr in arrays.items():
        assert loaded[key].dtype == arr.dtype
        assert np.array_equal(loaded[key], arr)


def test_checkpoint_rejects_unknown_version(tmp_path):
    import json

    path = tmp_path / "model.npz"
    save_checkpoint(path, {"a": np.zeros(2)}, meta={})
    blob = dict(np.load(path))
    blob["__checkpoint_meta__"] = np.frombuffer(
        json.dumps({"format_version": 999}).encode(), dtype=np.uint8
    )
    np.savez(path, **blob)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
