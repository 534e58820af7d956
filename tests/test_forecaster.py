"""Patch forecaster: patching, instance scaling, attention, training, persistence."""

import concurrent.futures
import ctypes
import math
import queue
import platform
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import numeric_gradient, rel_err

from modecast import autodiff, forecaster
from modecast import scale_weights as swmod
from modecast.autodiff import Adam, Tape, Tensor, load_checkpoint, save_checkpoint
from modecast.config import ConfigError, ExperimentConfig
from modecast.forecaster import (
    PREDICT_ROWS,
    CheckpointMismatchError,
    ForecasterConfig,
    PatchForecaster,
    embed,
    instance_normalize,
    n_patches,
    patchify,
    train_epoch,
)

TINY = ForecasterConfig(
    lookback=8, horizon=1, patch_len=4, stride=2, d_model=4, n_heads=2, n_layers=1, d_ff=8
)


# -- config ---------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ForecasterConfig(patch_len=200, lookback=96)
    with pytest.raises(ValueError):
        ForecasterConfig(d_model=10, n_heads=4)
    for section, key in (
        ("model", "dropout"), ("aswl", "aggregate"),
        ("model", "norm"), ("vmd", "seed"), ("vmd", "sort_modes"),
    ):
        with pytest.raises(ConfigError, match=f"unknown keys in '{section}'.*{key}"):
            ExperimentConfig.from_dict({"data": {"generator": {"name": "two_tone"}},
                                        section: {key: 0}})


def test_patch_count_spot_value():
    assert n_patches(336, 16, 8) == 42


def test_patch_count_exhaustive_small_grid():
    for lookback in range(2, 65):
        for patch_len in range(1, lookback + 1):
            for stride in range(1, 17):
                count = n_patches(lookback, patch_len, stride)
                assert count == (lookback - patch_len) // stride + 2
                window = np.arange(float(lookback))
                got = patchify(window, patch_len, stride)
                assert got.shape == (patch_len, count)


# -- patchify -------------------------------------------------------------------


def test_patchify_pads_with_repeated_last_value():
    got = patchify(np.array([1.0, 2.0, 3.0, 4.0]), 4, 4)
    assert got.shape == (4, 2)
    assert np.array_equal(got[:, 0], [1, 2, 3, 4])
    assert np.array_equal(got[:, 1], [4, 4, 4, 4])


def test_patchify_patch_positions():
    window = np.arange(10.0)
    got = patchify(window, 3, 2)  # N = 5, padded length 12
    padded = np.concatenate([window, [9.0, 9.0]])
    for j in range(got.shape[1]):
        assert np.array_equal(got[:, j], padded[2 * j: 2 * j + 3])


def test_patchify_coverage_when_stride_le_patch():
    rng = np.random.default_rng(0)
    for lookback in range(4, 33, 3):
        for patch_len in range(2, lookback + 1, 3):
            for stride in range(1, patch_len + 1):
                window = rng.normal(size=lookback)
                patches = patchify(window, patch_len, stride)
                covered = set()
                for j in range(patches.shape[1]):
                    covered.update(range(j * stride, min(j * stride + patch_len, lookback)))
                assert covered == set(range(lookback))


# -- instance normalization -------------------------------------------------------


def test_instance_normalize_centers():
    normed, stats = instance_normalize(np.array([[1.0, 2.0, 3.0]]))
    assert abs(normed.mean()) < 1e-12
    assert stats.mean[0, 0] == 2.0


def test_instance_normalize_constant_window():
    normed, stats = instance_normalize(np.array([[5.0, 5.0, 5.0]]))
    assert np.array_equal(normed, np.zeros((1, 3)))
    # the inverse the forecaster's head applies to its output
    assert np.array_equal(normed * stats.std + stats.mean, [[5.0, 5.0, 5.0]])


def test_instance_round_trip():
    rng = np.random.default_rng(1)
    windows = rng.normal(scale=30.0, size=(40, 16)) + 100.0
    normed, stats = instance_normalize(windows)
    back = normed * stats.std + stats.mean
    assert np.max(np.abs(back - windows)) < 1e-10


# -- embed -----------------------------------------------------------------------


def test_embed_zero_projection_gives_positional_encoding():
    rng = np.random.default_rng(2)
    w_pos = Tensor(rng.normal(size=(4, 3)))
    out = embed(Tape(), Tensor(rng.normal(size=(2, 5, 3))), Tensor(np.zeros((2, 4, 5))), w_pos)
    assert np.allclose(out.values, np.broadcast_to(w_pos.values, (2, 4, 3)))


def test_embed_basis_columns_select_projection_columns():
    rng = np.random.default_rng(3)
    w_patch = Tensor(rng.normal(size=(4, 5)))
    patches = Tensor(np.eye(5)[:, :3])  # unit columns pick w_patch columns
    out = embed(Tape(), patches, w_patch, Tensor(np.zeros((4, 3))))
    assert np.allclose(out.values, w_patch.values[:, :3])


def test_embed_matches_dense_multiply_oracle():
    rng = np.random.default_rng(4)
    w_patch = rng.normal(size=(6, 4))
    w_pos = rng.normal(size=(6, 5))
    patches = rng.normal(size=(4, 5))
    out = embed(Tape(), Tensor(patches), Tensor(w_patch), Tensor(w_pos))
    oracle = w_patch @ patches + w_pos
    assert np.max(np.abs(out.values - oracle)) < 1e-12


# -- attention layer ---------------------------------------------------------------


ATTN_CFG = ForecasterConfig(
    lookback=16, horizon=2, patch_len=4, stride=2, d_model=8, n_heads=2,
    n_layers=2, d_ff=16,
)


@pytest.fixture
def attention_maps(monkeypatch) -> list[np.ndarray]:
    """Every attention map ``Tape.attention`` computes during the test, each
    key-major ``[K, B, H, N_keys, N_queries]``: a query's probabilities run
    down axis -2."""
    maps: list[np.ndarray] = []
    probabilities = autodiff._attention_probabilities

    def recording(q, k, scale):
        maps.append(probabilities(q, k, scale))
        return maps[-1]

    monkeypatch.setattr(autodiff, "_attention_probabilities", recording)
    return maps


def _forward_attention_maps(maps: list[np.ndarray], dtype) -> list[np.ndarray]:
    model = PatchForecaster(ATTN_CFG, [np.random.default_rng(5)], dtype=dtype)
    model.forward_on_tape(Tape(), np.random.default_rng(6).normal(size=(3, 16, 1)),
                          training=True)
    assert len(maps) == ATTN_CFG.n_layers
    for attn in maps:
        assert attn.dtype == dtype
        assert attn.shape == (1, 3, ATTN_CFG.n_heads, ATTN_CFG.n_patches, ATTN_CFG.n_patches)
    return maps


def test_attention_softmax_rows_sum_to_one_everywhere(attention_maps):
    for attn in _forward_attention_maps(attention_maps, np.float64):
        assert np.max(np.abs(attn.sum(axis=-2) - 1.0)) < 1e-9


def test_attention_softmax_rows_sum_to_one_everywhere_in_float32(attention_maps):
    # one query's N probabilities: the normalizing sum, each division and the
    # check's own sum round once per term, about 2N half-ulps in all
    ulp = np.finfo(np.float32).eps
    for attn in _forward_attention_maps(attention_maps, np.float32):
        assert np.max(np.abs(attn.sum(axis=-2) - 1.0)) <= ATTN_CFG.n_patches * ulp


def test_attention_zero_values_keep_layer_finite():
    model = PatchForecaster(TINY, [np.random.default_rng(7)])
    for name, p in model.params.items():
        if ".w_v" in name:
            p.values[...] = 0.0
    out = model.forward_on_tape(Tape(), np.random.default_rng(8).normal(size=(2, 8, 1)),
                                training=True)
    assert np.all(np.isfinite(out.values))


def test_attention_hand_computed_single_head(attention_maps):
    # single head, 2 tokens, d_model 2: compare the attention product against
    # a direct numpy evaluation at fixed small weights
    cfg = ForecasterConfig(
        lookback=4, horizon=1, patch_len=4, stride=4, d_model=2, n_heads=1,
        n_layers=1, d_ff=4,
    )
    model = PatchForecaster(cfg, [np.random.default_rng(9)])
    assert cfg.n_patches == 2
    wq = np.array([[0.3, -0.1], [0.2, 0.4]])
    wk = np.array([[-0.5, 0.2], [0.1, 0.3]])
    wv = np.array([[0.7, 0.0], [-0.2, 0.5]])
    # the model applies each projection as W @ x, so it holds the transposes
    model.params["layer0.w_q"].values = wq.T[None].copy()
    model.params["layer0.w_k"].values = wk.T[None].copy()
    model.params["layer0.w_v"].values = wv.T[None].copy()

    x_d = np.array([[0.5, -1.0], [1.5, 0.25]])  # [D, N]
    # feature-major [K, D, B*N] tokens of one window
    model._attention_layer(Tape(), Tensor(x_d[None]), 0, training=True)

    q = x_d.T @ wq
    k = x_d.T @ wk
    scores = q @ k.T / math.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    (key_major,) = attention_maps
    assert np.max(np.abs(np.swapaxes(key_major[0, 0], -1, -2) - attn)) < 1e-10


def _per_head_attention_layer(model, x, index):
    """Numpy reference of one encoder layer with the attention computed one
    head at a time on ``[N, D]`` tokens, heads concatenated along features.
    Head ``h`` projects with the transposes of rows ``h*d_k:(h+1)*d_k`` of the
    model's ``w_q``/``w_k``/``w_v``.  Returns the layer output and each head's
    ``[K, B, N, N]`` attention matrix."""
    cfg = model.config
    dk = cfg.head_dim

    def param(name):
        return model.params[f"layer{index}.{name}"].values[:, None]   # [K, 1, ...]

    def norm(z, name):
        gamma, beta = (param(f"{name}.{s}")[..., None] for s in ("gamma", "beta"))
        mu, var = z.mean(axis=(1, 3), keepdims=True), z.var(axis=(1, 3), keepdims=True)
        return gamma * (z - mu) / np.sqrt(var + 1e-5) + beta

    tokens = np.swapaxes(x, -1, -2)                                    # [K, B, N, D]
    heads, attns = [], []
    for h in range(cfg.n_heads):
        q, k, v = (tokens @ np.swapaxes(param(name)[..., h * dk:(h + 1) * dk, :], -1, -2)
                   for name in ("w_q", "w_k", "w_v"))
        scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(dk)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attns.append(e / e.sum(axis=-1, keepdims=True))
        heads.append(attns[-1] @ v)
    merged = np.concatenate(heads, axis=-1)                            # [K, B, N, D]
    z = norm(x + param("w_attn_out") @ np.swapaxes(merged, -1, -2), "norm1")
    hidden = param("w_ff1") @ z + param("b_ff1")
    hidden = 0.5 * hidden * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                           * (hidden + 0.044715 * hidden ** 3)))
    return norm(z + param("w_ff2") @ hidden + param("b_ff2"), "norm2"), attns


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_layer_matches_per_head_reference(n_heads, attention_maps):
    cfg = ForecasterConfig(
        lookback=16, horizon=1, patch_len=4, stride=2, d_model=8, n_heads=n_heads,
        n_layers=1, d_ff=16,
    )
    model = PatchForecaster(cfg, [np.random.default_rng(50), np.random.default_rng(51)])
    rng = np.random.default_rng(52)
    for name, p in model.params.items():
        if ".norm" in name:
            p.values = p.values + rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(2, 3, cfg.d_model, cfg.n_patches))
    # the layer runs on feature-major [K, D, B*N] tokens
    shape = (2, cfg.d_model, 3, cfg.n_patches)
    tokens = np.moveaxis(x, 1, 2).reshape(2, cfg.d_model, -1)
    out = model._attention_layer(Tape(), Tensor(tokens), 0, training=True)
    got = np.moveaxis(out.values.reshape(shape), 2, 1)
    want, want_attns = _per_head_attention_layer(model, x, 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    (key_major,) = attention_maps
    attn = np.swapaxes(key_major, -1, -2)                              # [K, B, H, N, N]
    for h, want_attn in enumerate(want_attns):
        assert np.max(np.abs(attn[:, :, h] - want_attn)) <= 1e-12 * np.max(np.abs(want_attn))

    def forward_ops(config):
        tape = Tape()
        PatchForecaster(config, [np.random.default_rng(53)]).forward_on_tape(
            tape, rng.normal(size=(3, 16, 1)), training=True)
        return tape.n_ops

    assert forward_ops(cfg) == forward_ops(ForecasterConfig(**dict(cfg.to_dict(), n_heads=1)))


# -- forward -------------------------------------------------------------------


def test_zero_head_predicts_window_mean():
    model = PatchForecaster(TINY, [np.random.default_rng(10)])
    model.params["w_head"].values[...] = 0.0
    model.params["b_head"].values[...] = 0.0
    windows = np.random.default_rng(11).normal(size=(5, 8, 1)) * 3.0 + 50.0
    pred = model.predict(windows)
    assert np.max(np.abs(pred[0, :, 0] - windows[:, :, 0].mean(axis=1))) < 1e-10


@pytest.mark.parametrize("lookback,patch_len,stride,horizon", [
    (8, 4, 2, 1), (12, 3, 3, 2), (16, 16, 4, 3), (10, 2, 5, 1),
])
def test_forward_output_shapes(lookback, patch_len, stride, horizon):
    cfg = ForecasterConfig(
        lookback=lookback, horizon=horizon, patch_len=patch_len, stride=stride,
        d_model=4, n_heads=2, n_layers=1, d_ff=8,
    )
    model = PatchForecaster(cfg, [np.random.default_rng(12)])
    out = model.predict(np.random.default_rng(13).normal(size=(3, lookback, 1)))
    assert out.shape == (1, 3, horizon)


def test_forward_is_pure():
    model = PatchForecaster(TINY, [np.random.default_rng(14)])
    window = np.random.default_rng(15).normal(size=(1, 8, 1))
    assert np.array_equal(model.predict(window), model.predict(window))


def test_predict_in_row_chunks_matches_one_forward_pass(monkeypatch):
    # predict encodes PREDICT_ROWS windows at a time on tapes that keep no
    # op; the result must equal one inference pass over every row, recorded
    # on a tape, bit for bit
    model = PatchForecaster(TINY, [np.random.default_rng(40), np.random.default_rng(41)])
    windows = np.random.default_rng(42).normal(size=(2 * PREDICT_ROWS + 5, 8, 2))
    one_pass = model.forward_on_tape(Tape(), windows, training=False).values
    tapes = []

    class SpyTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(self)

    monkeypatch.setattr(forecaster, "Tape", SpyTape)
    assert np.array_equal(model.predict(windows), one_pass)
    assert len(tapes) == 4 and all(t.n_ops == 0 for t in tapes)   # 3 chunks, 1 head


def test_predict_memory_at_the_bundled_shape():
    # configs/synthetic.yaml's model; a recorded inference tape peaked near 10 MB here
    cfg = ForecasterConfig(lookback=96, horizon=1, patch_len=16, stride=8, d_model=64,
                           n_heads=4, n_layers=2, d_ff=128)
    model = PatchForecaster(cfg, [np.random.default_rng(m) for m in range(3)])
    windows = np.random.default_rng(46).normal(size=(120, 96, 3))
    tracemalloc.start()
    try:
        model.predict(windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6


def test_forward_rejects_wrong_length():
    model = PatchForecaster(TINY, [np.random.default_rng(16)])
    with pytest.raises(ValueError, match="batch, 8"):
        model.predict(np.zeros((2, 9, 1)))


def _forward_and_gradients(model, windows, targets):
    """Inference forecast, then one training forward/backward (which also
    folds batch statistics into the running ones)."""
    pred = model.predict(windows)
    tape = Tape()
    loss = tape.mse(model.forward_on_tape(tape, windows, training=True), Tensor(targets))
    for p in model.parameters():
        p.zero_grad()
    tape.backward(tape.sum(loss))
    return pred, {name: p.grad.copy() for name, p in model.params.items()}


def test_channel_independence():
    # perturbing channel j's windows, parameters and running statistics must
    # leave every other channel's forecast and gradients bitwise unchanged
    k = 3
    rng = np.random.default_rng(17)
    windows = rng.normal(size=(4, 8, k))
    targets = rng.normal(size=(k, 4, 1))
    for j in range(k):
        base = PatchForecaster(TINY, [np.random.default_rng(18 + m) for m in range(k)])
        moved = PatchForecaster(TINY, [np.random.default_rng(18 + m) for m in range(k)])
        moved_windows = windows.copy()
        moved_windows[:, :, j] = moved_windows[:, :, j] * 5.0 + 100.0
        for p in moved.parameters():
            p.values[j] += rng.normal(size=p.values[j].shape)
        for state in moved.bn_states.values():
            state.running_mean[j] += 1.0
            state.running_var[j] *= 3.0
        pred, grads = _forward_and_gradients(base, windows, targets)
        moved_pred, moved_grads = _forward_and_gradients(moved, moved_windows, targets)
        others = [i for i in range(k) if i != j]
        assert not np.array_equal(pred[j], moved_pred[j])
        assert np.array_equal(pred[others], moved_pred[others]), j
        for name in grads:
            assert np.array_equal(grads[name][others], moved_grads[name][others]), (j, name)


# -- full-model gradient integrity ------------------------------------------------


def test_full_model_gradient_against_finite_differences():
    # float64: finite differences cannot resolve float32 rounding
    model = PatchForecaster(TINY, [np.random.default_rng(19), np.random.default_rng(119)],
                            dtype=np.float64)
    rng = np.random.default_rng(20)
    windows = rng.normal(size=(3, 8, 2))
    targets = rng.normal(size=(2, 3, 1))

    def value():
        tape = Tape()
        pred = model.forward_on_tape(tape, windows, training=True)
        return float(tape.sum(tape.mse(pred, Tensor(targets))).values)

    tape = Tape()
    loss = tape.sum(tape.mse(model.forward_on_tape(tape, windows, training=True),
                             Tensor(targets)))
    for p in model.parameters():
        p.zero_grad()
    tape.backward(loss)
    for name, p in model.params.items():
        numeric = numeric_gradient(value, p.values)
        assert rel_err(p.grad, numeric) < 1e-3, name


# -- training ---------------------------------------------------------------------


def test_train_epoch_zero_learning_rate_freezes_parameters():
    model = PatchForecaster(TINY, [np.random.default_rng(21)])
    before = {k: v.values.copy() for k, v in model.params.items()}
    opt = Adam(model.parameters(), lr=0.0)
    rng = np.random.default_rng(22)
    inputs = rng.normal(size=(6, 8))
    targets = rng.normal(size=(6, 1))
    first = train_epoch(model, inputs[:, :, None], targets[:, :, None], opt, 4,
                        np.random.default_rng(0))
    second = train_epoch(model, inputs[:, :, None], targets[:, :, None], opt, 4,
                         np.random.default_rng(0))
    for k, v in model.params.items():
        assert np.array_equal(before[k], v.values)
    assert first == second


def test_train_epoch_memorizes_constant_pair():
    model = PatchForecaster(TINY, [np.random.default_rng(23)])
    opt = Adam(model.parameters(), lr=0.005)
    inputs = np.linspace(0.0, 1.0, 8)[None, :]
    targets = np.array([[0.7]])
    loss = np.inf
    for _ in range(200):
        loss = train_epoch(model, inputs[:, :, None], targets[:, :, None], opt, 32,
                           np.random.default_rng(1))
    assert loss < 1e-4


def test_training_curve_decreases_on_sinusoid():
    cfg = ForecasterConfig(
        lookback=16, horizon=1, patch_len=4, stride=2, d_model=8, n_heads=2,
        n_layers=1, d_ff=16,
    )
    model = PatchForecaster(cfg, [np.random.default_rng(24)])
    t = np.arange(200)
    series = np.sin(2 * np.pi * 0.05 * t)
    windows = np.stack([series[i: i + 16] for i in range(180)])
    targets = series[16:196][:, None]
    opt = Adam(model.parameters(), lr=0.002)
    shuffle = np.random.default_rng(2)
    losses = [
        train_epoch(model, windows[:, :, None], targets[:, :, None], opt, 32, shuffle)
        for _ in range(50)
    ]
    assert losses[-1] < losses[0]


def test_train_epoch_aborts_on_nan():
    model = PatchForecaster(TINY, [np.random.default_rng(25)])
    opt = Adam(model.parameters(), lr=0.001)
    inputs = np.random.default_rng(26).normal(size=(4, 8))
    targets = np.full((4, 1), np.nan)
    with pytest.raises(FloatingPointError, match="non-finite"):
        train_epoch(model, inputs[:, :, None], targets[:, :, None], opt, 4,
                    np.random.default_rng(3))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_training_steps_reuse_freed_memory_without_page_faults():
    # the bundled model shape: each step's tape frees tens of MB, which the
    # next step must find in the heap rather than fault back in
    resource = pytest.importorskip("resource")
    cfg = ForecasterConfig(lookback=96, horizon=1, patch_len=16, stride=8, d_model=64,
                           n_heads=4, n_layers=2, d_ff=128)
    k, n, batch = 3, 384, 32
    rng = np.random.default_rng(27)
    inputs = rng.normal(size=(n, cfg.lookback, k))
    targets = rng.normal(size=(n, cfg.horizon, k))
    model = PatchForecaster(cfg, [np.random.default_rng(28 + m) for m in range(k)])
    opt = Adam(model.parameters(), lr=0.001)
    shuffle = np.random.default_rng(4)
    train_epoch(model, inputs, targets, opt, batch, shuffle)  # warm-up: the heap grows
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_epoch(model, inputs, targets, opt, batch, shuffle)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / (n // batch) < 64


class _LibcWithoutMallopt:
    """A C library that has no ``mallopt``, as on musl or macOS."""


def _cdll_raising(exc):
    def cdll(name):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [
    lambda name: _LibcWithoutMallopt(),
    _cdll_raising(TypeError("no default library")),   # CDLL(None) on Windows
    _cdll_raising(OSError("cannot load the C library")),
], ids=["no-mallopt", "no-default-library", "load-error"])
def test_training_without_mallopt_still_trains(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert forecaster._retain_freed_memory.__wrapped__() is None
    forecaster._retain_freed_memory.cache_clear()
    try:
        model = PatchForecaster(TINY, [np.random.default_rng(29)])
        opt = Adam(model.parameters(), lr=0.001)
        inputs = np.random.default_rng(30).normal(size=(6, 8, 1))
        loss = train_epoch(model, inputs, inputs[:, -1:], opt, 4, np.random.default_rng(5))
        assert math.isfinite(loss)
    finally:
        forecaster._retain_freed_memory.cache_clear()


def test_stacked_training_equals_separate_channel_models():
    # K=3 trained as one stacked model must equal three one-channel models
    # trained alone on identically seeded shuffles, bit for bit
    k = 3
    rng = np.random.default_rng(30)
    inputs = rng.normal(size=(20, 8, k))
    targets = rng.normal(size=(20, 1, k))
    stacked = PatchForecaster(TINY, [np.random.default_rng(31 + m) for m in range(k)])
    opt = Adam(stacked.parameters(), lr=0.01)
    shuffle = np.random.default_rng(5)
    for _epoch in range(2):
        train_epoch(stacked, inputs, targets, opt, 8, shuffle)
    windows = rng.normal(size=(6, 8, k))
    pred = stacked.predict(windows)
    arrays = stacked.param_arrays()
    for m in range(k):
        alone = PatchForecaster(TINY, [np.random.default_rng(31 + m)])
        opt = Adam(alone.parameters(), lr=0.01)
        shuffle = np.random.default_rng(5)
        for _epoch in range(2):
            train_epoch(alone, inputs[:, :, m:m + 1], targets[:, :, m:m + 1], opt, 8, shuffle)
        assert np.array_equal(alone.predict(windows[:, :, m:m + 1])[0], pred[m])
        for name, value in alone.param_arrays().items():
            assert np.array_equal(value[0], arrays[name][m]), (m, name)


def test_training_step_broadcasts_no_matmul_batch_axis(monkeypatch):
    # activations are feature-major [K, D, B*N], so every weight is one
    # [K, D_out, D_in] @ [K, D_in, B*N] product: no matmul broadcasts a batch
    # axis (Tape.matmul rejects one), and each gradient is one plain product
    products, attentions = [], []
    matmul, attention = Tape.matmul, Tape.attention

    def recording_matmul(self, a, b, **addends):
        products.append((a.shape, b.shape))
        return matmul(self, a, b, **addends)

    def recording_attention(self, q, k, v, n_heads, n_tokens):
        attentions.append(q.shape)
        return attention(self, q, k, v, n_heads, n_tokens)

    monkeypatch.setattr(Tape, "matmul", recording_matmul)
    monkeypatch.setattr(Tape, "attention", recording_attention)
    model = PatchForecaster(TINY, [np.random.default_rng(60), np.random.default_rng(61)])
    rng = np.random.default_rng(62)
    train_epoch(model, rng.normal(size=(4, 8, 2)), rng.normal(size=(4, 1, 2)),
                Adam(model.parameters()), 4, np.random.default_rng(6))
    # patch embedding, q/k/v, w_attn_out, w_ff1, w_ff2 per layer, and the
    # head; the score and value products are inside each layer's attention op
    assert len(products) == 2 + 6 * TINY.n_layers
    assert len(attentions) == TINY.n_layers
    for a, b in products:
        assert a[:-2] == b[:-2], (a, b)


def _attention_layer_with_adds(self, tape, x, index, training):
    """``PatchForecaster._attention_layer`` before its products took their
    bias and residual: one ``Tape.add`` entry for each."""
    cfg = self.config

    def linear(name, z):
        return tape.matmul(self.params[f"layer{index}.{name}"], z)

    merged = tape.attention(linear("w_q", x), linear("w_k", x), linear("w_v", x),
                            cfg.n_heads, cfg.n_patches)
    z = tape.add(x, linear("w_attn_out", merged))              # residual
    z = self._norm(tape, z, f"layer{index}.norm1", training)
    hidden = tape.gelu(tape.add(linear("w_ff1", z), self.params[f"layer{index}.b_ff1"]))
    ff = tape.add(linear("w_ff2", hidden), self.params[f"layer{index}.b_ff2"])
    z = tape.add(z, ff)                                        # residual
    return self._norm(tape, z, f"layer{index}.norm2", training)


def test_encoder_products_take_their_bias_and_residual(monkeypatch):
    # one training step of a 2-layer model records 4 entries per layer fewer
    # than the add chain, with the same loss, gradients and running statistics
    cfg = ForecasterConfig(lookback=16, horizon=2, patch_len=4, stride=2, d_model=8,
                           n_heads=2, n_layers=2, d_ff=16)
    rng = np.random.default_rng(63)
    windows, targets = rng.normal(size=(5, 16, 2)), rng.normal(size=(2, 5, 2))

    def step():
        model = PatchForecaster(cfg, [np.random.default_rng(64), np.random.default_rng(65)])
        tape = Tape()
        pred = model.forward_on_tape(tape, windows, training=True)
        loss = tape.sum(tape.mse(pred, Tensor(targets)))
        tape.backward(loss)
        return tape.n_ops, loss.values, model

    n_ops, loss, model = step()
    monkeypatch.setattr(PatchForecaster, "_attention_layer", _attention_layer_with_adds)
    chain_ops, chain_loss, chain_model = step()
    assert chain_ops - n_ops == 4 * cfg.n_layers
    assert np.array_equal(loss, chain_loss)
    for name, p in model.params.items():
        assert np.array_equal(p.grad, chain_model.params[name].grad), name
    chain_arrays = chain_model.param_arrays()
    for name, array in model.param_arrays().items():
        assert np.array_equal(array, chain_arrays[name]), name


def test_training_step_runs_the_encoder_in_float32_behind_float64(monkeypatch):
    # one ASWL training step at the bundled shape (K=3, d_model 64, 2 layers):
    # a float64 operand anywhere in the encoder, a numpy float64 scalar
    # constant included, would promote every op after it to float64
    cfg = ForecasterConfig(lookback=96, horizon=1, patch_len=16, stride=8, d_model=64,
                           n_heads=4, n_layers=2, d_ff=128)
    model = PatchForecaster(cfg, [np.random.default_rng(70 + m) for m in range(3)])
    sw = swmod.init_from_scales(np.array([40.0, 3.0, 0.5]))
    optimizer = Adam(model.parameters() + [sw.theta])
    recorded, losses = [], []
    record, backward = Tape._record, Tape.backward

    def recording(self, inputs, out_values, backward):
        recorded.append((sys._getframe(1).f_code.co_name, out_values.dtype))
        return record(self, inputs, out_values, backward)

    def recording_backward(self, loss):
        losses.append(loss.values.dtype)
        return backward(self, loss)

    monkeypatch.setattr(Tape, "_record", recording)
    monkeypatch.setattr(Tape, "backward", recording_backward)
    rng = np.random.default_rng(71)
    train_epoch(model, rng.normal(size=(32, 96, 3)), rng.normal(size=(32, 1, 3)),
                optimizer, 32, np.random.default_rng(72), sw)
    monkeypatch.undo()

    ops = [name for name, _ in recorded]
    cast = ops.index("astype")
    assert ops.count("astype") == 1 and {"gelu", "attention", "batch_norm"} <= set(ops[:cast])
    assert all(dtype == np.float32 for _, dtype in recorded[:cast]), recorded[:cast]
    # de-normalization, mse, the ASWL weights and the loss
    assert all(dtype == np.float64 for _, dtype in recorded[cast:]), recorded[cast:]
    assert losses == [np.float64]
    assert swmod.weights(sw).dtype == np.float64
    for name, p in model.params.items():
        assert p.values.dtype == p.grad.dtype == np.float32, name
    assert sw.theta.values.dtype == sw.theta.grad.dtype == np.float64
    for p, state in zip(optimizer.params, optimizer.states):
        assert state.m.dtype == state.v.dtype == p.values.dtype
    for state in model.bn_states.values():
        assert state.running_mean.dtype == state.running_var.dtype == np.float32
    assert model.predict(rng.normal(size=(5, 96, 3))).dtype == np.float64


# -- persistence --------------------------------------------------------------------


def test_checkpoint_reload_reproduces_forecasts_bitwise(tmp_path):
    cfg = ForecasterConfig(
        lookback=16, horizon=2, patch_len=4, stride=2, d_model=8, n_heads=2,
        n_layers=2, d_ff=16,
    )
    model = PatchForecaster(cfg, [np.random.default_rng(27)])
    # train a little so running statistics are nontrivial
    rng = np.random.default_rng(28)
    opt = Adam(model.parameters(), lr=0.002)
    train_epoch(model, rng.normal(size=(20, 16, 1)), rng.normal(size=(20, 2, 1)), opt, 8,
                np.random.default_rng(4))
    windows = rng.normal(size=(5, 16, 1))
    want = model.predict(windows)

    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model.param_arrays(), meta={"model": cfg.to_dict()})
    arrays, meta = load_checkpoint(path)
    clone = PatchForecaster(ForecasterConfig(**meta["model"]),
                            [np.random.default_rng(999)])
    clone.load_param_arrays(arrays)
    assert np.array_equal(clone.predict(windows), want)


def test_load_after_the_optimizer_is_built_keeps_training_the_loaded_values():
    # the optimizer holds views of the parameters, so a load writes into them
    # and training after it equals training a model loaded before its optimizer
    rng = np.random.default_rng(34)
    inputs, targets = rng.normal(size=(12, 8, 2)), rng.normal(size=(12, 1, 2))
    arrays = PatchForecaster(TINY, [np.random.default_rng(35 + m) for m in range(2)]
                             ).param_arrays()
    trained = []
    for load_first in (True, False):
        model = PatchForecaster(TINY, [np.random.default_rng(37 + m) for m in range(2)])
        if load_first:
            model.load_param_arrays(arrays)
        opt = Adam(model.parameters(), lr=0.01)
        if not load_first:
            model.load_param_arrays(arrays)
        train_epoch(model, inputs, targets, opt, 4, np.random.default_rng(7))
        trained.append(model.param_arrays())
    for name, loaded in arrays.items():
        assert np.array_equal(trained[0][name], trained[1][name]), name
    assert not np.array_equal(trained[1]["w_head"], arrays["w_head"])
    assert not np.array_equal(trained[1]["layer0.w_ff1"], arrays["layer0.w_ff1"])


def test_channel_slices_that_swap_their_losses_train_as_the_whole_model():
    # channels share no parameters and ASWL ties them only through the [K]
    # losses, so two channel slices that swap their losses every step (two
    # threads here, two processes in the pipeline) train as one model does
    k, split = 3, 2
    rng = np.random.default_rng(40)
    inputs, targets = rng.normal(size=(20, 8, k)), rng.normal(size=(20, 1, k))
    theta = swmod.init_from_scales(np.array([4.0, 1.0, 0.3])).theta.values

    def train(model, channels, rejoin=None):
        sw = swmod.ScaleWeights(Tensor(theta.copy(), requires_grad=True))
        opt = Adam(model.parameters() + [sw.theta], lr=0.01)
        shuffle = np.random.default_rng(5)
        losses = [train_epoch(model, inputs[..., channels], targets[..., channels], opt, 8,
                              shuffle, sw, rejoin) for _ in range(2)]
        return losses, sw.theta.values

    whole = PatchForecaster(TINY, [np.random.default_rng(41 + m) for m in range(k)])
    parts = [whole.channel_slice(slice(0, split)), whole.channel_slice(slice(split, k))]
    initial = whole.param_arrays()
    want = train(whole, slice(None))
    boxes = [queue.Queue(), queue.Queue()]

    def rejoin_for(first: bool):
        def rejoin(tape, own):
            boxes[not first].put(own.values.copy())
            theirs = Tensor(boxes[first].get(timeout=60))
            return tape.concat([own, theirs] if first else [theirs, own])
        return rejoin

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        got = [pool.submit(train, part, channels, rejoin_for(first))
               for part, channels, first in ((parts[0], slice(0, split), True),
                                             (parts[1], slice(split, k), False))]
        got = [future.result(timeout=120) for future in got]
    for losses, theta_trained in got:
        assert losses == want[0]
        assert np.array_equal(theta_trained, want[1])
    rejoined = PatchForecaster(TINY, [np.random.default_rng(999 + m) for m in range(k)])
    rejoined.load_param_arrays(parts[0].param_arrays(), slice(0, split))
    rejoined.load_param_arrays(parts[1].param_arrays(), slice(split, k))
    for name, array in whole.param_arrays().items():
        assert np.array_equal(rejoined.param_arrays()[name], array), name
    assert not np.array_equal(whole.params["w_head"].values, initial["w_head"])


def test_float64_checkpoint_loads_rounded_to_float32(tmp_path):
    # a model.npz written by a float64 model: its arrays load rounded, so an
    # untrained float64 model's checkpoint gives the float32 model drawn from
    # the same generators
    old = PatchForecaster(TINY, [np.random.default_rng(31)], dtype=np.float64)
    path = tmp_path / "model.npz"
    save_checkpoint(path, old.param_arrays())
    arrays, _meta = load_checkpoint(path)
    assert all(a.dtype == np.float64 for a in arrays.values())

    model = PatchForecaster(TINY, [np.random.default_rng(999)])
    model.load_param_arrays(arrays)
    fresh = PatchForecaster(TINY, [np.random.default_rng(31)])
    loaded, want = model.param_arrays(), fresh.param_arrays()
    for name, array in loaded.items():
        assert array.dtype == np.float32, name
        assert np.array_equal(array, arrays[name].astype(np.float32)), name
        assert np.array_equal(array, want[name]), name
    windows = np.random.default_rng(32).normal(size=(4, 8, 1))
    assert np.array_equal(model.predict(windows), fresh.predict(windows))

    # and the float32 model's own checkpoint stays float32
    save_checkpoint(tmp_path / "again.npz", model.param_arrays())
    assert all(a.dtype == np.float32 for a in load_checkpoint(tmp_path / "again.npz")[0].values())


def test_load_rejects_mismatched_keys(tmp_path):
    model = PatchForecaster(TINY, [np.random.default_rng(29)])
    arrays = model.param_arrays()
    arrays.pop("w_head")
    with pytest.raises(ValueError, match="w_head"):
        model.load_param_arrays(arrays)


@pytest.mark.parametrize("k", [1, 2])
def test_load_rejects_misshapen_running_statistics(k):
    # at K=1 a [D] running mean would broadcast silently; at K>1 it would fail
    # later, inside a forward pass
    model = PatchForecaster(TINY, [np.random.default_rng(33 + m) for m in range(k)])
    for key in ("layer0.norm1.running_mean", "layer0.norm2.running_var"):
        arrays = model.param_arrays()
        arrays[key] = arrays[key][0]
        with pytest.raises(CheckpointMismatchError, match=key):
            model.load_param_arrays(arrays)
