"""Adaptive loss weights: parameterization, initialization, weighted loss."""

import numpy as np
import pytest
from conftest import numeric_gradient, rel_err
from hypothesis import given
from hypothesis import strategies as st

from modecast import scale_weights as sw
from modecast.autodiff import Adam, Tape, Tensor


def test_equal_ranges_give_unit_weights():
    weights = sw.weights(sw.init_from_scales(np.array([1.0, 1.0, 1.0, 1.0])))
    assert np.array_equal(weights, np.ones(4))


def test_range_ratio_nine_to_one():
    weights = sw.weights(sw.init_from_scales(np.array([9.0, 1.0])))
    # softmax of log-ranges: 2 * 9/10 and 2 * 1/10
    assert np.allclose(weights, [1.8, 0.2], atol=1e-9)


def test_single_channel_is_always_one():
    assert np.array_equal(sw.weights(sw.init_from_scales(np.array([42.0]))), [1.0])


def test_init_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sw.init_from_scales(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        sw.init_from_scales(np.array([1.0, -2.0]))


def test_init_ordering_follows_ranges():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ranges = rng.uniform(0.01, 100.0, size=6)
        weights = sw.weights(sw.init_from_scales(ranges))
        order_r = np.argsort(ranges)
        order_w = np.argsort(weights)
        assert np.array_equal(order_r, order_w)


def test_uniform_theta_gives_exact_ones():
    for m in (1, 2, 3, 5, 7, 12, 49):
        weights = sw.weights(sw.uniform(m))
        assert np.array_equal(weights, np.ones(m))


def test_theta_shift_invariance():
    a = sw.ScaleWeights(theta=Tensor(np.array([1.3, 1.3]), requires_grad=True))
    assert np.allclose(sw.weights(a), [1.0, 1.0], atol=1e-15)


def test_large_theta_gap_saturates_but_stays_positive():
    s = sw.ScaleWeights(theta=Tensor(np.array([50.0, 0.0, 0.0]), requires_grad=True))
    weights = sw.weights(s)
    assert weights[0] == pytest.approx(3.0, abs=1e-9)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(3.0, abs=1e-9)


def test_weighted_loss_uniform_equals_plain_sum():
    tape = Tape()
    losses = Tensor(np.array([0.1, 0.3]))
    total = sw.weighted_loss(tape, losses, sw.uniform(2))
    assert float(total.values) == pytest.approx(0.4, abs=1e-15)


def test_weighted_loss_dot_product():
    s = sw.init_from_scales(np.array([9.0, 1.0]))
    tape = Tape()
    losses = Tensor(np.array([1.0, 0.0]))
    total = sw.weighted_loss(tape, losses, s)
    assert float(total.values) == pytest.approx(1.8, abs=1e-9)


def test_weighted_loss_channel_count_mismatch():
    with pytest.raises(ValueError, match="channels"):
        sw.weighted_loss(Tape(), Tensor(np.array([1.0])), sw.uniform(2))


def test_weighted_loss_gradient_wrt_theta_finite_differences():
    rng = np.random.default_rng(1)
    for seed in range(5):
        ranges = np.random.default_rng(seed).uniform(0.5, 20.0, size=4)
        s = sw.init_from_scales(ranges)
        loss_values = rng.uniform(0.0, 2.0, size=4)

        def value():
            tape = Tape()
            return float(sw.weighted_loss(tape, Tensor(loss_values), s).values)

        tape = Tape()
        losses = Tensor(loss_values)
        total = sw.weighted_loss(tape, losses, s)
        s.theta.zero_grad()
        tape.backward(total)
        numeric = numeric_gradient(value, s.theta.values)
        assert rel_err(s.theta.grad, numeric) < 1e-5


def test_mass_stays_fixed_under_optimization():
    # drive theta hard for many steps; sum(w) must hold at M to 1e-9 throughout
    rng = np.random.default_rng(2)
    s = sw.init_from_scales(np.array([5.0, 1.0, 0.2]))
    opt = Adam([s.theta], lr=0.05)
    for _ in range(300):
        tape = Tape()
        losses = Tensor(rng.uniform(0.0, 1.0, size=3))
        total = sw.weighted_loss(tape, losses, s)
        opt.zero_grad()
        tape.backward(total)
        opt.step()
        weights = sw.weights(s)
        assert abs(weights.sum() - 3.0) < 1e-9
        assert np.all(weights > 0)


@given(st.integers(2, 8), st.data(), st.booleans(), st.booleans())
def test_losses_rejoined_by_concat_weigh_as_the_unsplit_losses(k, data, aswl, own_first):
    # two processes that train a model's channels between them each join
    # their own [K] losses (on the tape) with the peer's (a constant): the
    # loss, their gradients and theta's must be the unsplit tape's, bit for bit
    split = data.draw(st.integers(1, k - 1), label="split")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=k)
    theta = rng.normal(size=k)
    own = slice(0, split) if own_first else slice(split, k)
    peer = slice(split, k) if own_first else slice(0, split)

    def run(rejoined: bool):
        s = sw.ScaleWeights(Tensor(theta.copy(), requires_grad=True)) if aswl else None
        tape = Tape()
        leaf = Tensor((x[own] if rejoined else x).copy(), requires_grad=True)
        per_channel = tape.mul(leaf, leaf)
        if rejoined:
            theirs = Tensor(x[peer] * x[peer])
            per_channel = tape.concat([per_channel, theirs] if own_first
                                      else [theirs, per_channel])
        total = sw.weighted_loss(tape, per_channel, s)
        tape.backward(total)
        return total.values, leaf.grad, None if s is None else s.theta.grad

    total, grad, theta_grad = run(False)
    total_r, grad_r, theta_grad_r = run(True)
    assert total_r.tobytes() == total.tobytes()
    assert grad_r.tobytes() == grad[own].tobytes()
    if aswl:
        assert theta_grad_r.tobytes() == theta_grad.tobytes()
