"""Composite pipeline: per-period flow, backtest aggregation, artifact oracles."""

import concurrent.futures
import csv
import json
import logging
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import forecast_csv_columns

from modecast import pipeline
from modecast.autodiff import load_checkpoint
from modecast.config import ExperimentConfig
from modecast.metrics import mse, smape
from modecast.pipeline import (
    FailedCell,
    forecast_from_dir,
    run_backtest,
    run_period,
    train_period_to_dir,
    write_backtest_artifacts,
    write_forecast_csv,
)
from modecast.synthetic import trend_two_tone, write_series_csv
from modecast.vmd import decompose, write_decomposition_csv


def small_config(**extra) -> ExperimentConfig:
    raw = {
        "data": {"generator": {"name": "trend_two_tone", "n": 600, "seed": 3,
                               "noise_std": 0.2}},
        "vmd": {"n_modes": 2},
        "model": {"lookback": 32, "patch_len": 8, "stride": 4, "d_model": 8,
                  "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "split": {"n_periods": 1, "train_fraction": 0.8},
        "training": {"epochs": 2, "seeds": [3]},
    }
    for key, value in extra.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


# -- run_period ---------------------------------------------------------------


def test_run_period_report_shape():
    cfg = small_config()
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cell = run_period(values, 480, cfg, seed=3)
    assert cell.ok
    assert len(cell.per_channel) == cfg.vmd.n_modes
    assert cell.predicted.shape == cell.actual.shape == (120,)
    assert cell.channel_predicted.shape == (2, 120)
    assert set(cell.baselines) == {"naive", "linear_ar"}
    assert cell.decomposition_label == "full_period"
    assert np.isfinite(cell.overall.mse) and np.isfinite(cell.overall.smape)
    assert cell.aswl_weights_initial is not None
    assert abs(sum(cell.aswl_weights_initial) - 2.0) < 1e-9


def test_run_period_learnable_signal_beats_naive():
    raw = {
        "data": {"generator": {"name": "trend_two_tone", "n": 900, "seed": 5,
                               "noise_std": 0.15}},
        "vmd": {"n_modes": 3},
        "model": {"lookback": 48, "patch_len": 8, "stride": 4, "d_model": 16,
                  "n_heads": 2, "n_layers": 1, "d_ff": 32},
        "split": {"n_periods": 1, "train_fraction": 0.8},
        "training": {"epochs": 12, "seeds": [5]},
    }
    cfg = ExperimentConfig.from_dict(raw)
    values = trend_two_tone(n=900, seed=5, noise_std=0.15)
    cell = run_period(values, 720, cfg, seed=5)
    assert cell.overall.mse < cell.baselines["naive"].mse


def test_aswl_frozen_uniform_is_bitwise_identical_to_off():
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cfg_off = small_config(aswl={"enabled": False})
    cfg_frozen = small_config(aswl={"enabled": True, "train_theta": False,
                                    "init": "uniform"})
    cell_off = run_period(values, 480, cfg_off, seed=3)
    cell_frozen = run_period(values, 480, cfg_frozen, seed=3)
    assert np.array_equal(cell_off.predicted, cell_frozen.predicted)
    assert cell_off.overall.mse == cell_frozen.overall.mse
    assert cell_frozen.aswl_weights_final == [1.0, 1.0]


def test_aswl_weight_mass_fixed_through_training():
    cfg = small_config(training={"epochs": 3, "seeds": [3]})
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cell = run_period(values, 480, cfg, seed=3)
    assert abs(sum(cell.aswl_weights_final) - cfg.vmd.n_modes) < 1e-9


def test_aggregation_identity_and_composite_sum():
    cfg = small_config()
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cell = run_period(values, 480, cfg, seed=3)
    # per-channel actuals sum to the decomposition's reconstruction of the
    # test segment; aggregation itself introduces no extra error
    reconstruction = cell.vmd.modes.sum(axis=0)[480:]
    assert np.max(np.abs(cell.channel_actual.sum(axis=0) - reconstruction)) < 1e-9
    assert np.max(np.abs(cell.channel_predicted.sum(axis=0) - cell.predicted)) < 1e-12


def test_run_period_strict_causal_labels_and_omits_channel_metrics():
    cfg = small_config(backtest={"strict_causal": True},
                       model={"lookback": 32, "patch_len": 8, "stride": 4,
                              "d_model": 8, "n_heads": 2, "n_layers": 1,
                              "d_ff": 16, "horizon": 8})
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cell = run_period(values, 480, cfg, seed=3)
    assert cell.decomposition_label == "strict_causal"
    assert cell.per_channel is None
    assert cell.channel_actual is None
    assert cell.predicted.shape == (120,)
    assert np.isfinite(cell.overall.mse)


def test_unconverged_strict_causal_prefixes_log_one_warning_per_cell(caplog):
    cfg = small_config(backtest={"strict_causal": True},
                       vmd={"n_modes": 2, "max_iter": 2},
                       model={"lookback": 32, "patch_len": 8, "stride": 4,
                              "d_model": 8, "n_heads": 2, "n_layers": 1,
                              "d_ff": 16, "horizon": 8},
                       training={"epochs": 1, "seeds": [3]})
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    with caplog.at_level(logging.WARNING, logger="modecast"):
        run_period(values, 480, cfg, seed=3, period_index=1)
    assert [r.getMessage() for r in caplog.records] == [
        "period 1 seed 3: decomposition stopped unconverged at vmd.max_iter (2 iterations)",
        "period 1 seed 3: 14 of 14 strict-causal prefix decompositions stopped "
        "unconverged at vmd.max_iter",
    ]


def test_forecast_from_dir_warns_of_unconverged_strict_causal_prefixes(caplog, tmp_path):
    cfg = small_config(backtest={"strict_causal": True},
                       vmd={"n_modes": 2, "max_iter": 2},
                       model={"lookback": 32, "patch_len": 8, "stride": 4,
                              "d_model": 8, "n_heads": 2, "n_layers": 1,
                              "d_ff": 16, "horizon": 8},
                       training={"epochs": 1, "seeds": [3]})
    train_period_to_dir(cfg, 0, 3, tmp_path)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="modecast"):
        forecast_from_dir(tmp_path)
    assert [r.getMessage() for r in caplog.records] == [
        "period 0 seed 3: 14 of 14 strict-causal prefix decompositions stopped "
        "unconverged at vmd.max_iter",
    ]


def test_load_series_warns_once_of_dropped_rows(caplog, tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2020-01-01,1.0\n2020-01-02,oops\n2020-01-03,nan\n"
                    "2020-01-04,4.0\n2020-01-05,5.0\n")
    with caplog.at_level(logging.WARNING, logger="modecast"):
        values = pipeline.load_series(small_config(data={"path": str(path), "generator": None}))
    assert np.array_equal(values, [1.0, 4.0, 5.0])
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: dropped 2 row(s) with an unparseable or non-finite 'close' value",
    ]
    caplog.clear()
    # a clean file logs nothing
    path.write_text("date,close\n2020-01-01,1.0\n2020-01-02,2.0\n")
    with caplog.at_level(logging.WARNING, logger="modecast"):
        pipeline.load_series(small_config(data={"path": str(path), "generator": None}))
    assert caplog.records == []


def test_unconverged_or_duplicate_centre_decomposition_logs_once_per_cell(caplog, tmp_path):
    # K=10 from zero-initialised centres on two tones: after two iterations the
    # decomposition has not converged and two centres sit within 1/(2*600)
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cfg = small_config(vmd={"n_modes": 10, "omega_init": "zero", "max_iter": 2},
                       training={"epochs": 1, "seeds": [3]})
    with caplog.at_level(logging.WARNING, logger="modecast"):
        run_period(values, 480, cfg, seed=3, period_index=2)
    assert [r.getMessage() for r in caplog.records] == [
        "period 2 seed 3: decomposition stopped unconverged at vmd.max_iter (2 iterations)",
        "period 2 seed 3: decomposition centres 0.049889 and 0.0498939 are closer than "
        "one grid step (0.000833); vmd.n_modes may be too large",
    ]
    caplog.clear()
    # a converged decomposition with well-separated centres logs nothing, and
    # the warnings stay out of the deterministic artifacts
    with caplog.at_level(logging.WARNING, logger="modecast"):
        run_period(values, 480, small_config(training={"epochs": 1, "seeds": [3]}), seed=3)
    assert caplog.records == []
    run_backtest(cfg, tmp_path)
    for name in ("report.json", "report.txt", "manifest.json"):
        text = (tmp_path / name).read_text()
        assert "grid step" not in text and "unconverged" not in text


def test_each_cell_logs_every_warning_it_raises(caplog, tmp_path):
    # a constant series: every mode but one is flat, so the min-max fit, both
    # scalings and linear AR's design matrix are degenerate in each cell; the
    # second cell repeats the first's warnings from the same call sites
    path = tmp_path / "flat.csv"
    write_series_csv(path, np.full(600, 5.0))
    cfg = small_config(data={"path": str(path), "generator": None},
                       split={"n_periods": 2}, training={"epochs": 1, "seeds": [3]})
    with caplog.at_level(logging.WARNING, logger="modecast"):
        report = run_backtest(cfg)
    assert all(cell.ok for cell in report.cells)
    assert [r.getMessage() for r in caplog.records] == [
        f"period {period} seed 3: {message}"
        for period in (0, 1)
        for message in (
            "constant array: min-max normalization is degenerate",
            "degenerate normalization: mapping all values to 0",
            "degenerate normalization: mapping all values to 0",
            "degenerate autoregression design matrix; falling back to persistence",
        )
    ]
    assert {r.name for r in caplog.records} == {"modecast.pipeline"}


def test_forecast_from_dir_logs_its_warnings_on_every_call(caplog, tmp_path):
    path = tmp_path / "flat.csv"
    write_series_csv(path, np.full(600, 5.0))
    cfg = small_config(data={"path": str(path), "generator": None},
                       training={"epochs": 1, "seeds": [3]})
    train_period_to_dir(cfg, 0, 3, tmp_path / "run")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="modecast"):
        for _ in range(2):
            forecast_from_dir(tmp_path / "run")
    assert [r.getMessage() for r in caplog.records] == [
        "period 0 seed 3: degenerate normalization: mapping all values to 0",
    ] * 2


def test_multi_step_horizon_blocks():
    cfg = small_config(model={"lookback": 32, "patch_len": 8, "stride": 4,
                              "d_model": 8, "n_heads": 2, "n_layers": 1,
                              "d_ff": 16, "horizon": 7})
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cell = run_period(values, 480, cfg, seed=3)  # 120 = 17*7 + 1: ragged tail
    assert cell.predicted.shape == (120,)
    assert np.all(np.isfinite(cell.predicted))


# -- backtest -----------------------------------------------------------------


def backtest_config(**overrides):
    raw = {
        "data": {"generator": {"name": "trend_two_tone", "n": 700, "seed": 4,
                               "noise_std": 0.2}},
        "vmd": {"n_modes": 2},
        "model": {"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
                  "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "split": {"n_periods": 2, "train_fraction": 0.8},
        "training": {"epochs": 2, "seeds": [0, 1]},
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_backtest_runs_all_cells_and_aggregates(tmp_path):
    report = run_backtest(backtest_config(), tmp_path)
    assert len(report.cells) == 4  # 2 periods x 2 seeds
    assert all(c.ok for c in report.cells)
    mean0 = report.period_mean(0)
    cells0 = [c for c in report.succeeded if c.period_index == 0]
    assert mean0.mse == pytest.approx(np.mean([c.overall.mse for c in cells0]))
    overall = report.overall_mean()
    assert overall.mse == pytest.approx(np.mean([c.overall.mse for c in report.succeeded]))


def test_backtest_rerun_is_byte_identical(tmp_path):
    cfg = backtest_config()
    run_backtest(cfg, tmp_path / "a")
    run_backtest(cfg, tmp_path / "b")
    for name in ("report.txt", "report.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    fc_a = (tmp_path / "a" / "period0" / "seed0" / "forecast.csv").read_bytes()
    fc_b = (tmp_path / "b" / "period0" / "seed0" / "forecast.csv").read_bytes()
    assert fc_a == fc_b


def test_backtest_emitted_csv_metric_oracle(tmp_path):
    def check(scores, path):
        # brute-force recomputation from the emitted artifact
        actual, predicted = forecast_csv_columns(path)
        want_mse = sum((a - p) ** 2 for a, p in zip(actual, predicted)) / len(actual)
        terms = [
            abs(a - p) / (abs(a) + abs(p)) if (abs(a) + abs(p)) > 0 else 0.0
            for a, p in zip(actual, predicted)
        ]
        want_smape = 2.0 * sum(terms) / len(terms)
        assert abs(scores["mse"] - want_mse) < 1e-9 * max(1.0, want_mse)
        assert abs(scores["smape"] - want_smape) < 1e-9

    strict = backtest_config(
        backtest={"strict_causal": True},
        model={"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
               "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": 8},
        split={"n_periods": 1, "train_fraction": 0.8},
        training={"epochs": 1, "seeds": [0]},
    )
    for name, cfg in (("full", backtest_config()), ("strict", strict)):
        run_backtest(cfg, tmp_path / name)
        payload = json.loads((tmp_path / name / "report.json").read_text())
        assert payload["n_failed"] == 0
        for cell_info in payload["cells"]:
            period, seed = cell_info["period"], cell_info["seed"]
            cell_dir = tmp_path / name / f"period{period}" / f"seed{seed}"
            check(cell_info, cell_dir / "forecast.csv")
            # each mode's scores against the columns of its own CSV; a
            # strict-causal cell has no single set of test modes to score
            if cfg.backtest.strict_causal:
                assert cell_info["per_channel"] is None
                assert not list(cell_dir.glob("imf*"))
                continue
            assert len(cell_info["per_channel"]) == cfg.vmd.n_modes
            for m, scores in enumerate(cell_info["per_channel"]):
                check(scores, cell_dir / f"imf{m}_forecast.csv")


def test_backtest_per_channel_rows_match_mode_count(tmp_path):
    report = run_backtest(backtest_config(), tmp_path)
    for cell in report.succeeded:
        assert len(cell.per_channel) == 2
        for m in range(2):
            path = tmp_path / f"period{cell.period_index}" / f"seed{cell.seed}" / f"imf{m}_forecast.csv"
            assert path.exists()


def test_backtest_records_failures_and_continues():
    cfg = backtest_config(
        model={"lookback": 300, "patch_len": 6, "stride": 3, "d_model": 8,
               "n_heads": 2, "n_layers": 1, "d_ff": 16},
    )
    report = run_backtest(cfg)
    assert len(report.cells) == 4
    assert all(isinstance(c, FailedCell) for c in report.cells)
    assert all(c.stage == "window" for c in report.cells)
    assert report.overall_mean() is None


def test_backtest_worker_pool_matches_sequential(tmp_path, monkeypatch):
    # the pool starts whatever this process's thread count
    monkeypatch.setattr(pipeline, "_forks_safely", lambda: True)
    cfg_seq = backtest_config(training={"epochs": 1, "seeds": [0]})
    cfg_par = backtest_config(training={"epochs": 1, "seeds": [0]},
                              backtest={"strict_causal": False, "workers": 2})
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    seq = run_backtest(cfg_seq, seq_dir)
    par = run_backtest(cfg_par, par_dir)
    assert [c.period_index for c in par.cells] == [c.period_index for c in seq.cells]
    for a, b in zip(seq.cells, par.cells):
        assert np.array_equal(a.predicted, b.predicted)
    # the cells the pool sends back write the same files: every CSV, and the
    # report once the worker count is dropped from its config
    csvs = sorted(p.relative_to(seq_dir) for p in seq_dir.rglob("*.csv"))
    assert csvs == sorted(p.relative_to(par_dir) for p in par_dir.rglob("*.csv"))
    assert len(csvs) == 2 * (1 + 1 + cfg_seq.vmd.n_modes)   # decomposition, forecast, imf*
    for rel in csvs:
        assert (seq_dir / rel).read_bytes() == (par_dir / rel).read_bytes(), rel
    docs = [json.loads((run / "report.json").read_text()) for run in (seq_dir, par_dir)]
    for doc in docs:
        del doc["config"]["backtest"]["workers"]
    assert docs[0] == docs[1]


def test_backtest_workers_run_in_process_where_forking_is_unsafe(tmp_path, monkeypatch,
                                                                 caplog):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(pipeline, "_forks_safely", lambda: False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    one, two = tmp_path / "one", tmp_path / "two"
    run_backtest(backtest_config(training={"epochs": 1, "seeds": [0]}), one)
    with caplog.at_level(logging.WARNING, logger="modecast"):
        run_backtest(backtest_config(training={"epochs": 1, "seeds": [0]},
                                     backtest={"workers": 2}), two)
    assert [r.getMessage() for r in caplog.records] == [
        "backtest.workers=2: running the cells one at a time, since this process runs "
        "several threads (or is not on Linux) and a worker forked from it could deadlock; "
        "OPENBLAS_NUM_THREADS=1 allows parallel cells",
    ]
    csvs = sorted(p.relative_to(one) for p in one.rglob("*.csv"))
    assert csvs == sorted(p.relative_to(two) for p in two.rglob("*.csv"))
    assert len(csvs) == 2 * (1 + 1 + 2)   # decomposition, forecast, imf*
    for rel in csvs:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
    docs = [json.loads((run / "report.json").read_text()) for run in (one, two)]
    assert docs[1]["config"]["backtest"].pop("workers") == 2
    del docs[0]["config"]["backtest"]["workers"]
    assert docs[0] == docs[1]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # the process pool is imported only by a run with workers > 1, and the
    # forked-child helper imports multiprocessing only when a cell forks
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, modecast.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return Path(path).read_bytes()


def test_csv_writers_match_csv_writer_bytes(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-310,
               1e308, -1.7976931348623157e308, 0.1, -123.456, 1.0]
    values = np.array(special + list(np.random.default_rng(0).normal(size=8) * 1e5))
    modes = np.stack([values, values[::-1], -values])
    write_decomposition_csv(tmp_path / "modes.csv", modes)
    want = _csv_writer_bytes(
        tmp_path / "modes_ref.csv", ["t", "imf0", "imf1", "imf2"],
        [[t] + [repr(float(v)) for v in modes[:, t]] for t in range(modes.shape[1])],
    )
    assert (tmp_path / "modes.csv").read_bytes() == want
    t = np.arange(100, 100 + values.size)
    write_forecast_csv(tmp_path / "forecast.csv", t, values, values[::-1])
    want = _csv_writer_bytes(
        tmp_path / "forecast_ref.csv", ["t", "actual", "predicted"],
        [[int(ti), repr(float(a)), repr(float(p))] for ti, a, p in zip(t, values, values[::-1])],
    )
    assert (tmp_path / "forecast.csv").read_bytes() == want


def test_backtest_manifest_covers_artifacts(tmp_path):
    run_backtest(backtest_config(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "report.txt" in manifest["artifacts"]
    assert "period1/seed1/forecast.csv" in manifest["artifacts"]
    for digest in manifest["artifacts"].values():
        assert len(digest) == 64
    # wall-clock times stay out of the manifest, in timing.json
    assert "timing.json" not in manifest["artifacts"]
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert set(timing) == {"total_s", "artifacts_s", "cells", "stages"}
    # writing the CSVs and reports is timed apart from the backtest itself
    assert 0.0 < timing["artifacts_s"]
    cells = {f"period{p}_seed{s}" for p in (0, 1) for s in (0, 1)}
    assert set(timing["cells"]) == set(timing["stages"]) == cells
    names = ("decompose", "normalize", "train", "forecast", "baselines")
    for cell, stages in timing["stages"].items():
        assert set(stages) == ({f"{n}_s" for n in names} | {f"{n}_minor_faults" for n in names}
                               | {f"{n}_peak_rss_growth_kb" for n in names}
                               | {"train_child_channels", "train_wait_s"})
        assert stages["train_child_channels"] in (0, 1)
        assert 0.0 <= stages["train_wait_s"] <= stages["train_s"]
        assert all(stages[f"{n}_s"] >= 0.0 for n in names)
        assert sum(stages[f"{n}_s"] for n in names) <= timing["cells"][cell]
        counted = int if pipeline.resource is not None else type(None)
        assert all(isinstance(stages[f"{n}_minor_faults"], counted) for n in names)
        assert all(isinstance(stages[f"{n}_peak_rss_growth_kb"], counted) for n in names)


def test_strict_causal_timing_records_prefix_decompositions_only_there(tmp_path):
    cfg = backtest_config(
        backtest={"strict_causal": True},
        model={"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
               "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": 8},
        split={"n_periods": 1, "train_fraction": 0.8},
        training={"epochs": 1, "seeds": [0]},
    )
    report = run_backtest(cfg, tmp_path / "a")
    values = pipeline.load_series(cfg)
    (split,) = pipeline.config_splits(cfg, len(values))
    period = values[split.start: split.stop]
    # the first block's prefix is the train segment: its decomposition is the
    # cell's own and is not run again
    starts = range(split.train_size + cfg.model.horizon, len(period), cfg.model.horizon)
    iterations = sum(decompose(period[:s], cfg.vmd).iterations for s in starts)

    stages = json.loads((tmp_path / "a" / "timing.json").read_text())["stages"]["period0_seed0"]
    assert stages["prefix_vmd_iterations"] == iterations
    # a forked child decomposes the prefixes outside the forecast stage, which
    # only waits for what is left of them
    assert 0.0 < stages["prefix_decompose_s"]
    assert 0.0 <= stages["prefix_wait_s"] <= stages["forecast_s"]

    # without the three keys the same report writes the same deterministic files
    for cell in report.succeeded:
        for key in ("prefix_decompose_s", "prefix_vmd_iterations", "prefix_wait_s"):
            del cell.stage_timing[key]
    write_backtest_artifacts(report, tmp_path / "b")
    for name in ("report.txt", "report.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert "prefix_decompose_s" not in (tmp_path / "b" / "timing.json").read_text()


def test_strict_causal_first_block_reuses_the_training_decomposition(tmp_path, monkeypatch):
    cfg = backtest_config(
        backtest={"strict_causal": True},
        model={"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
               "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": 8},
        split={"n_periods": 1, "train_fraction": 0.8},
        training={"epochs": 1, "seeds": [0]},
    )
    calls = []
    counted = pipeline.decompose
    # the spy counts calls in this process only: no prefix child
    monkeypatch.setattr(pipeline, "_forks_safely", lambda: False)
    monkeypatch.setattr(pipeline, "decompose", lambda x, c: calls.append(len(x)) or counted(x, c))
    report = run_backtest(cfg, tmp_path / "reused")
    (cell,) = report.succeeded
    n_blocks = len(range(0, len(cell.actual), cfg.model.horizon))
    assert calls.count(cell.train_size) == 1 and len(calls) == n_blocks > 1
    # a saved run reuses its state.npz modes the same way
    train_period_to_dir(cfg, 0, 0, tmp_path / "run")
    assert np.array_equal(forecast_from_dir(tmp_path / "run")["predicted"], cell.predicted)

    # reference: the first block decomposes its prefix afresh, and its window
    # comes from that decomposition's modes
    forecast = pipeline._forecast_stage

    def fresh_first_block(values, modes, params, *args, **kwargs):
        train_size, config = args[1], args[2]
        fresh = counted(values[:train_size], config.vmd).modes
        return forecast(values, fresh, params, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_forecast_stage", fresh_first_block)
    run_backtest(cfg, tmp_path / "fresh")
    for name in ("report.json", "report.txt", "period0/decomposition.csv",
                 "period0/seed0/forecast.csv"):
        reused, fresh = tmp_path / "reused" / name, tmp_path / "fresh" / name
        assert reused.read_bytes() == fresh.read_bytes(), name


def test_stage_faults_are_null_without_resource(monkeypatch):
    monkeypatch.setattr(pipeline, "resource", None)
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    cell = run_period(values, 480, small_config(training={"epochs": 1}), seed=3)
    assert cell.stage_timing["train_minor_faults"] is None
    assert cell.stage_timing["train_peak_rss_growth_kb"] is None
    assert cell.stage_timing["train_s"] > 0.0


@pytest.mark.parametrize("platform,unit", [("linux", 1), ("darwin", 1024)])
def test_stage_peak_rss_growth_is_in_kib(monkeypatch, platform, unit):
    # ru_maxrss counts KiB, but bytes on macOS
    usages = iter([SimpleNamespace(ru_minflt=10, ru_maxrss=1000 * unit),
                   SimpleNamespace(ru_minflt=15, ru_maxrss=3048 * unit)])
    fake = SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: next(usages))
    monkeypatch.setattr(pipeline, "resource", fake)
    monkeypatch.setattr(pipeline.sys, "platform", platform)
    timing = {}
    with pipeline._stage("decompose", timing):
        pass
    assert timing["decompose_minor_faults"] == 5
    assert timing["decompose_peak_rss_growth_kb"] == 2048


def test_report_text_mentions_aswl_state(tmp_path):
    cfg = backtest_config(aswl={"enabled": False})
    run_backtest(cfg, tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert "aswl: off" in text
    assert "smape uses the symmetric denominator" in text


# -- strict-causal prefixes in a forked child ----------------------------------


def strict_backtest_config(**overrides):
    """Two periods of 350 samples (280 train), eight 8-step blocks after the
    first in each."""
    raw = {
        "backtest": {"strict_causal": True},
        "model": {"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
                  "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": 8},
        "training": {"epochs": 1, "seeds": [0]},
    }
    raw.update(overrides)
    return backtest_config(**raw)


def force_children(monkeypatch, forked: bool, cores: int = 2) -> list[int]:
    """Fork the pipeline's children where it may (``forked``: a strict-causal
    cell's prefix child, else a training child) or run everything in this
    process, whatever its thread count, on ``cores`` usable cores; returns
    the list of forked pids, which grows as the pipeline forks."""
    forks: list[int] = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(pipeline, "_forks_safely", lambda: forked)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    return forks


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="the prefix child forks on Linux")


@linux_only
def test_forked_prefixes_write_the_in_process_files(tmp_path, monkeypatch):
    cfg = strict_backtest_config()
    predictions = {}
    for forked in (True, False):
        forks = force_children(monkeypatch, forked)
        run_backtest(cfg, tmp_path / f"bt{forked}")
        train_period_to_dir(cfg, 1, 0, tmp_path / f"run{forked}")
        predictions[forked] = forecast_from_dir(tmp_path / f"run{forked}")["predicted"]
        # one child per cell: two backtest cells and the trained cell; the
        # forecast decomposes its prefixes in-process
        assert len(forks) == (3 if forked else 0)
        assert_no_children()
    assert np.array_equal(predictions[True], predictions[False])
    names = sorted(p.relative_to(tmp_path / "btTrue") for p in (tmp_path / "btTrue").rglob("*")
                   if p.is_file() and p.name != "timing.json")
    assert len([n for n in names if n.suffix == ".csv"]) == 2 + 2   # decomposition, forecast
    assert names == sorted(p.relative_to(tmp_path / "btFalse")
                           for p in (tmp_path / "btFalse").rglob("*")
                           if p.is_file() and p.name != "timing.json")
    for name in names:
        assert (tmp_path / "btTrue" / name).read_bytes() == \
            (tmp_path / "btFalse" / name).read_bytes(), name


@linux_only
@pytest.mark.parametrize("cores, workers, forked", [(1, 1, 0), (3, 2, 0), (4, 2, 1)])
def test_a_training_child_forks_only_with_two_cores_per_worker(monkeypatch, cores, workers,
                                                               forked):
    cfg = small_config(backtest={"workers": workers}, training={"epochs": 1, "seeds": [3]})
    forks = force_children(monkeypatch, True, cores)
    cell = run_period(trend_two_tone(n=600, seed=3, noise_std=0.2), 480, cfg, seed=3)
    assert len(forks) == forked
    assert cell.stage_timing["train_child_channels"] == forked
    assert_no_children()


@linux_only
def test_forked_prefix_error_fails_the_cell_as_in_process(monkeypatch):
    cfg = strict_backtest_config()
    decompose_all = pipeline.decompose

    def failing_prefixes(x, c):
        if len(x) > 280:
            raise FloatingPointError(f"overflow in a prefix of {len(x)} samples")
        return decompose_all(x, c)

    monkeypatch.setattr(pipeline, "decompose", failing_prefixes)
    failures = {}
    for forked in (True, False):
        forks = force_children(monkeypatch, forked)
        report = run_backtest(cfg)
        assert len(forks) == (2 if forked else 0)
        failures[forked] = [(c.period_index, c.stage, c.message) for c in report.cells]
        assert_no_children()
    assert failures[True] == failures[False] == [
        (p, "forecast", "[stage forecast] overflow in a prefix of 288 samples") for p in (0, 1)
    ]


@linux_only
@pytest.mark.parametrize("death, message", [
    ("kill", "[stage forecast] the prefix decomposition child was killed by signal 9"),
    ("exit", "[stage forecast] the prefix decomposition child ended without its result"),
    ("exit3", "[stage forecast] the prefix decomposition child exited with status 3"),
])
def test_a_dead_prefix_child_fails_its_cell(monkeypatch, death, message):
    parent = os.getpid()
    decompose_all = pipeline.decompose

    def dying_prefixes(x, c):
        if len(x) > 280:
            assert os.getpid() != parent, "a prefix was decomposed in the test process"
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3 if death == "exit3" else 0)
        return decompose_all(x, c)

    monkeypatch.setattr(pipeline, "decompose", dying_prefixes)
    fds = open_fds()
    forks = force_children(monkeypatch, True)
    report = run_backtest(strict_backtest_config())
    assert len(forks) == 2
    assert [(c.stage, c.message) for c in report.cells] == [("forecast", message)] * 2
    assert_no_children()
    assert open_fds() == fds


@linux_only
@pytest.mark.parametrize("failing_stage", ["decompose", "train"])
def test_a_cell_failing_after_the_fork_leaves_nothing_behind(monkeypatch, failing_stage):
    overrides = {}
    if failing_stage == "decompose":
        decompose_all = pipeline.decompose

        def failing_train_segment(x, c):
            if len(x) == 280:
                raise ValueError("the train segment does not decompose")
            return decompose_all(x, c)

        monkeypatch.setattr(pipeline, "decompose", failing_train_segment)
    else:
        # steps this large overflow the float32 model: a non-finite loss
        overrides["training"] = {"epochs": 1, "seeds": [0], "learning_rate": 1e30}
    fds = open_fds()
    forks = force_children(monkeypatch, True)
    report = run_backtest(strict_backtest_config(**overrides))
    assert len(forks) == 2
    assert [c.stage for c in report.cells] == [failing_stage] * 2
    assert_no_children()
    assert open_fds() == fds


@linux_only
def test_forked_prefix_warnings_are_logged_as_in_process(caplog, monkeypatch):
    cfg = small_config(backtest={"strict_causal": True},
                       model={"lookback": 32, "patch_len": 8, "stride": 4,
                              "d_model": 8, "n_heads": 2, "n_layers": 1,
                              "d_ff": 16, "horizon": 8},
                       training={"epochs": 1, "seeds": [3]})
    decompose_all = pipeline.decompose

    def warning_decompose(x, c):
        warnings.warn(f"decomposing {len(x)} samples")
        return decompose_all(x, c)

    monkeypatch.setattr(pipeline, "decompose", warning_decompose)
    values = trend_two_tone(n=600, seed=3, noise_std=0.2)
    logged = {}
    for forked in (True, False):
        forks = force_children(monkeypatch, forked)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="modecast"):
            run_period(values, 480, cfg, seed=3, period_index=1)
        assert len(forks) == (1 if forked else 0)
        logged[forked] = [r.getMessage() for r in caplog.records]
    # the train segment's decomposition, then each prefix's, once each
    assert logged[True] == logged[False] == [
        f"period 1 seed 3: decomposing {n} samples" for n in range(480, 600, 8)
    ]


# -- a cell's channels trained in two processes ------------------------------


def files_but_timing(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and p.name != "timing.json")


@linux_only
def test_a_training_child_writes_the_in_process_files(tmp_path, monkeypatch):
    full = backtest_config(vmd={"n_modes": 3}, training={"epochs": 2, "seeds": [0]})
    # one 70-step block per period: no prefixes, so the training child forks
    single_block = backtest_config(
        backtest={"strict_causal": True},
        model={"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
               "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": 70},
        training={"epochs": 1, "seeds": [0]},
    )
    for forked in (True, False):
        forks = force_children(monkeypatch, forked)
        fds = open_fds()
        run_backtest(full, tmp_path / f"full{forked}")
        run_backtest(single_block, tmp_path / f"strict{forked}")
        train_period_to_dir(full, 1, 0, tmp_path / f"run{forked}")
        forecast = forecast_from_dir(tmp_path / f"run{forked}")
        pipeline.write_forecast_csv(tmp_path / f"run{forked}" / "forecast.csv",
                                    forecast["test_index"], forecast["actual"],
                                    forecast["predicted"])
        # one child per trained cell: two per backtest and the trained cell
        assert len(forks) == (5 if forked else 0)
        assert_no_children()
        assert open_fds() == fds
        for name in ("full", "strict"):
            timing = json.loads((tmp_path / f"{name}{forked}" / "timing.json").read_text())
            for stages in timing["stages"].values():
                # of 3 modes the parent trains 2 and the child 1; of 2, 1 each
                assert stages["train_child_channels"] == int(forked)
                assert (stages["train_wait_s"] > 0.0) == forked
    for name in ("full", "strict", "run"):
        names = files_but_timing(tmp_path / f"{name}True")
        assert names == files_but_timing(tmp_path / f"{name}False")
        for rel in names:
            ours, theirs = tmp_path / f"{name}True" / rel, tmp_path / f"{name}False" / rel
            if rel.suffix == ".npz":   # a zip entry records when it was written
                (a, meta_a), (b, meta_b) = load_checkpoint(ours), load_checkpoint(theirs)
                assert meta_a == meta_b and a.keys() == b.keys(), rel
                assert all(np.array_equal(a[key], b[key]) for key in a), rel
            else:
                assert ours.read_bytes() == theirs.read_bytes(), rel


@linux_only
@pytest.mark.parametrize("death, message", [
    ("kill", "[stage train] the training child was killed by signal 9"),
    ("exit", "[stage train] the training child ended without its result"),
    ("exit3", "[stage train] the training child exited with status 3"),
])
def test_a_dead_training_child_fails_only_its_cell(monkeypatch, death, message):
    parent = os.getpid()
    train = pipeline.train_epoch
    epochs: list[int] = []
    forks = force_children(monkeypatch, True)

    def dying_child(*args, **kwargs):
        # the first cell's child dies as its second epoch starts; until the
        # parent records the first fork, a child sees no forks
        if os.getpid() != parent and not forks:
            epochs.append(1)
            if len(epochs) == 2:
                if death == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3 if death == "exit3" else 0)
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_epoch", dying_child)
    fds = open_fds()
    report = run_backtest(backtest_config(training={"epochs": 2, "seeds": [0]}))
    assert len(forks) == 2
    assert [(c.ok, getattr(c, "stage", None), getattr(c, "message", None))
            for c in report.cells] == [(False, "train", message), (True, None, None)]
    assert_no_children()
    assert open_fds() == fds


@linux_only
def test_a_non_finite_loss_fails_the_split_cell_as_in_process(monkeypatch):
    # steps this large overflow the float32 model: a non-finite loss
    cfg = backtest_config(training={"epochs": 1, "seeds": [0], "learning_rate": 1e30})
    failures = {}
    for forked in (True, False):
        forks = force_children(monkeypatch, forked)
        fds = open_fds()
        report = run_backtest(cfg)
        assert len(forks) == (2 if forked else 0)
        failures[forked] = [(c.stage, c.message) for c in report.cells]
        assert_no_children()
        assert open_fds() == fds
    assert failures[True] == failures[False]
    assert [stage for stage, _ in failures[True]] == ["train"] * 2
    assert all("non-finite training loss" in message for _, message in failures[True])


@linux_only
def test_a_training_child_warning_is_logged_once(caplog, monkeypatch):
    parent = os.getpid()
    train = pipeline.train_epoch

    def warning_child(*args, **kwargs):
        if os.getpid() != parent:
            warnings.warn("a warning from the training child")
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_epoch", warning_child)
    forks = force_children(monkeypatch, True)
    with caplog.at_level(logging.WARNING, logger="modecast"):
        run_period(trend_two_tone(n=600, seed=3, noise_std=0.2), 480,
                   small_config(training={"epochs": 1, "seeds": [3]}), seed=3, period_index=1)
    assert len(forks) == 1
    assert [r.getMessage() for r in caplog.records if "training child" in r.getMessage()] == [
        "period 1 seed 3: a warning from the training child"
    ]


@linux_only
@pytest.mark.parametrize("horizon, child_channels", [(8, 0), (120, 1)])
def test_a_strict_causal_cell_forks_once(monkeypatch, horizon, child_channels):
    # 8-step blocks have prefixes, whose child leaves no core for training;
    # one 120-step block has none, so its cell trains in two processes
    cfg = small_config(backtest={"strict_causal": True},
                       model={"lookback": 32, "patch_len": 8, "stride": 4, "d_model": 8,
                              "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": horizon},
                       training={"epochs": 1, "seeds": [3]})
    forks = force_children(monkeypatch, True)
    cell = run_period(trend_two_tone(n=600, seed=3, noise_std=0.2), 480, cfg, seed=3)
    assert len(forks) == 1
    assert cell.stage_timing["train_child_channels"] == child_channels
    assert_no_children()


# -- train / forecast persistence ----------------------------------------------


def test_train_then_forecast_reproduces_backtest_cell(tmp_path):
    cfg = backtest_config(training={"epochs": 2, "seeds": [0]})
    report = run_backtest(cfg)
    cell = report.succeeded[0]

    run_dir = tmp_path / "run"
    trained_cell = train_period_to_dir(cfg, 0, 0, run_dir)
    assert np.array_equal(trained_cell.predicted, cell.predicted)

    result = forecast_from_dir(run_dir)
    assert np.array_equal(result["predicted"], cell.predicted)
    # reload again: bit-identical
    again = forecast_from_dir(run_dir)
    assert np.array_equal(result["predicted"], again["predicted"])


@pytest.mark.parametrize("strict_causal", [False, True])
def test_forecast_reads_only_state_and_model(tmp_path, strict_causal):
    cfg = backtest_config(
        backtest={"strict_causal": strict_causal},
        model={"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
               "n_heads": 2, "n_layers": 1, "d_ff": 16, "horizon": 8},
        split={"n_periods": 1, "train_fraction": 0.8},
        training={"epochs": 1, "seeds": [0]},
    )
    run_dir = tmp_path / "run"
    cell = train_period_to_dir(cfg, 0, 0, run_dir)
    for name in ("decomposition.csv", "decomposition_meta.json", "manifest.json"):
        (run_dir / name).unlink()
    assert sorted(p.name for p in run_dir.iterdir()) == ["model.npz", "state.npz"]
    assert np.array_equal(forecast_from_dir(run_dir)["predicted"], cell.predicted)
