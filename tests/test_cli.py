"""Command-line interface: subcommands, exit codes, file contracts."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from modecast.autodiff import load_checkpoint, save_checkpoint
from modecast.cli import main
from modecast.synthetic import two_tone, write_series_csv

SYNTHETIC = str(Path(__file__).resolve().parents[1] / "configs" / "synthetic.yaml")


def write_config(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def backtest_raw(n=700, seeds=(0,)):
    return {
        "data": {"generator": {"name": "trend_two_tone", "n": n, "seed": 4,
                               "noise_std": 0.2}},
        "vmd": {"n_modes": 2},
        "model": {"lookback": 24, "patch_len": 6, "stride": 3, "d_model": 8,
                  "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "split": {"n_periods": 2, "train_fraction": 0.8},
        "training": {"epochs": 2, "seeds": list(seeds)},
    }


# -- decompose -------------------------------------------------------------------


def test_decompose_two_tone_fixture(tmp_path, capsys):
    data = tmp_path / "two_tone.csv"
    write_series_csv(data, two_tone(2000))
    cfg = write_config(tmp_path, {
        "data": {"path": str(data)},
        "vmd": {"n_modes": 2},
    })
    out = tmp_path / "out"
    assert main(["decompose", "-c", str(cfg), "--outdir", str(out)]) == 0
    meta = json.loads((out / "decomposition_meta.json").read_text())
    omegas = sorted(meta["omegas"])
    assert abs(omegas[0] - 0.01) / 0.01 < 0.10
    assert abs(omegas[1] - 0.1) / 0.1 < 0.10
    with (out / "decomposition.csv").open() as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "imf0", "imf1"]
    assert (out / "manifest.json").exists()


def test_decompose_constant_fixture(tmp_path):
    data = tmp_path / "constant.csv"
    write_series_csv(data, np.full(100, 7.25))
    cfg = write_config(tmp_path, {
        "data": {"path": str(data)},
        "vmd": {"n_modes": 2},
    })
    out = tmp_path / "out"
    assert main(["decompose", "-c", str(cfg), "--outdir", str(out)]) == 0
    rows = list(csv.DictReader((out / "decomposition.csv").open()))
    imf0 = np.array([float(r["imf0"]) for r in rows])
    assert np.max(np.abs(imf0 - 7.25)) < 1e-6


def test_decompose_missing_input_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "data": {"path": str(tmp_path / "missing.csv")},
        "vmd": {"n_modes": 2},
    })
    assert main(["decompose", "-c", str(cfg), "--outdir", str(tmp_path / "o")]) == 2
    assert "missing.csv" in capsys.readouterr().err


def test_unreadable_csv_or_generator_exits_2(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("date,price\n2000-01-03,1.5\n2000-01-04,1.6\n")
    cfg = write_config(tmp_path, {"data": {"path": str(data)}, "vmd": {"n_modes": 2}})
    out = tmp_path / "o"
    assert main(["decompose", "-c", str(cfg), "--outdir", str(out)]) == 2
    assert "missing value column 'close'" in capsys.readouterr().err
    for generator in ("{name: trend_two_tone, m: 5}", "{name: no_such_generator}"):
        assert main(["decompose", "-c", SYNTHETIC, "-o", f"data.generator={generator}",
                     "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: data.generator: ")
    assert not out.exists()


# -- evaluate --------------------------------------------------------------------


def write_two_column(path, column, values):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", column])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])


def test_evaluate_identity(tmp_path, capsys):
    f = tmp_path / "pred.csv"
    a = tmp_path / "act.csv"
    write_two_column(f, "predicted", [1.0, 2.0, 3.0])
    write_two_column(a, "actual", [1.0, 2.0, 3.0])
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a),
                 "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mse=0.0" in out
    assert "smape=0.0" in out


def test_evaluate_hand_computed_mse(tmp_path, capsys):
    f = tmp_path / "pred.csv"
    a = tmp_path / "act.csv"
    write_two_column(f, "predicted", [3.0, 4.0, 5.0])
    write_two_column(a, "actual", [1.0, 2.0, 3.0])
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a),
                 "--outdir", str(tmp_path)]) == 0
    assert "mse=4.0" in capsys.readouterr().out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["mse"] == 4.0


def test_evaluate_length_mismatch_exits_2(tmp_path, capsys):
    f = tmp_path / "pred.csv"
    a = tmp_path / "act.csv"
    write_two_column(f, "predicted", [1.0, 2.0])
    write_two_column(a, "actual", [1.0, 2.0, 3.0])
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a),
                 "--outdir", str(tmp_path)]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_evaluate_rows_must_share_their_t(tmp_path, capsys):
    # rows are paired by position, so a forecast of t=0..2 scored against
    # the same values at other times would read as a perfect score
    f, a = tmp_path / "pred.csv", tmp_path / "act.csv"
    write_two_column(f, "predicted", [1.0, 2.0, 3.0])
    with a.open("w", newline="") as fh:
        csv.writer(fh).writerows([["t", "actual"], [0, 1.0], [6, 2.0], [7, 3.0]])
    outdir = tmp_path / "scores"
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a),
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: t differs between {f} and {a} at data row 2 (1 against 6)")
    assert not outdir.exists()
    # without a t column on one side rows still pair by position
    with a.open("w", newline="") as fh:
        csv.writer(fh).writerows([["actual"], [1.0], [2.0], [3.0]])
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a),
                 "--outdir", str(outdir)]) == 0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["forecast", "actual"])
def test_evaluate_rejects_non_finite_values(tmp_path, capsys, side, bad):
    # a NaN scored as sMAPE 0 (a perfect match) and wrote a bare NaN token
    # into metrics.json; now it exits 2 naming the file, column and row
    f = tmp_path / "pred.csv"
    a = tmp_path / "act.csv"
    predicted, actual = [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]
    (predicted if side == "forecast" else actual)[1] = float(bad)
    write_two_column(f, "predicted", predicted)
    write_two_column(a, "actual", actual)
    outdir = tmp_path / "scores"
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a),
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    path, column = (f, "predicted") if side == "forecast" else (a, "actual")
    assert str(path) in err and f"non-finite value {float(bad)}" in err
    assert f"column {column!r}, data row 2" in err
    assert not outdir.exists()


# -- backtest --------------------------------------------------------------------


def test_backtest_smoke_and_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, backtest_raw())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["backtest", "-c", str(cfg), "--outdir", str(out_a)]) == 0
    assert main(["backtest", "-c", str(cfg), "--outdir", str(out_b)]) == 0
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_backtest_override_plumbing(tmp_path):
    cfg = write_config(tmp_path, backtest_raw())
    out = tmp_path / "o"
    assert main(["backtest", "-c", str(cfg), "--outdir", str(out),
                 "-o", "aswl.enabled=false"]) == 0
    text = (out / "report.txt").read_text()
    assert "aswl: off" in text
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["aswl"]["enabled"] is False


def test_backtest_failed_cells_exit_nonzero(tmp_path, capsys):
    raw = backtest_raw()
    raw["model"]["lookback"] = 500  # longer than any train split
    cfg = write_config(tmp_path, raw)
    assert main(["backtest", "-c", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
    assert "failed" in capsys.readouterr().err


# -- train / forecast / report ------------------------------------------------------


def test_train_forecast_report_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--period", "0", "--outdir", str(run_dir)]) == 0
    assert (run_dir / "state.npz").exists()
    assert (run_dir / "model.npz").exists()

    assert main(["forecast", "--run-dir", str(run_dir)]) == 0
    first = (run_dir / "forecast.csv").read_bytes()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "forecast.csv").read_bytes() == first

    backtest_out = tmp_path / "bt"
    assert main(["backtest", "-c", str(cfg), "--outdir", str(backtest_out)]) == 0
    assert main(["report", "--run-dir", str(backtest_out)]) == 0
    out = capsys.readouterr().out
    assert "modecast backtest report" in out


def test_train_manifest_lists_only_what_train_wrote(tmp_path):
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    assert main(["forecast", "--run-dir", str(run_dir)]) == 0
    (run_dir / "notes.txt").write_text("kept by hand\n")
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == [
        "decomposition.csv", "decomposition_meta.json", "model.npz", "state.npz",
    ]


def test_forecast_into_a_decompose_directory_lists_only_the_forecasts(tmp_path):
    # the directory holds decompose's files but no state.npz: no train wrote
    # there, so forecast's manifest lists only what forecast wrote
    cfg = write_config(tmp_path, backtest_raw())
    decomp, run_dir = tmp_path / "decomp", tmp_path / "run"
    assert main(["decompose", "-c", str(cfg), "--outdir", str(decomp)]) == 0
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    assert main(["forecast", "--run-dir", str(run_dir), "--outdir", str(decomp)]) == 0
    manifest = json.loads((decomp / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == [
        "forecast.csv", "imf0_forecast.csv", "imf1_forecast.csv",
    ]
    assert (decomp / "decomposition.csv").is_file()


def test_forecast_with_misshapen_running_statistics_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    arrays, meta = load_checkpoint(run_dir / "model.npz")
    arrays["layer0.norm1.running_mean"] = arrays["layer0.norm1.running_mean"][:, :-1]
    save_checkpoint(run_dir / "model.npz", arrays, meta=meta)
    capsys.readouterr()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 2
    assert "layer0.norm1.running_mean" in capsys.readouterr().err


def test_forecast_without_state_exits_2(tmp_path, capsys):
    assert main(["forecast", "--run-dir", str(tmp_path)]) == 2
    assert "state.npz" in capsys.readouterr().err


def test_forecast_from_per_channel_run_dir_exits_2(tmp_path, capsys):
    # a run directory in the older layout (channel{m}.npz, no model.npz)
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    (run_dir / "model.npz").rename(run_dir / "channel0.npz")
    capsys.readouterr()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 2
    assert "model.npz" in capsys.readouterr().err


def test_forecast_from_per_head_model_npz_exits_2(tmp_path, capsys):
    # a model.npz in the older layout: one (d, d_k) q/k/v block per head
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    arrays, meta = load_checkpoint(run_dir / "model.npz")
    dk = 8 // 2
    for name in ("w_q", "w_k", "w_v"):
        rows = arrays.pop(f"layer0.{name}")
        for h in range(2):
            arrays[f"layer0.head{h}.{name}"] = np.swapaxes(rows[:, h * dk:(h + 1) * dk], -1, -2)
    save_checkpoint(run_dir / "model.npz", arrays, meta=meta)
    capsys.readouterr()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "layer0.w_q" in err


def test_forecast_with_a_removed_config_key_exits_2(tmp_path, capsys):
    # a run directory saved while model.norm still existed
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    arrays, meta = load_checkpoint(run_dir / "state.npz")
    meta["config"]["model"]["norm"] = "batch"
    save_checkpoint(run_dir / "state.npz", arrays, meta=meta)
    capsys.readouterr()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown keys in 'model': ['norm']" in err


@pytest.mark.parametrize("state", ["text", "empty", "truncated", "npz_without_metadata"])
# a file left open warns when it is collected, which these filters make fail
@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_forecast_from_a_state_npz_that_is_no_checkpoint_exits_2(tmp_path, capsys, state):
    # numpy refuses text as pickled data, and an empty or cut-short file
    # before it reads an array; the npz lacks the checkpoint metadata: each
    # is a bad input file, not an internal error
    path = tmp_path / "state.npz"
    np.savez(path, values=np.zeros(3))
    if state == "text":
        path.write_text("not an archive\n")
    elif state == "empty":
        path.write_bytes(b"")
    elif state == "truncated":
        path.write_bytes(path.read_bytes()[:40])
    (tmp_path / "model.npz").write_bytes(b"")
    assert main(["forecast", "--run-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{tmp_path / 'state.npz'}: not a checkpoint file" in err


def _model_over_state(run_dir):
    (run_dir / "state.npz").write_bytes((run_dir / "model.npz").read_bytes())


def _state_without_values(run_dir):
    arrays, meta = load_checkpoint(run_dir / "state.npz")
    del arrays["values"]
    save_checkpoint(run_dir / "state.npz", arrays, meta=meta)


@pytest.mark.parametrize("damage,missing", [
    (_model_over_state, "metadata key 'config'"),
    (_state_without_values, "array 'values'"),
], ids=["metadata_key", "array"])
def test_forecast_from_a_checkpoint_that_is_no_run_state_exits_2(tmp_path, capsys, damage,
                                                                  missing):
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    damage(run_dir)
    capsys.readouterr()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / 'state.npz'}: not a trained run's state")
    assert f"(missing {missing})" in err
    assert not (run_dir / "forecast.csv").exists()


def test_backtest_series_too_short_for_periods_exits_2(tmp_path, capsys):
    assert main(["backtest", "-c", SYNTHETIC, "-o", "split.n_periods=1000",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert "series too short" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_vmd_tol_exits_2(tmp_path, capsys):
    assert main(["backtest", "-c", SYNTHETIC, "-o", "vmd.tol=nan",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_float_for_integer_key_exits_2(tmp_path, capsys):
    # a float count must stop the run at load, not fail every cell (exit 1)
    raw = backtest_raw()
    raw["training"]["epochs"] = 1.0
    cfg = write_config(tmp_path, raw)
    assert main(["backtest", "-c", str(cfg), "--outdir", str(tmp_path / "o")]) == 2
    assert "training.epochs must be an integer" in capsys.readouterr().err
    cfg = write_config(tmp_path, backtest_raw(), name="ok.yaml")
    assert main(["backtest", "-c", str(cfg), "-o", "vmd={n_modes: 3.0}",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert "vmd.n_modes must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_float_key_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    # it used to load and then fail every cell (exit 1) in 2.0 * alpha
    raw = backtest_raw()
    raw["vmd"]["alpha"] = 10**400
    cfg = write_config(tmp_path, raw)
    assert main(["backtest", "-c", str(cfg), "--outdir", str(tmp_path / "o")]) == 2
    assert "vmd.alpha is too large for a float" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_backtest_empty_split_exits_2(tmp_path, capsys):
    assert main(["backtest", "-c", SYNTHETIC, "-o", "split.train_fraction=0.0001",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert "empty split" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_period_out_of_range_exits_2(tmp_path, capsys):
    assert main(["train", "-c", SYNTHETIC, "--period", "7",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert "period 7 out of range [0, 3)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_overrides_training_seed(tmp_path):
    cfg = write_config(tmp_path, backtest_raw())
    out = tmp_path / "o"
    assert main(["backtest", "-c", str(cfg), "--outdir", str(out), "--seed", "9"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["training"]["seeds"] == [9]
    assert payload["cells"][0]["seed"] == 9


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MODECAST_OUTDIR", str(tmp_path / "envout"))
    f = tmp_path / "pred.csv"
    a = tmp_path / "act.csv"
    write_two_column(f, "predicted", [1.0])
    write_two_column(a, "actual", [1.0])
    assert main(["evaluate", "--forecast", str(f), "--actual", str(a)]) == 0
    assert (tmp_path / "envout" / "metrics.json").exists()


def test_report_renders_report_json_like_report_txt(tmp_path, capsys):
    # failed cells need no training; with 11 periods, split order puts "2" before "10"
    from modecast.config import ExperimentConfig
    from modecast.pipeline import ExperimentReport, FailedCell, write_backtest_artifacts
    from modecast.series_io import split_periods

    config = ExperimentConfig.from_dict(backtest_raw())
    splits = split_periods(1100, 11, 0.8)
    cells = [FailedCell(s.period_index, 0, "window", "too short") for s in splits]
    run_dir = tmp_path / "run"
    write_backtest_artifacts(ExperimentReport(config.to_dict(), splits, cells), run_dir)
    expected = (run_dir / "report.txt").read_text()
    (run_dir / "report.txt").unlink()  # the report must come from report.json
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert out == expected
    periods = [line.split()[1] for line in out.splitlines()
               if line.startswith("period ") and " mean: " in line]
    assert periods == [str(p) for p in range(11)]


def test_report_without_report_json_exits_2(tmp_path, capsys):
    (tmp_path / "report.txt").write_text("stale\n")
    assert main(["report", "--run-dir", str(tmp_path)]) == 2
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b'{"config": ', b"\xff\xfe"], ids=["cut_short", "not_utf8"])
def test_report_with_unparseable_report_json_exits_2(tmp_path, capsys, content):
    (tmp_path / "report.json").write_bytes(content)
    assert main(["report", "--run-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{tmp_path / 'report.json'}: not a report.json" in err


@pytest.mark.parametrize("content,reason", [
    (b"{}", "missing key 'config'"),
    (b'{"config": {"training": {"seeds": [0]}}, "splits": []}', "missing key 'cells'"),
    (b"[1, 2]", "expected a JSON object"),
    (b'{"config": {"training": {"seeds": [0]}}, "splits": 5, "cells": []}', "has no len()"),
], ids=["empty_object", "no_cells", "list", "splits_not_a_list"])
def test_report_with_an_incomplete_report_json_exits_2(tmp_path, capsys, content, reason):
    (tmp_path / "report.json").write_bytes(content)
    assert main(["report", "--run-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'report.json'}: not a report.json")
    assert reason in err


def _trained_twins(tmp_path):
    """Two directories one ``train`` filled alike; the clean one has no manifest."""
    cfg = write_config(tmp_path, backtest_raw())
    run_dir, clean = tmp_path / "run", tmp_path / "clean"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    clean.mkdir()
    for path in run_dir.iterdir():
        if path.name != "manifest.json":
            (clean / path.name).write_bytes(path.read_bytes())
    return run_dir, clean


def _forecast_and_evaluate_twins(tmp_path, run_dir, clean):
    """Run forecast, then evaluate, in both directories; after each the
    manifests must be byte-identical."""
    write_two_column(tmp_path / "pred.csv", "predicted", [1.0])
    write_two_column(tmp_path / "act.csv", "actual", [1.0])
    for args in (["forecast", "--run-dir"],
                 ["evaluate", "--forecast", str(tmp_path / "pred.csv"),
                  "--actual", str(tmp_path / "act.csv"), "--outdir"]):
        for directory in (run_dir, clean):
            assert main(args + [str(directory)]) == 0
        assert (run_dir / "manifest.json").read_bytes() == (clean / "manifest.json").read_bytes()


@pytest.mark.parametrize("manifest", [b'{"config": {"data"', b'["model.npz"]'],
                         ids=["cut_short", "list"])
def test_forecast_and_evaluate_overwrite_a_bad_manifest(tmp_path, manifest):
    # an old manifest is overwritten, never read: forecast and evaluate write
    # the manifest a directory without one gets
    run_dir, clean = _trained_twins(tmp_path)
    (run_dir / "manifest.json").write_bytes(manifest)
    _forecast_and_evaluate_twins(tmp_path, run_dir, clean)
    listed = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    assert sorted(listed) == [
        "decomposition.csv", "decomposition_meta.json", "forecast.csv", "imf0_forecast.csv",
        "imf1_forecast.csv", "metrics.json", "model.npz", "state.npz",
    ]


def test_forecast_and_evaluate_overwrite_a_manifest_that_lists_a_missing_file(tmp_path):
    # a listed file that was deleted is left out, not re-hashed
    run_dir, clean = _trained_twins(tmp_path)
    for directory in (run_dir, clean):
        (directory / "decomposition.csv").unlink()
    _forecast_and_evaluate_twins(tmp_path, run_dir, clean)
    assert "decomposition.csv" not in json.loads((run_dir / "manifest.json").read_text())["artifacts"]


def test_forecast_and_evaluate_rewrite_their_own_missing_outputs(tmp_path):
    # a listed file the command writes again is no reason to stop: forecast
    # rewrites forecast.csv and imf*_forecast.csv, evaluate metrics.json
    cfg = write_config(tmp_path, backtest_raw())
    run_dir = tmp_path / "run"
    assert main(["train", "-c", str(cfg), "--outdir", str(run_dir)]) == 0
    assert main(["forecast", "--run-dir", str(run_dir)]) == 0
    forecasts = ["forecast.csv", "imf0_forecast.csv", "imf1_forecast.csv"]
    before = {name: (run_dir / name).read_bytes() for name in forecasts}
    manifest = (run_dir / "manifest.json").read_bytes()
    for name in ("forecast.csv", "imf1_forecast.csv"):
        (run_dir / name).unlink()
    assert main(["forecast", "--run-dir", str(run_dir)]) == 0
    assert {name: (run_dir / name).read_bytes() for name in forecasts} == before
    assert (run_dir / "manifest.json").read_bytes() == manifest
    # a listed forecast this run does not write (a model with more modes
    # wrote it) is dropped, not re-hashed
    listed = json.loads(manifest)
    listed["artifacts"]["imf5_forecast.csv"] = "0" * 64
    (run_dir / "manifest.json").write_text(json.dumps(listed))
    assert main(["forecast", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "manifest.json").read_bytes() == manifest

    forecast = str(run_dir / "forecast.csv")
    args = ["evaluate", "--forecast", forecast, "--actual", forecast, "--outdir", str(run_dir)]
    assert main(args) == 0
    metrics = (run_dir / "metrics.json").read_bytes()
    (run_dir / "metrics.json").unlink()
    assert main(args) == 0
    assert (run_dir / "metrics.json").read_bytes() == metrics
