"""Command-line front end.

Six subcommands share one structured YAML config plus dotted-path overrides:

    modecast decompose -c cfg.yaml [--period N]
    modecast train     -c cfg.yaml [--period N] [--seed S]
    modecast forecast  --run-dir DIR
    modecast evaluate  --forecast pred.csv --actual act.csv
    modecast backtest  -c cfg.yaml
    modecast report    --run-dir DIR

Exit codes: 0 success, 1 internal failure, 2 user/input error.  The default
output directory comes from ``--outdir``, else ``$MODECAST_OUTDIR``, else
``./modecast_out``.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import CheckpointFormatError
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .forecaster import CheckpointMismatchError
from .metrics import metric_pair
from .pipeline import (
    PipelineStageError,
    config_period,
    forecast_from_dir,
    load_series,
    render_report_text,
    run_backtest,
    run_dir_meta,
    run_forecasts,
    train_period_to_dir,
    write_cell_forecasts,
    write_manifest,
    write_run_manifest,
)
from .vmd import decompose, write_decomposition_csv, write_decomposition_metadata

log = logging.getLogger("modecast")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


class UserError(Exception):
    """Bad invocation or unusable input; maps to exit code 2."""


def _default_outdir() -> str:
    return os.environ.get("MODECAST_OUTDIR", "modecast_out")


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise UserError("this command needs --config")
    config = load_config(args.config)
    if args.override:
        config = apply_overrides(config, args.override)
    if getattr(args, "seed", None) is not None:
        config = apply_overrides(config, [f"training.seeds=[{args.seed}]"])
    return config


def _outdir(args) -> Path:
    """The output directory, not yet created: a command creates it once its
    input has been checked, so a rejected run leaves nothing behind."""
    return Path(args.outdir or _default_outdir())


def cmd_decompose(args) -> int:
    config = _load_config(args)
    values = load_series(config)
    if args.period is not None:
        split = config_period(config, len(values), args.period)
        values = values[split.start: split.stop]
    result = decompose(values, config.vmd)
    outdir = _outdir(args)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "decomposition.csv"
    meta_path = outdir / "decomposition_meta.json"
    write_decomposition_csv(csv_path, result.modes)
    write_decomposition_metadata(meta_path, config.vmd, result)
    write_manifest(outdir, config.to_dict(), list(config.training.seeds), [csv_path, meta_path])
    omegas = " ".join(format(w, ".6g") for w in result.omegas)
    print(f"decomposed {values.shape[0]} samples into {config.vmd.n_modes} modes")
    print(f"omegas: [{omegas}]  converged={result.converged} iterations={result.iterations}")
    print(f"wrote {csv_path} and {meta_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    seed = config.training.seeds[0]
    outdir = _outdir(args)
    try:
        cell = train_period_to_dir(config, args.period, seed, outdir)
    except PipelineStageError as exc:
        if exc.stage != "window":
            raise
        # the configured lookback and horizon do not fit the period's train part
        raise UserError(f"period {args.period}: {exc}") from exc
    print(
        f"trained period {args.period} seed {seed}: "
        f"test mse={cell.overall.mse:.6g} smape={cell.overall.smape:.6g}"
    )
    print(f"checkpoints and state written to {outdir}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    run_dir = Path(args.run_dir)
    for name in ("state.npz", "model.npz"):
        if not (run_dir / name).exists():
            raise UserError(f"{run_dir} does not contain a trained run ({name} missing)")
    outdir = Path(args.outdir) if args.outdir else run_dir
    try:
        result = forecast_from_dir(run_dir)
    except CheckpointMismatchError as exc:
        raise UserError(
            f"{run_dir / 'model.npz'} does not fit the model its config describes "
            f"(trained by an older modecast?): {exc}"
        ) from exc
    owner = run_dir_meta(outdir) or result   # read before anything is written
    emitted = write_cell_forecasts(
        outdir, result["test_index"], result["actual"], result["predicted"],
        result["channel_actual"], result["channel_predicted"],
    )
    mp = result["overall"]
    write_run_manifest(outdir, owner, emitted)
    print(f"forecast ({result['decomposition']}): mse={mp.mse:.6g} smape={mp.smape:.6g}")
    print(f"wrote {emitted[0]}")
    return EXIT_OK


def _read_metric_column(path: Path, preferred: str) -> tuple[list | None, np.ndarray]:
    """The CSV's ``t`` column as read (None when it has none) and its value
    column: ``preferred``, else the last column other than ``t``."""
    if not path.exists():
        raise UserError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames:
            raise UserError(f"{path}: empty CSV")
        if preferred in reader.fieldnames:
            column = preferred
        else:
            candidates = [c for c in reader.fieldnames if c != "t"]
            if not candidates:
                raise UserError(f"{path}: no value column")
            column = candidates[-1]
        rows = list(reader)
        try:
            values = [float(row[column]) for row in rows]
        except (TypeError, ValueError) as exc:
            raise UserError(f"{path}: unparseable value in column {column!r}") from exc
        t = [row["t"] for row in rows] if "t" in reader.fieldnames else None
    if not values:
        raise UserError(f"{path}: no data rows")
    values = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # sMAPE would score a NaN point as a perfect match, and metrics.json
        # would hold a bare NaN token
        raise UserError(
            f"{path}: non-finite value {float(values[bad[0]])} in column {column!r}, "
            f"data row {bad[0] + 1}"
        )
    return t, values


def cmd_evaluate(args) -> int:
    predicted_t, predicted = _read_metric_column(Path(args.forecast), "predicted")
    actual_t, actual = _read_metric_column(Path(args.actual), "actual")
    if predicted.shape != actual.shape:
        raise UserError(
            f"length mismatch: {args.forecast} has {predicted.size} rows, "
            f"{args.actual} has {actual.size}"
        )
    if predicted_t is not None and actual_t is not None and predicted_t != actual_t:
        row = next(i for i, (tp, ta) in enumerate(zip(predicted_t, actual_t)) if tp != ta)
        raise UserError(
            f"t differs between {args.forecast} and {args.actual} at data row {row + 1} "
            f"({predicted_t[row]} against {actual_t[row]})"
        )
    mp = metric_pair(actual, predicted)
    outdir = _outdir(args)
    owner = run_dir_meta(outdir)   # read before anything is written
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"mse": mp.mse, "smape": mp.smape, "n": int(actual.size)}
    metrics_path = outdir / "metrics.json"
    metrics_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if owner is None:
        inputs = {"forecast": str(args.forecast), "actual": str(args.actual)}
        write_manifest(outdir, inputs, [], [metrics_path])
    else:   # a trained run's directory also lists what forecast wrote there
        write_run_manifest(outdir, owner, [*run_forecasts(outdir, owner), metrics_path])
    print(f"mse={mp.mse!r}")
    print(f"smape={mp.smape!r}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    config = _load_config(args)
    outdir = _outdir(args)
    report = run_backtest(config, outdir)
    overall = report.overall_mean()
    for split in report.splits:
        mean = report.period_mean(split.period_index)
        if mean is None:
            print(f"period {split.period_index}: FAILED")
        else:
            print(f"period {split.period_index}: mse={mean.mse:.6g} smape={mean.smape:.6g}")
    if overall is not None:
        print(f"overall: mse={overall.mse:.6g} smape={overall.smape:.6g}")
    print(f"report written to {outdir}")
    if report.failed:
        for cell in report.failed:
            log.error(
                "period %d seed %d failed at stage %s: %s",
                cell.period_index, cell.seed, cell.stage, cell.message,
            )
        print(f"{len(report.failed)} cell(s) failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_report(args) -> int:
    data = Path(args.run_dir) / "report.json"
    if not data.exists():
        raise UserError(f"{args.run_dir} has no report.json")
    try:
        doc = json.loads(data.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UserError(f"{data}: not a report.json ({exc})") from exc
    if not isinstance(doc, dict):
        raise UserError(f"{data}: not a report.json (expected a JSON object)")
    try:
        text = render_report_text(doc)
    except KeyError as exc:
        raise UserError(f"{data}: not a report.json (missing key {exc})") from exc
    except (TypeError, ValueError) as exc:  # a value of the wrong type
        raise UserError(f"{data}: not a report.json ({exc})") from exc
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modecast",
        description="Decomposition-ensemble forecasting toolkit",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("-c", "--config", help="YAML experiment config")
            p.add_argument(
                "-o", "--override", action="append", default=[],
                metavar="KEY=VALUE", help="dotted config override, e.g. vmd.alpha=500",
            )
            p.add_argument("--seed", type=int, help="set training.seeds to this one seed")
        p.add_argument("--outdir", help="output directory (default $MODECAST_OUTDIR or ./modecast_out)")

    p = sub.add_parser("decompose", help="run the mode decomposition and export it")
    common(p)
    p.add_argument("--period", type=int, help="decompose one split period instead of the whole series")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("train", help="train one period's model and persist it")
    common(p)
    p.add_argument("--period", type=int, default=0, help="period index to train (default 0)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="forecast from a trained run directory")
    p.add_argument("--run-dir", required=True, help="directory written by 'train'")
    p.add_argument("--outdir", help="where to write forecast CSVs (default: run dir)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score a forecast CSV against an actual CSV")
    p.add_argument("--forecast", required=True, help="CSV with the predictions")
    p.add_argument("--actual", required=True, help="CSV with the actual values")
    p.add_argument("--outdir", help="where to write metrics.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("backtest", help="full multi-period, multi-seed experiment")
    common(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="print the report of a finished run")
    p.add_argument("--run-dir", required=True, help="backtest output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (UserError, ConfigError, CheckpointFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # internal failure
        log.exception("internal failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
