"""End-to-end orchestration: decompose, normalize, window, train, forecast,
aggregate, score, and backtest across periods and seeds.

The default protocol decomposes each full period (train plus test) before
splitting, which mirrors how decomposition-ensemble results are usually
presented but leaks future samples into the training modes.  A
``strict_causal`` switch instead decomposes only the train portion for
training and re-decomposes the train-plus-observed prefix at every test step;
reports label which protocol produced them.  Those prefix decompositions do
not depend on the model, so where forking is safe a child process runs them
while the cell trains.  A cell with no such child may instead fork one that
trains half of its channels.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import scale_weights as swmod
from .autodiff import Adam, CheckpointFormatError, Tape, Tensor, load_checkpoint, save_checkpoint
from .baselines import baseline_linear_ar, baseline_naive
from .config import ConfigError, ExperimentConfig
from .forecaster import PatchForecaster, train_epoch
from .metrics import MetricPair, metric_pair
from .series_io import (
    NormalizationParams,
    PeriodSplit,
    load_csv,
    make_windows,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    split_periods,
)
from .synthetic import generate
from .vmd import VmdResult, decompose, write_decomposition_csv, write_decomposition_metadata

__all__ = [
    "PeriodCell",
    "FailedCell",
    "ExperimentReport",
    "PipelineStageError",
    "load_series",
    "config_splits",
    "config_period",
    "run_period",
    "run_backtest",
    "train_period_to_dir",
    "forecast_from_dir",
    "render_report_text",
    "report_to_dict",
    "write_forecast_csv",
    "write_cell_forecasts",
]

log = logging.getLogger(__name__)

SMAPE_NOTE = (
    "smape uses the symmetric denominator (|actual| + |predicted|) with factor 2 "
    "and is bounded in [0, 2]; zero/zero points contribute 0."
)


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage {stage}] {message}")
        self.stage = stage


@dataclass
class PeriodCell:
    """Everything one (period, seed) run produced.

    ``vmd`` is the cell's own decomposition: of the whole period, or under
    ``strict_causal`` of its train segment only.  ``channel_actual`` holds each
    mode's test segment (``[K, n_test]``, the targets of ``channel_predicted``)
    and ``per_channel`` each mode's test metrics; both are None under
    ``strict_causal``, which has no single set of test modes."""

    period_index: int
    seed: int
    train_size: int
    decomposition_label: str
    overall: MetricPair
    baselines: dict[str, MetricPair]
    aswl_weights_initial: list[float] | None
    aswl_weights_final: list[float] | None
    epoch_losses: list[float]
    runtime_s: float
    per_channel: list[MetricPair] | None
    vmd: VmdResult = field(repr=False)
    test_index: np.ndarray = field(repr=False)
    actual: np.ndarray = field(repr=False)
    predicted: np.ndarray = field(repr=False)
    channel_actual: np.ndarray | None = field(repr=False)
    channel_predicted: np.ndarray = field(repr=False)
    stage_timing: dict = field(repr=False, default_factory=dict)  # see _stage

    @property
    def ok(self) -> bool:
        return True


@dataclass
class FailedCell:
    period_index: int
    seed: int
    stage: str
    message: str

    @property
    def ok(self) -> bool:
        return False


@dataclass
class ExperimentReport:
    config: dict
    splits: list[PeriodSplit]
    cells: list[PeriodCell | FailedCell]
    total_runtime_s: float = 0.0

    @property
    def succeeded(self) -> list[PeriodCell]:
        return [c for c in self.cells if c.ok]

    @property
    def failed(self) -> list[FailedCell]:
        return [c for c in self.cells if not c.ok]

    def period_mean(self, period_index: int) -> MetricPair | None:
        return _mean_metrics([c for c in self.succeeded if c.period_index == period_index])

    def overall_mean(self) -> MetricPair | None:
        return _mean_metrics(self.succeeded)


def _mean_metrics(cells: list[PeriodCell]) -> MetricPair | None:
    if not cells:
        return None
    return MetricPair(
        mse=float(np.mean([c.overall.mse for c in cells])),
        smape=float(np.mean([c.overall.smape for c in cells])),
    )


def load_series(config: ExperimentConfig) -> np.ndarray:
    """Materialize the configured input series (CSV file or generator).  A CSV
    it cannot read, or a generator it cannot call, is a :class:`ConfigError`;
    a CSV whose rows it drops (unparseable or non-finite values) is logged."""
    if config.data.path is not None:
        try:
            series = load_csv(config.data.path, config.data.column, config.data.date_column)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if series.dropped_rows:
            log.warning("%s: dropped %d row(s) with an unparseable or non-finite %r value",
                        config.data.path, series.dropped_rows, config.data.column)
        return series.values
    try:
        return np.asarray(generate(config.data.generator), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"data.generator: {exc}") from exc


def config_splits(config: ExperimentConfig, n_samples: int) -> list[PeriodSplit]:
    """The configured period splits of an ``n_samples``-long series; a split
    the series cannot hold is a :class:`ConfigError`."""
    try:
        return split_periods(n_samples, config.split.n_periods, config.split.train_fraction)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_period(config: ExperimentConfig, n_samples: int, period_index: int) -> PeriodSplit:
    """One period of :func:`config_splits`; an index outside them is a
    :class:`ConfigError`."""
    splits = config_splits(config, n_samples)
    if not 0 <= period_index < len(splits):
        raise ConfigError(f"period {period_index} out of range [0, {len(splits)})")
    return splits[period_index]


# -- single-period pipeline ---------------------------------------------------


def _minor_faults() -> int | None:
    """Minor page faults of this process so far; None without ``resource``."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def _stage(name: str, timing: dict):
    """Tag any failure inside with the stage name, and store the block's
    seconds and minor page faults in ``timing`` as ``<name>_s`` and
    ``<name>_minor_faults`` (None without ``resource``)."""
    t_begin, faults_begin = time.perf_counter(), _minor_faults()
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, str(exc)) from exc
    finally:
        timing[f"{name}_s"] = time.perf_counter() - t_begin
        faults = _minor_faults()
        timing[f"{name}_minor_faults"] = None if faults is None else faults - faults_begin


def _fit(model: PatchForecaster, inputs: np.ndarray, targets: np.ndarray, sw,
         rng: np.random.Generator, config: ExperimentConfig, rejoin=None) -> list[float]:
    """Train ``model`` (and ``sw.theta`` where it trains) for the configured
    epochs with its own ``Adam``; returns the epoch losses."""
    params = model.parameters()
    if sw is not None and config.aswl.train_theta:
        params.append(sw.theta)
    optimizer = Adam(params, lr=config.training.learning_rate)
    return [
        train_epoch(model, inputs, targets, optimizer, config.training.batch_size, rng, sw,
                    rejoin)
        for _epoch in range(config.training.epochs)
    ]


class _LossSwap:
    """``train_epoch``'s ``rejoin`` for one of two processes that train a
    model's channels between them: it sends this side's per-channel losses,
    receives the peer's and joins them in channel order, this side's on the
    tape and the peer's as a constant.  Both sides then weigh the same
    ``[K]`` losses, so they take the same loss and ``theta`` steps, and each
    channel's parameters get the gradient one joint tape would give them."""

    def __init__(self, link, first: bool):
        self.link = link
        self.first = first   # whether this side holds the leading channels
        self.wait_s = 0.0

    def __call__(self, tape: Tape, own: Tensor) -> Tensor:
        self.link.send(own.values)
        t_begin = time.perf_counter()
        theirs = Tensor(self.link.recv())
        self.wait_s += time.perf_counter() - t_begin
        return tape.concat([own, theirs] if self.first else [theirs, own])


def _train_stage(
    train_norm: np.ndarray,  # [K, train_size]
    ranges: np.ndarray,
    config: ExperimentConfig,
    seed: int,
    prefix_ends: range,
    timing: dict,
):
    """Build and train the cell's model; returns ``(model, sw,
    weights_initial, weights_final, epoch_losses)``.

    A cell with two or more channels and no strict-causal ``prefix_ends``
    (whose child takes the second core) trains in two processes where
    :func:`_forks_safely` and there are two usable cores per cell worker: a
    forked child trains channels ``[ceil(K/2), K)`` while this process trains
    the rest, each on a :meth:`PatchForecaster.channel_slice` with a
    :class:`_LossSwap`, and the child's trained arrays are loaded back into
    the model.  The results are the same arrays either way.  ``timing`` gets
    the channel count the child trained as ``train_child_channels`` (0
    in-process) and this process's wait for its losses and arrays as
    ``train_wait_s``."""
    k = train_norm.shape[0]
    cfg_m = config.model
    batch = make_windows(train_norm.T, cfg_m.lookback, cfg_m.horizon)
    children = np.random.SeedSequence(seed).spawn(k + 1)
    model = PatchForecaster(cfg_m, [np.random.default_rng(c) for c in children[:k]])
    shuffle_rng = np.random.default_rng(children[k])

    sw = None
    if config.aswl.enabled:
        sw = (
            swmod.init_from_scales(ranges)
            if config.aswl.init == "ranges"
            else swmod.uniform(k)
        )

    weights_initial = swmod.weights(sw).tolist() if sw is not None else None
    timing.update(train_child_channels=0, train_wait_s=0.0)
    if (k < 2 or prefix_ends or not _forks_safely()
            or len(os.sched_getaffinity(0)) < 2 * config.backtest.workers):
        epoch_losses = _fit(model, batch.inputs, batch.targets, sw, shuffle_rng, config)
    else:
        half = (k + 1) // 2
        ours, theirs = slice(0, half), slice(half, k)

        def train_theirs(link):
            part = model.channel_slice(theirs)
            _fit(part, batch.inputs[..., theirs], batch.targets[..., theirs], sw, shuffle_rng,
                 config, _LossSwap(link, first=False))
            return part.param_arrays()

        with _forked_child("train", "training", train_theirs) as child:
            part = model.channel_slice(ours)
            swap = _LossSwap(child, first=True)
            epoch_losses = _fit(part, batch.inputs[..., ours], batch.targets[..., ours], sw,
                                shuffle_rng, config, swap)
            t_begin = time.perf_counter()
            model.load_param_arrays(child.recv(), theirs)
            timing.update(train_child_channels=k - half,
                          train_wait_s=swap.wait_s + time.perf_counter() - t_begin)
        model.load_param_arrays(part.param_arrays(), ours)
    weights_final = swmod.weights(sw).tolist() if sw is not None else None
    return model, sw, weights_initial, weights_final, epoch_losses


def _baseline_scores(
    train_values: np.ndarray, actual: np.ndarray, config: ExperimentConfig
) -> dict[str, MetricPair]:
    """Score the configured plumbing baselines on the test segment."""
    scores: dict[str, MetricPair] = {}
    if "naive" in config.baselines.names:
        scores["naive"] = metric_pair(actual, baseline_naive(train_values, actual))
    if "linear_ar" in config.baselines.names:
        scores["linear_ar"] = metric_pair(
            actual, baseline_linear_ar(train_values, config.baselines.ar_order, actual)
        )
    return scores


def _warn_decomposition(result: VmdResult) -> None:
    """Warn of a cell's own decomposition stopping unconverged, or ending with
    two centres closer than one step of its ``1/(2n)`` frequency grid (a sign
    that ``vmd.n_modes`` is too large)."""
    if not result.converged:
        warnings.warn(f"decomposition stopped unconverged at vmd.max_iter "
                      f"({result.iterations} iterations)")
    centres = result.omegas   # ascending: decompose sorts its modes
    if centres.size < 2:
        return
    closest = int(np.argmin(np.diff(centres)))
    grid_step = 1.0 / (2 * result.modes.shape[1])
    if centres[closest + 1] - centres[closest] < grid_step:
        warnings.warn(f"decomposition centres {centres[closest]:.6g} and "
                      f"{centres[closest + 1]:.6g} are closer than one grid step "
                      f"({grid_step:.3g}); vmd.n_modes may be too large")


@contextlib.contextmanager
def _logged_warnings(period_index: int, seed: int):
    """Log every warning raised inside, each occurrence, as ``period P seed
    S: <message>``.  Python's default filter would show a warning once per
    call site and process, with no cell coordinates."""
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        for w in caught:
            log.warning("period %d seed %d: %s", period_index, seed, w.message)


def _forks_safely() -> bool:
    """Whether a child process may be forked: on Linux, from a process that
    runs one thread.  A child forked while another thread holds a lock (a
    BLAS pool's, the allocator's) can deadlock, which would hang the cell
    with no error; ``/proc/self/task`` counts the threads Python's own fork
    warning counts."""
    if sys.platform != "linux":
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _decompose_prefixes(values: np.ndarray, ends, vmd_config) -> list[tuple[VmdResult, float]]:
    """``decompose(values[:s])`` for each prefix end ``s``, with its seconds."""
    results = []
    for s in ends:
        t_begin = time.perf_counter()
        results.append((decompose(values[:s], vmd_config), time.perf_counter() - t_begin))
    return results


@dataclass
class _ChildEnd:
    """A forked child's last message: what its work returned or raised, and
    the warnings it raised as ``(category, message, filename, lineno)``."""

    result: object
    error: Exception | None
    warnings: list


class _Child:
    """The parent's end of a child :func:`_forked_child` started: its
    ``multiprocessing`` process and connection.  Its failures are
    :class:`PipelineStageError` of ``stage``, naming the child as ``the
    <what> child``."""

    def __init__(self, process, conn, stage: str, what: str):
        self.process, self.conn, self.stage, self.what = process, conn, stage, what

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except ConnectionError:
            pass   # the child has ended: the next recv says how

    def recv(self):
        """The child's next message.  Its last one, what its work returned,
        waits for it to exit, issues its warnings again here and raises its
        exception again.  A child that ends first is a
        :class:`PipelineStageError` that says how it ended."""
        try:
            message = self.conn.recv()
        except (EOFError, OSError):   # OSError: cut off mid-message or reset
            self.process.join()
            code = self.process.exitcode
            how = (f"was killed by signal {-code}" if code < 0
                   else f"exited with status {code}" if code else "ended without its result")
            raise PipelineStageError(self.stage, f"the {self.what} child {how}") from None
        if not isinstance(message, _ChildEnd):
            return message
        self.process.join()
        for category, text, filename, lineno in message.warnings:
            warnings.warn_explicit(text, category, filename, lineno)
        if message.error is not None:
            raise message.error
        return message.result

    def close(self) -> None:
        """Kill the child if it still runs, wait for it and release it."""
        self.process.kill()   # no signal once it has been waited for
        self.process.join()
        self.process.close()


def _run_child(work, conn, parent_end) -> None:
    """The forked child: run ``work(conn)`` and send a :class:`_ChildEnd`.
    Anything else it raises ends it with status 1."""
    parent_end.close()   # so that a parent that dies ends the child's reads
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = work(conn), None
        except Exception as exc:
            result, error = None, exc
    conn.send(_ChildEnd(result, error, [(w.category, str(w.message), w.filename, w.lineno)
                                        for w in caught]))


@contextlib.contextmanager
def _forked_child(stage: str, what: str, work):
    """Fork a child that runs ``work(conn)``, where ``conn`` (a
    ``multiprocessing`` connection) exchanges messages with the
    :class:`_Child` yielded here; the child's last message is what ``work``
    returned.  On exit a child still running is killed, and the child and
    the connection are released."""
    import multiprocessing   # here: a run that never forks never loads it

    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    with ours:
        with theirs:
            process = context.Process(target=_run_child, args=(work, theirs, ours))
            process.start()
        child = _Child(process, ours, stage, what)
        try:
            yield child
        finally:
            child.close()


def _prefix_ends(n_samples: int, train_size: int, config: ExperimentConfig) -> range:
    """The strict-causal prefix ends of a period: each forecast block's start
    after the first (none under ``full_period``)."""
    horizon = config.model.horizon
    return (range(train_size + horizon, n_samples, horizon)
            if config.backtest.strict_causal else range(0))


@contextlib.contextmanager
def _prefix_decompositions(values: np.ndarray, ends: range, vmd_config):
    """Yield a callable that returns the strict-causal prefix decompositions
    :func:`_decompose_prefixes` gives for ``ends``.

    Where :func:`_forks_safely`, a child forked on entry decomposes them while
    the caller trains, and the callable waits for its results; otherwise the
    callable runs the same :func:`decompose` calls in-process.  Either way the
    results are the same arrays."""
    if not ends or not _forks_safely():
        yield lambda: _decompose_prefixes(values, ends, vmd_config)
        return
    with _forked_child("forecast", "prefix decomposition",
                       lambda link: _decompose_prefixes(values, ends, vmd_config)) as child:
        yield child.recv


def _forecast_stage(
    values: np.ndarray,
    modes: np.ndarray,   # [K, n]
    params: NormalizationParams,
    model: PatchForecaster,
    train_size: int,
    config: ExperimentConfig,
    prefixes,
    timing: dict,
) -> np.ndarray:
    """Forecast the test segment in horizon-sized blocks under the protocol
    ``config.backtest.strict_causal`` selects; returns the ``[K, n_test]``
    forecast at the raw scale.

    ``modes`` is the cell's own decomposition at the raw scale and ``params``
    its per-mode min-max fit (``[K, 1]`` arrays).  Each block's ``[K,
    lookback]`` window is the ``lookback`` samples before it.  ``full_period``
    takes every window from ``modes`` (true history).  ``strict_causal``
    takes each later block's window from a decomposition of the prefix
    observed before it, so no test-range sample enters a decomposition; the
    first block's prefix is the train segment, whose decomposition ``modes``
    already is.  ``prefixes`` returns the later blocks' decompositions,
    ``(VmdResult, seconds)`` each, in block order.  ``timing`` gets the
    seconds this call waited for them as ``prefix_wait_s``, their summed
    seconds (wherever they ran) as ``prefix_decompose_s`` and their VMD
    iterations as ``prefix_vmd_iterations``; any that stopped unconverged
    raise one warning.  All windows are scaled, predicted and inverted at
    once.
    """
    lookback = config.model.lookback
    starts = np.arange(train_size, values.shape[0], config.model.horizon)
    sources = [modes] * len(starts)
    if config.backtest.strict_causal:
        t_begin = time.perf_counter()
        decomposed = prefixes()
        timing.update(
            prefix_wait_s=time.perf_counter() - t_begin,
            prefix_decompose_s=sum(seconds for _, seconds in decomposed),
            prefix_vmd_iterations=sum(prefix.iterations for prefix, _ in decomposed),
        )
        unconverged = sum(not prefix.converged for prefix, _ in decomposed)
        if unconverged:
            warnings.warn(f"{unconverged} of {len(decomposed)} strict-causal prefix "
                          f"decompositions stopped unconverged at vmd.max_iter")
        sources[1:] = [prefix.modes for prefix, _ in decomposed]
    windows = [source[:, s - lookback: s] for source, s in zip(sources, starts)]
    # [blocks, K, lookback] scaled, fed as [blocks, lookback, K]
    preds = model.predict(minmax_apply(np.stack(windows), params).transpose(0, 2, 1))
    # [K, blocks, horizon] -> [K, n_test]: the last block may overrun the period
    preds = preds.reshape(modes.shape[0], -1)[:, : values.shape[0] - train_size]
    return minmax_invert(preds, params)


def _scored_forecast(values: np.ndarray, train_size: int, global_start: int, modes: np.ndarray,
                     channel_pred: np.ndarray, config: ExperimentConfig) -> dict:
    """The period's forecast, the sum of its ``[K, n_test]`` channel
    forecasts, scored against the raw prices; each mode is scored against its
    own test segment of ``modes`` except under ``strict_causal``.  The keys
    are :class:`PeriodCell` fields."""
    actual = values[train_size:]
    predicted = channel_pred.sum(axis=0)
    channel_actual = None if config.backtest.strict_causal else modes[:, train_size:]
    return {
        "test_index": np.arange(global_start + train_size, global_start + values.shape[0]),
        "actual": actual,
        "predicted": predicted,
        "overall": metric_pair(actual, predicted),
        "channel_actual": channel_actual,
        "channel_predicted": channel_pred,
        "per_channel": None if channel_actual is None else [
            metric_pair(a, p) for a, p in zip(channel_actual, channel_pred)
        ],
    }


def run_period(
    values: np.ndarray,
    train_size: int,
    config: ExperimentConfig,
    seed: int,
    period_index: int = 0,
    global_start: int = 0,
) -> PeriodCell:
    """Run the full per-period flow and score it against the raw prices."""
    return _run_period_full(values, train_size, config, seed, period_index, global_start)[0]


def _run_period_full(
    values: np.ndarray,
    train_size: int,
    config: ExperimentConfig,
    seed: int,
    period_index: int = 0,
    global_start: int = 0,
) -> tuple[PeriodCell, tuple]:
    """:func:`run_period`'s cell and ``(model, scale_weights, params)``.
    The warnings the cell raises are logged with its coordinates.  Under
    ``strict_causal`` the prefix decompositions start first, so that a
    forked child runs them while the cell decomposes and trains; a cell with
    none may fork a child that trains half of its channels."""
    t_begin = time.perf_counter()
    values = np.asarray(values, dtype=np.float64)
    lookback, horizon = config.model.lookback, config.model.horizon
    if train_size < lookback + horizon:
        raise PipelineStageError(
            "window", f"train portion ({train_size}) shorter than lookback+horizon "
                      f"({lookback}+{horizon})"
        )
    ends = _prefix_ends(values.shape[0], train_size, config)
    timing: dict = {}
    with (_prefix_decompositions(values, ends, config.vmd) as prefixes,
          _logged_warnings(period_index, seed)):
        with _stage("decompose", timing):
            vmd = decompose(values[:train_size] if config.backtest.strict_causal else values,
                            config.vmd)
        _warn_decomposition(vmd)
        with _stage("normalize", timing):
            # fit on each mode's train segment; the forecast stage reuses the fit
            params = minmax_fit(vmd.modes[:, :train_size])
            train_norm = minmax_apply(vmd.modes[:, :train_size], params)
        with _stage("train", timing):
            model, sw, weights_initial, weights_final, epoch_losses = _train_stage(
                train_norm, params.range[:, 0], config, seed, ends, timing)
        with _stage("forecast", timing):
            channel_pred = _forecast_stage(values, vmd.modes, params, model, train_size, config,
                                           prefixes, timing)
        scored = _scored_forecast(values, train_size, global_start, vmd.modes, channel_pred,
                                  config)
        with _stage("baselines", timing):
            baselines = _baseline_scores(values[:train_size], scored["actual"], config)

        cell = PeriodCell(
            period_index=period_index,
            seed=seed,
            train_size=train_size,
            decomposition_label=("strict_causal" if config.backtest.strict_causal
                                 else "full_period"),
            baselines=baselines,
            aswl_weights_initial=weights_initial,
            aswl_weights_final=weights_final,
            epoch_losses=epoch_losses,
            vmd=vmd,
            runtime_s=time.perf_counter() - t_begin,
            stage_timing=timing,
            **scored,
        )
        return cell, (model, sw, params)


# -- backtest across periods and seeds ---------------------------------------


def _run_cell(args) -> PeriodCell | FailedCell:
    values, split, config, seed = args
    try:
        return run_period(
            values[split.start: split.stop],
            split.train_size,
            config,
            seed,
            period_index=split.period_index,
            global_start=split.start,
        )
    except PipelineStageError as exc:
        return FailedCell(split.period_index, seed, exc.stage, str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        return FailedCell(split.period_index, seed, "unknown", str(exc))


def run_backtest(config: ExperimentConfig, outdir=None) -> ExperimentReport:
    """Every period x seed cell, aggregated; failures are recorded per cell and
    do not stop the remaining cells.  ``outdir`` (optional) receives forecast
    CSVs, decomposition CSVs, plot data, the report, and a manifest.  With
    ``backtest.workers > 1`` a pool of forked processes runs the cells, but
    only where :func:`_forks_safely`; elsewhere they run here, and one
    warning says so."""
    t_begin = time.perf_counter()
    values = load_series(config)
    splits = config_splits(config, len(values))
    jobs = [(values, split, config, seed) for split in splits for seed in config.training.seeds]

    workers = config.backtest.workers
    if workers > 1 and not _forks_safely():
        log.warning("backtest.workers=%d: running the cells one at a time, since this process "
                    "runs several threads (or is not on Linux) and a worker forked from it "
                    "could deadlock; OPENBLAS_NUM_THREADS=1 allows parallel cells", workers)
        workers = 1
    if workers > 1:
        # imported here: the pool's import pulls in multiprocessing, which a
        # one-worker run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, jobs))
    else:
        cells = [_run_cell(job) for job in jobs]

    report = ExperimentReport(
        config=config.to_dict(),
        splits=splits,
        cells=cells,
        total_runtime_s=time.perf_counter() - t_begin,
    )
    if outdir is not None:
        write_backtest_artifacts(report, outdir)
    return report


# -- artifact emission --------------------------------------------------------


def write_forecast_csv(path, t: np.ndarray, actual: np.ndarray, predicted: np.ndarray) -> None:
    """CSV with header ``t,actual,predicted``; one row per sample, in the
    bytes ``csv.writer`` writes for these rows (``repr`` of a float never
    needs quoting; rows end in CR LF)."""
    rows = zip(
        np.asarray(t).astype(np.int64).tolist(),
        np.asarray(actual, dtype=np.float64).tolist(),
        np.asarray(predicted, dtype=np.float64).tolist(),
    )
    lines = ["t,actual,predicted"]
    lines += [f"{ti},{a!r},{p!r}" for ti, a, p in rows]
    with Path(path).open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_cell_forecasts(outdir, test_index, actual, predicted, channel_actual,
                         channel_predicted) -> list[Path]:
    """Write a cell's ``forecast.csv`` and, when per-mode actuals exist, one
    ``imf{m}_forecast.csv`` per mode into ``outdir``; returns their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / "forecast.csv"]
    write_forecast_csv(paths[0], test_index, actual, predicted)
    if channel_actual is not None:
        for m, (mode_actual, mode_predicted) in enumerate(zip(channel_actual, channel_predicted)):
            paths.append(outdir / f"imf{m}_forecast.csv")
            write_forecast_csv(paths[-1], test_index, mode_actual, mode_predicted)
    return paths


def _cell_dict(cell: PeriodCell | FailedCell) -> dict:
    if not cell.ok:
        return {
            "period": cell.period_index,
            "seed": cell.seed,
            "ok": False,
            "stage": cell.stage,
            "message": cell.message,
        }
    return {
        "period": cell.period_index,
        "seed": cell.seed,
        "ok": True,
        "decomposition": cell.decomposition_label,
        "mse": cell.overall.mse,
        "smape": cell.overall.smape,
        "baselines": {
            name: {"mse": mp.mse, "smape": mp.smape} for name, mp in cell.baselines.items()
        },
        "per_channel": (
            None
            if cell.per_channel is None
            else [{"mse": mp.mse, "smape": mp.smape} for mp in cell.per_channel]
        ),
        "aswl": {
            "enabled": cell.aswl_weights_initial is not None,
            "weights_initial": cell.aswl_weights_initial,
            "weights_final": cell.aswl_weights_final,
        },
        "vmd": {
            "iterations": cell.vmd.iterations,
            "converged": cell.vmd.converged,
            "omegas": cell.vmd.omegas.tolist(),
        },
        "epoch_losses": cell.epoch_losses,
    }


def report_to_dict(report: ExperimentReport) -> dict:
    """Machine-readable report; deterministic (no wall-clock content)."""
    aggregate: dict = {"periods": {}}
    for split in report.splits:
        mean = report.period_mean(split.period_index)
        aggregate["periods"][str(split.period_index)] = (
            None if mean is None else {"mse": mean.mse, "smape": mean.smape}
        )
    overall = report.overall_mean()
    aggregate["overall"] = None if overall is None else {
        "mse": overall.mse, "smape": overall.smape,
    }
    return {
        "config": report.config,
        "splits": [
            {
                "period": s.period_index,
                "train": list(s.train),
                "test": list(s.test),
            }
            for s in report.splits
        ],
        "cells": [_cell_dict(c) for c in report.cells],
        "aggregate": aggregate,
        "n_failed": len(report.failed),
        "notes": [SMAPE_NOTE],
    }


def _fmt(x: float) -> str:
    return format(x, ".8g")


def _metric_text(pair: dict | None) -> str:
    if pair is None:
        return "no successful cells"
    return f"mse={_fmt(pair['mse'])} smape={_fmt(pair['smape'])}"


def render_report_text(doc: dict) -> str:
    """Human-readable report body rendered from :func:`report_to_dict`'s dict
    (or the ``report.json`` it was saved as).  Deterministic: no timestamps
    or runtimes (those live in timing.json)."""
    cfg_json = json.dumps(doc["config"], sort_keys=True)
    cfg_hash = hashlib.sha256(cfg_json.encode()).hexdigest()[:16]
    lines = [
        "# modecast backtest report",
        f"config_hash: {cfg_hash}",
        f"periods: {len(doc['splits'])}",
        f"seeds: {doc['config']['training']['seeds']}",
        "",
    ]
    for cell in doc["cells"]:
        title = f"## period {cell['period']} seed {cell['seed']}"
        if not cell["ok"]:
            lines += [f"{title}: FAILED", f"stage: {cell['stage']}",
                      f"message: {cell['message']}", ""]
            continue
        lines += [title, f"decomposition: {cell['decomposition']}",
                  f"overall: {_metric_text(cell)}"]
        for name in sorted(cell["baselines"]):
            lines.append(f"baseline {name}: {_metric_text(cell['baselines'][name])}")
        aswl = cell["aswl"]
        if aswl["enabled"]:
            lines.append(f"aswl weights initial: {' '.join(map(_fmt, aswl['weights_initial']))}")
            lines.append(f"aswl weights final:   {' '.join(map(_fmt, aswl['weights_final']))}")
        else:
            lines.append("aswl: off")
        vmd = cell["vmd"]
        lines.append(
            f"vmd: iterations={vmd['iterations']} converged={vmd['converged']} "
            f"omegas=[{' '.join(map(_fmt, vmd['omegas']))}]"
        )
        for m, pair in enumerate(cell["per_channel"] or []):
            lines.append(f"  imf{m}: {_metric_text(pair)}")
        lines.append("")
    lines.append("## aggregate")
    means = doc["aggregate"]["periods"]
    for split in doc["splits"]:
        period = split["period"]
        lines.append(f"period {period} mean: {_metric_text(means[str(period)])}")
    lines.append(f"overall mean: {_metric_text(doc['aggregate']['overall'])}")
    if doc["n_failed"]:
        lines.append(f"failed cells: {doc['n_failed']}")
    lines.append("")
    lines += [f"note: {note}" for note in doc["notes"]]
    lines.append("")
    return "\n".join(lines)


def write_manifest(outdir, config: dict, seeds, paths: list[Path]) -> None:
    """Config snapshot, seeds, and content hashes of every emitted artifact;
    enough to check a rerun reproduced byte-identical outputs.  A
    ``manifest.json`` already in ``outdir`` is overwritten, never read."""
    outdir = Path(outdir)
    manifest = {
        "config": config,
        "seeds": list(seeds),
        "artifacts": {
            str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(paths)
        },
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# what ``train`` writes into a run directory, and all that its manifest lists
TRAIN_ARTIFACTS = ("model.npz", "state.npz", "decomposition.csv", "decomposition_meta.json")


def run_dir_meta(outdir) -> dict | None:
    """The metadata of the ``state.npz`` in ``outdir``, or None when there is
    none: the config and seed of the ``train`` run that owns the directory."""
    path = Path(outdir) / "state.npz"
    return _load_state(path)[1] if path.is_file() else None


def run_forecasts(outdir, meta: dict) -> list[Path]:
    """The forecast CSVs in ``outdir`` that ``forecast`` writes for the run
    ``meta`` describes: ``forecast.csv`` and, under ``full_period``, one
    ``imf{m}_forecast.csv`` per mode."""
    outdir = Path(outdir)
    config = ExperimentConfig.from_dict(meta["config"])
    per_mode = 0 if config.backtest.strict_causal else config.vmd.n_modes
    names = ["forecast.csv", *(f"imf{m}_forecast.csv" for m in range(per_mode))]
    return [outdir / name for name in names if (outdir / name).is_file()]


def write_run_manifest(outdir, meta: dict, written: list[Path]) -> None:
    """Write the manifest of a directory ``forecast`` or ``evaluate`` wrote
    ``written`` into: those files and, where the directory holds a
    ``state.npz``, the :data:`TRAIN_ARTIFACTS` present, under the config and
    seed in ``meta`` (a ``state.npz``'s metadata).  Without a ``state.npz``
    no ``train`` wrote there, so a ``decompose`` output is not listed."""
    outdir = Path(outdir)
    trained = (outdir / "state.npz").is_file()
    present = [outdir / name for name in TRAIN_ARTIFACTS if trained and (outdir / name).is_file()]
    write_manifest(outdir, meta["config"], [meta["seed"]], present + list(written))


def write_backtest_artifacts(report: ExperimentReport, outdir) -> None:
    t_begin = time.perf_counter()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    emitted: list[Path] = []

    decomposition_written: set[int] = set()
    for cell in report.cells:
        if not cell.ok:
            continue
        period_dir = outdir / f"period{cell.period_index}"
        emitted += write_cell_forecasts(
            period_dir / f"seed{cell.seed}", cell.test_index, cell.actual, cell.predicted,
            cell.channel_actual, cell.channel_predicted,
        )
        if cell.period_index not in decomposition_written:
            decomp = period_dir / "decomposition.csv"
            write_decomposition_csv(decomp, cell.vmd.modes)
            emitted.append(decomp)
            decomposition_written.add(cell.period_index)

    doc = report_to_dict(report)
    report_txt = outdir / "report.txt"
    report_txt.write_text(render_report_text(doc))
    emitted.append(report_txt)

    report_json = outdir / "report.json"
    report_json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    emitted.append(report_json)

    timing = {
        "total_s": report.total_runtime_s,
        # the CSVs and reports above; timing.json and the manifest come after
        "artifacts_s": time.perf_counter() - t_begin,
        "cells": {
            f"period{c.period_index}_seed{c.seed}": c.runtime_s for c in report.succeeded
        },
        "stages": {
            f"period{c.period_index}_seed{c.seed}": c.stage_timing for c in report.succeeded
        },
    }
    (outdir / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")

    write_manifest(
        outdir,
        report.config,
        report.config.get("training", {}).get("seeds", []),
        emitted,
    )


# -- single-period persistence (train / forecast commands) --------------------

# what ``forecast`` reads from a ``state.npz``
_STATE_META = ("config", "seed", "decomposition")
_STATE_ARRAYS = ("values", "modes", "mins", "maxs", "train_size", "period_index", "global_start")


def _load_state(path) -> tuple[dict, dict, ExperimentConfig]:
    """A ``state.npz``'s arrays, metadata and saved config.  A checkpoint that
    lacks one of the arrays or metadata keys (a ``model.npz`` copied over it,
    say) raises :class:`CheckpointFormatError` naming the first missing key."""
    state, meta = load_checkpoint(path)
    for kind, keys, found in (("metadata key", _STATE_META, meta),
                              ("array", _STATE_ARRAYS, state)):
        missing = [key for key in keys if key not in found]
        if missing:
            raise CheckpointFormatError(
                f"{path}: not a trained run's state (missing {kind} {missing[0]!r})"
            )
    return state, meta, ExperimentConfig.from_dict(meta["config"])


def train_period_to_dir(
    config: ExperimentConfig, period_index: int, seed: int, outdir
) -> PeriodCell:
    """Train one (period, seed) cell and persist the model plus the state
    needed to forecast later: decomposition, normalization, weights, config.
    The manifest lists those four files, whatever else ``outdir`` holds."""
    values = load_series(config)
    split = config_period(config, len(values), period_index)
    slice_values = values[split.start: split.stop]
    cell, (model, sw, params) = _run_period_full(
        slice_values,
        split.train_size,
        config,
        seed,
        period_index=period_index,
        global_start=split.start,
    )

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        outdir / "model.npz",
        model.param_arrays(),
        meta={
            "model": config.model.to_dict(),
            "seed": seed,
            "epochs_trained": config.training.epochs,
        },
    )
    state = {
        "values": slice_values,
        "modes": cell.vmd.modes,
        "mins": params.min[:, 0],
        "maxs": params.max[:, 0],
        "theta": sw.theta.values if sw is not None else np.zeros(len(cell.vmd.modes)),
        "train_size": np.array(split.train_size),
        "period_index": np.array(period_index),
        "global_start": np.array(split.start),
    }
    save_checkpoint(
        outdir / "state.npz",
        state,
        meta={
            "config": config.to_dict(),
            "seed": seed,
            "decomposition": cell.decomposition_label,
        },
    )
    write_decomposition_csv(outdir / "decomposition.csv", cell.vmd.modes)
    write_decomposition_metadata(outdir / "decomposition_meta.json", config.vmd, cell.vmd)
    write_manifest(outdir, config.to_dict(), [seed], [outdir / name for name in TRAIN_ARTIFACTS])
    return cell


def forecast_from_dir(run_dir) -> dict:
    """Load a trained run directory (``state.npz`` and ``model.npz``) and
    produce the test-segment forecast, scored as a backtest cell is: the keys
    of :func:`_scored_forecast`, the protocol label as ``decomposition``, the
    saved config dict and the seed.  The warnings the forecast raises are
    logged with the cell's coordinates.  Strict-causal prefixes are
    decomposed in this process: a forked child would have nothing to run
    beside.

    Pure function of the persisted state: repeated calls are bit-identical.
    """
    run_dir = Path(run_dir)
    state, meta, config = _load_state(run_dir / "state.npz")
    values = state["values"]
    modes = state["modes"]
    train_size = int(np.asarray(state["train_size"]).reshape(-1)[0])
    period_index = int(np.asarray(state["period_index"]).reshape(-1)[0])
    global_start = int(np.asarray(state["global_start"]).reshape(-1)[0])
    params = NormalizationParams(min=state["mins"][:, None], max=state["maxs"][:, None])
    ends = _prefix_ends(values.shape[0], train_size, config)
    timing: dict = {}   # a lone forecast reports no timing
    with _logged_warnings(period_index, meta["seed"]):
        model = PatchForecaster(config.model, [np.random.default_rng(0)] * len(modes))
        model.load_param_arrays(load_checkpoint(run_dir / "model.npz")[0])
        with _stage("forecast", timing):
            channel_pred = _forecast_stage(
                values, modes, params, model, train_size, config,
                lambda: _decompose_prefixes(values, ends, config.vmd), timing,
            )
    return {
        **_scored_forecast(values, train_size, global_start, modes, channel_pred, config),
        "decomposition": meta["decomposition"],
        "config": meta["config"],
        "seed": meta["seed"],
    }
