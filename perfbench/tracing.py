"""Span tracing of modecast from outside the package.

While a :class:`Tracer` is installed, every public function of the traced
modules (and the autodiff ``Tape`` ops the model records) is replaced by a
wrapper that records a span: name, start, end, parent span and the
(period, seed) cell it ran in.  Wrappers only time and count; they call the
original with the same arguments, so a traced backtest computes exactly what
an untraced one does.  Spans stay in memory until :meth:`Tracer.write_chrome`
exports them as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass

# Layer -> public functions wrapped.  ``Class.method`` entries are patched on
# the class; plain names are patched in every modecast module that imported
# them, so ``from .vmd import decompose`` call sites are traced too.
LAYER_FUNCTIONS = {
    "vmd": ["decompose"],
    "forecaster": ["PatchForecaster.forward_on_tape", "PatchForecaster.predict"],
    "autodiff": ["Tape.backward", "Adam.step"],
    "scale_weights": ["weighted_loss", "weights_on_tape"],
    "series_io": [
        "load_csv", "split_periods", "make_windows",
        "minmax_fit", "minmax_apply", "minmax_invert",
    ],
    "baselines": ["baseline_naive", "baseline_linear_ar"],
    "metrics": ["metric_pair"],
    "pipeline": ["run_backtest", "run_period", "write_backtest_artifacts"],
}

# Tape ops the forecaster and the scale-weighted loss record.
TAPE_OPS = [
    "matmul", "add", "transpose", "softmax", "gelu", "batch_norm", "concat",
    "reshape", "mul", "mul_scalar", "mse", "exp", "div", "sum", "add_scalar",
]


@dataclass
class Span:
    name: str            # "<layer>.<function>", e.g. "vmd.decompose"
    start: float         # perf_counter seconds
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    cell: str | None     # "p<period>s<seed>" inside a backtest cell
    info: dict | None    # counts read off the call (iterations, rows, ...)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cell_of(args, kwargs) -> str:
    period = kwargs.get("period_index", 0)
    seed = kwargs.get("seed", args[3] if len(args) > 3 else None)
    return f"p{period}s{seed}"


def _info(name: str, args, kwargs, result) -> dict | None:
    """Counts that the per-layer metrics need, read from arguments/results."""
    if name == "vmd.decompose":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "forecaster.forward_on_tape":
        training = kwargs.get("training", args[3] if len(args) > 3 else False)
        return {"training": bool(training)}
    if name == "forecaster.predict":
        windows = args[1]
        return {"rows": 1 if windows.ndim == 1 else int(windows.shape[0])}
    if name == "autodiff.backward":
        return {"n_ops": args[0].n_ops}
    if name == "scale_weights.weights_on_tape":
        sw = args[1]
        return {"mass_err": abs(float(result.values.sum()) - sw.n_channels)}
    return None


class Tracer:
    """Collects spans while installed with :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._cell: str | None = None

    def _wrap(self, name: str, fn):
        tracer = self
        is_cell = name == "pipeline.run_period"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            outer_cell = tracer._cell
            if is_cell:
                tracer._cell = _cell_of(args, kwargs)
            span = Span(name, time.perf_counter(), 0.0, parent, tracer._cell, None)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._cell = outer_cell
            span.info = _info(name, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        import modecast.autodiff as autodiff

        modules = [m for n, m in sys.modules.items() if n.startswith("modecast") and m]
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, name: str) -> None:
            original = getattr(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

        for layer, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[f"modecast.{layer}"]
            for qual in functions:
                if "." in qual:
                    cls_name, method = qual.split(".")
                    patch(getattr(module, cls_name), method, f"{layer}.{method}")
                    continue
                original = getattr(module, qual)
                for mod in modules:
                    if getattr(mod, qual, None) is original:
                        patch(mod, qual, f"{layer}.{qual}")
        for op in TAPE_OPS:
            patch(autodiff.Tape, op, f"autodiff.op.{op}")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per traced backtest (see README.md)."""
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(name: str) -> list[Span]:
            return by_name.get(name, [])

        def total(name: str) -> float:
            return sum(s.duration for s in spans(name))

        def mean_ms(name: str) -> float:
            found = spans(name)
            return 1e3 * total(name) / len(found) if found else 0.0

        backtests = spans("pipeline.run_backtest")
        n_bt = len(backtests)
        bt_total = sum(s.duration for s in backtests)
        out: dict[str, tuple[float, str]] = {}

        vmd = spans("vmd.decompose")
        iterations = sum(s.info["iterations"] for s in vmd)
        converged = sum(s.info["converged"] for s in vmd)
        out["vmd.calls"] = (len(vmd) / n_bt, "count")
        out["vmd.call_ms"] = (mean_ms("vmd.decompose"), "ms")
        out["vmd.iterations"] = (iterations / len(vmd), "count")
        out["vmd.iter_ms"] = (1e3 * total("vmd.decompose") / iterations, "ms")
        out["vmd.converged_share"] = (converged / len(vmd), "share")
        out["vmd.unconverged_calls"] = ((len(vmd) - converged) / n_bt, "count")
        out["vmd.share"] = (total("vmd.decompose") / bt_total, "share")

        forwards = [s for s in spans("forecaster.forward_on_tape") if s.info["training"]]
        predicts = spans("forecaster.predict")
        rows = sum(s.info["rows"] for s in predicts)
        out["forecaster.forward_ms"] = (
            1e3 * sum(s.duration for s in forwards) / len(forwards), "ms")
        out["forecaster.predict_calls"] = (len(predicts) / n_bt, "count")
        out["forecaster.predict_rows"] = (rows / n_bt, "count")
        out["forecaster.predict_ms_per_row"] = (1e3 * total("forecaster.predict") / rows, "ms")

        steps = spans("autodiff.backward")
        out["autodiff.steps"] = (len(steps) / n_bt, "count")
        out["autodiff.ops_per_step"] = (
            sum(s.info["n_ops"] for s in steps) / len(steps), "count")
        out["autodiff.backward_ms"] = (mean_ms("autodiff.backward"), "ms")
        out["autodiff.adam_ms"] = (mean_ms("autodiff.step"), "ms")
        for op in TAPE_OPS:
            name = f"autodiff.op.{op}"
            out[f"{name}.calls"] = (len(spans(name)) / n_bt, "count")
            out[f"{name}.fwd_ms"] = (1e3 * total(name) / n_bt, "ms")

        out["scale_weights.loss_ms"] = (mean_ms("scale_weights.weighted_loss"), "ms")
        out["scale_weights.mass_err"] = (
            max((s.info["mass_err"] for s in spans("scale_weights.weights_on_tape")),
                default=0.0),
            "weight",
        )

        out["series_io.load_csv_s"] = (mean_ms("series_io.load_csv") / 1e3, "s")
        out["series_io.windows_s"] = (total("series_io.make_windows") / n_bt, "s")
        minmax = sum(len(spans(f"series_io.minmax_{f}")) for f in ("fit", "apply", "invert"))
        out["series_io.minmax_calls"] = (minmax / n_bt, "count")

        out["baselines.naive_ms"] = (mean_ms("baselines.baseline_naive"), "ms")
        out["baselines.linear_ar_ms"] = (mean_ms("baselines.baseline_linear_ar"), "ms")
        out["metrics.calls"] = (len(spans("metrics.metric_pair")) / n_bt, "count")
        out["metrics.ms"] = (1e3 * total("metrics.metric_pair") / n_bt, "ms")

        own = self._own_times()
        pipeline_self = sum(
            own[i] for i, s in enumerate(self.spans)
            if s.name in ("pipeline.run_backtest", "pipeline.run_period")
        )
        out["pipeline.artifacts_s"] = (total("pipeline.write_backtest_artifacts") / n_bt, "s")
        out["pipeline.self_s"] = (pipeline_self / n_bt, "s")

        for stage, seconds in self._stages().items():
            out[f"stage.{stage}_s"] = (seconds / n_bt, "s")
        out["stage.artifacts_s"] = out["pipeline.artifacts_s"]
        return out

    def _own_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def _stages(self) -> dict[str, float]:
        """The pipeline stage split, derived from the spans inside each cell.

        decompose: the cell's first VMD call.  train: from the first
        ``make_windows`` to the end of the last Adam step.  forecast: from
        the first ``predict`` or VMD call after training to the last one, so
        strict-causal prefix decompositions count here.  baselines: the
        baseline calls.
        """
        totals = {"decompose": 0.0, "train": 0.0, "forecast": 0.0, "baselines": 0.0}
        for c, cell in enumerate(self.spans):
            if cell.name != "pipeline.run_period":
                continue
            inside = []
            for s in self.spans[c + 1:]:
                if s.start > cell.end:
                    break
                inside.append(s)
            vmd = [s for s in inside if s.name == "vmd.decompose"]
            windows = [s for s in inside if s.name == "series_io.make_windows"]
            steps = [s for s in inside if s.name == "autodiff.step"]
            train_end = steps[-1].end
            late = [
                s for s in inside
                if s.start >= train_end and s.name in ("vmd.decompose", "forecaster.predict")
            ]
            totals["decompose"] += vmd[0].duration
            totals["train"] += train_end - windows[0].start
            totals["forecast"] += late[-1].end - late[0].start
            totals["baselines"] += sum(s.duration for s in inside if s.layer == "baselines")
        return totals

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, minus child spans."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self._own_times()):
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    # -- export ------------------------------------------------------------

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds) of the
        first traced backtest; later backtests repeat its structure."""
        starts = [i for i, s in enumerate(self.spans) if s.name == "pipeline.run_backtest"]
        first = self.spans[: starts[1] if len(starts) > 1 else len(self.spans)]
        t0 = first[0].start if first else 0.0
        events = []
        for i, s in enumerate(first):
            args = {"id": i, "parent": s.parent, "cell": s.cell}
            if s.info:
                args.update(s.info)
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))
