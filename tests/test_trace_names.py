"""The span tracer in perfbench/tracing.py patches modecast by name; every
name it lists must still resolve, with the call shape it reads arguments by."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

from modecast.autodiff import Adam, Tape

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_constants() -> dict:
    # parsed, not imported: the tracer module is read without executing it
    tree = ast.parse(TRACING.read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYER_FUNCTIONS", "TAPE_OPS"):
                found[name] = ast.literal_eval(node.value)
    return found


def test_every_traced_function_and_tape_op_resolves():
    constants = _tracing_constants()
    assert set(constants) == {"LAYER_FUNCTIONS", "TAPE_OPS"}
    for layer, functions in constants["LAYER_FUNCTIONS"].items():
        module = importlib.import_module(f"modecast.{layer}")
        for qual in functions:
            owner = module
            for part in qual.split("."):
                owner = getattr(owner, part, None)
                assert owner is not None, f"modecast.{layer}.{qual}"
            assert callable(owner), f"modecast.{layer}.{qual}"
    for op in constants["TAPE_OPS"]:
        assert callable(getattr(Tape, op, None)), f"Tape.{op}"


def test_traced_call_shapes():
    # the tracer reads these arguments by position or keyword
    from modecast.forecaster import PatchForecaster
    from modecast.pipeline import run_period
    from modecast.scale_weights import weights_on_tape

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(run_period)[:4] == ["values", "train_size", "config", "seed"]
    assert "period_index" in params(run_period)
    assert params(PatchForecaster.forward_on_tape)[:4] == ["self", "tape", "windows", "training"]
    assert params(PatchForecaster.predict)[:2] == ["self", "windows"]
    assert params(Tape.backward)[:1] == ["self"]
    assert params(weights_on_tape)[:2] == ["tape", "sw"]


def test_traced_tape_ops_against_one_aswl_training_step(monkeypatch):
    # the tracer times only the ops TAPE_OPS names; pin what a training step
    # records beyond them and what they name that no step records, so that an
    # op added to or dropped from the model shows here
    from modecast import scale_weights
    from modecast.forecaster import ForecasterConfig, PatchForecaster, train_epoch

    recorded = set()
    record = Tape._record

    def recording(self, inputs, out_values, backward):
        recorded.add(sys._getframe(1).f_code.co_name)
        return record(self, inputs, out_values, backward)

    monkeypatch.setattr(Tape, "_record", recording)
    cfg = ForecasterConfig(lookback=16, horizon=2, patch_len=4, stride=2, d_model=8,
                           n_heads=2, n_layers=1, d_ff=16)
    model = PatchForecaster(cfg, [np.random.default_rng(m) for m in range(2)])
    sw = scale_weights.init_from_scales(np.array([5.0, 0.5]))
    rng = np.random.default_rng(2)
    train_epoch(model, rng.normal(size=(4, 16, 2)), rng.normal(size=(4, 2, 2)),
                Adam(model.parameters() + [sw.theta]), 4, np.random.default_rng(3), sw)
    traced = set(_tracing_constants()["TAPE_OPS"])
    assert recorded - traced == {"astype", "attention"}
    assert traced - recorded == {"concat", "softmax"}
