"""The span tracer in perfbench/tracing.py patches modecast by name; every
name it lists must still resolve, with the call shape it reads arguments by."""

import ast
import importlib
import inspect
from pathlib import Path

from modecast.autodiff import Tape

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
