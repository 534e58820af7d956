"""Config parsing, validation, and dotted overrides."""

import json
from pathlib import Path

import pytest
import yaml

from modecast.config import ConfigError, ExperimentConfig, apply_overrides, load_config

BASE = {
    "data": {"generator": {"name": "trend_two_tone", "n": 600, "seed": 1}},
    "vmd": {"n_modes": 2},
}


def test_defaults_fill_in():
    cfg = ExperimentConfig.from_dict(BASE)
    assert cfg.vmd.alpha == 2000.0
    assert cfg.model.lookback == 96
    assert cfg.training.epochs == 20
    assert cfg.training.batch_size == 32
    assert cfg.aswl.enabled is True
    assert cfg.split.n_periods == 5


def test_requires_exactly_one_data_source():
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict({"data": {"path": "x.csv", "generator": {"name": "two_tone"}}})
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict({"data": {}})


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match="sections"):
        ExperimentConfig.from_dict({**BASE, "extra": {}})
    with pytest.raises(ConfigError, match="vmd"):
        ExperimentConfig.from_dict({"data": BASE["data"], "vmd": {"modes": 3}})


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({
        "data": {"generator": {"name": "two_tone", "n": 500}},
        "vmd": {"n_modes": 2, "alpha": 500.0},
        "training": {"epochs": 3, "seeds": [1, 2]},
    }))
    cfg = load_config(path)
    assert cfg.vmd.alpha == 500.0
    assert cfg.training.seeds == (1, 2)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_overrides_coerce_types():
    cfg = ExperimentConfig.from_dict(BASE)
    out = apply_overrides(cfg, [
        "vmd.alpha=750",
        "training.epochs=3",
        "aswl.enabled=false",
        "training.seeds=[5, 6]",
        "aswl.init=uniform",
        "data.generator={name: trend_two_tone, n: 700}",
    ])
    assert out.vmd.alpha == 750.0
    assert out.training.epochs == 3
    assert out.aswl.enabled is False
    assert out.training.seeds == (5, 6)
    assert out.aswl.init == "uniform"
    assert out.data.generator == {"name": "trend_two_tone", "n": 700}
    for bad in ("data.generator=trend_two_tone", "data.generator=[1, 2]", "training.epochs=abc"):
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [bad])


def test_overrides_must_reference_existing_keys():
    cfg = ExperimentConfig.from_dict(BASE)
    with pytest.raises(ConfigError, match="no such config key"):
        apply_overrides(cfg, ["vmd.bogus=1"])
    with pytest.raises(ConfigError, match="KEY=VALUE|section.key"):
        apply_overrides(cfg, ["vmd.alpha"])


def test_invalid_values_rejected_through_overrides():
    cfg = ExperimentConfig.from_dict(BASE)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["vmd.alpha=-5"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["aswl.init=bogus"])
    for bad in (
        "split.train_fraction=1.5",
        "split.train_fraction=0",
        "split.n_periods=0",
        "training.learning_rate=-1",
        "training.learning_rate=nan",
        "baselines.ar_order=0",
    ):
        with pytest.raises(ConfigError, match=bad.split("=")[0].split(".")[1]):
            apply_overrides(cfg, [bad])


@pytest.mark.parametrize("key", ["alpha", "tau", "tol"])
def test_non_finite_vmd_settings_rejected(tmp_path, key):
    # a NaN tol never lets a decomposition stop, an infinite one stops every
    # decomposition after its second sweep, and a NaN alpha or tau surfaces
    # only mid-run: each must fail at load, through YAML and through -o
    cfg = ExperimentConfig.from_dict(BASE)
    for text in ("nan", "inf"):
        path = tmp_path / f"{key}_{text}.yaml"
        path.write_text(
            f"data: {{generator: {{name: two_tone}}}}\nvmd: {{n_modes: 2, {key}: .{text}}}\n"
        )
        with pytest.raises(ConfigError, match=f"{key} must be"):
            load_config(path)
        with pytest.raises(ConfigError, match=f"{key} must be"):
            apply_overrides(cfg, [f"vmd.{key}={text}"])


INT_KEYS = [
    ("vmd", "n_modes"), ("vmd", "max_iter"),
    ("model", "lookback"), ("model", "horizon"), ("model", "patch_len"),
    ("model", "stride"), ("model", "d_model"), ("model", "n_heads"),
    ("model", "n_layers"), ("model", "d_ff"), ("split", "n_periods"),
    ("training", "epochs"), ("training", "batch_size"),
    ("baselines", "ar_order"), ("backtest", "workers"),
]


@pytest.mark.parametrize("section, key", INT_KEYS)
@pytest.mark.parametrize("value", [4.0, True])
def test_integer_keys_reject_floats_and_bools(tmp_path, section, key, value):
    # a float or boolean count would load and then fail every cell at run
    # time; a whole section set with -o reaches the same check as a YAML file
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**BASE, section: {**BASE.get(section, {}), key: value}}))
    with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
        load_config(path)
    cfg = ExperimentConfig.from_dict(BASE)
    with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
        apply_overrides(cfg, [f"{section}={{{key}: {str(value).lower()}}}"])


FLOAT_KEYS = [
    ("vmd", "alpha"), ("vmd", "tau"), ("vmd", "tol"),
    ("training", "learning_rate"), ("split", "train_fraction"),
]


@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_float_keys_take_numbers_only(tmp_path, section, key):
    # YAML reads an exponent without a dot (1e-3) as a string, which used to
    # fail later with a comparison error that named no key
    path = tmp_path / "cfg.yaml"

    def load(text):
        path.write_text(f"data: {{generator: {{name: two_tone}}}}\n{section}: {{{key}: {text}}}\n")
        return load_config(path)

    with pytest.raises(ConfigError, match=f"{section}.{key} must be a number, got '1e-3'"):
        load("1e-3")
    for value in (True, "0.5"):
        with pytest.raises(ConfigError, match=f"{section}.{key} must be a number"):
            ExperimentConfig.from_dict({**BASE, section: {key: value}})
    # 1.0e-3, with a dot, is a YAML float, and an integer is a number too
    for text, want in (("1.0e-3", 0.001), ("1", 1)):
        if key == "train_fraction" and want == 1:
            continue   # no integer lies strictly between 0 and 1
        assert getattr(getattr(load(text), section), key) == want


def test_float_keys_save_integers_as_floats():
    # vmd: {alpha: 2000} and {alpha: 2000.0} are one experiment: they must
    # save the same JSON, and so give report.txt the same config_hash
    for section, key in FLOAT_KEYS:
        if key == "train_fraction":
            continue   # no integer lies strictly between 0 and 1
        saved = [
            json.dumps(ExperimentConfig.from_dict({**BASE, section: {key: value}}).to_dict())
            for value in (2, 2.0)
        ]
        assert saved[0] == saved[1], (section, key)
    with pytest.raises(ConfigError, match="vmd.alpha is too large for a float"):
        ExperimentConfig.from_dict({**BASE, "vmd": {"n_modes": 2, "alpha": 10**400}})


BOOL_KEYS = [
    ("aswl", "enabled"), ("aswl", "train_theta"), ("backtest", "strict_causal"),
]


@pytest.mark.parametrize("section, key", BOOL_KEYS)
@pytest.mark.parametrize("value", ["false", "no", 0, 1])
def test_boolean_keys_reject_strings_and_numbers(tmp_path, section, key, value):
    # a quoted "false" loaded as a true string: strict_causal: "false" ran the
    # backtest strict-causal and enabled: "no" kept ASWL on
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**BASE, section: {**BASE.get(section, {}), key: value}}))
    with pytest.raises(ConfigError, match=f"{section}.{key} must be true or false"):
        load_config(path)
    with pytest.raises(ConfigError, match=f"{section}.{key} must be true or false"):
        ExperimentConfig.from_dict({**BASE, section: {key: value}})


@pytest.mark.parametrize("section, key", BOOL_KEYS)
def test_boolean_keys_take_yaml_booleans_and_override_words(tmp_path, section, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**BASE, section: {**BASE.get(section, {}), key: False}}))
    assert getattr(getattr(load_config(path), section), key) is False
    cfg = ExperimentConfig.from_dict(BASE)
    for text, want in (("false", False), ("true", True), ("off", False)):
        got = apply_overrides(cfg, [f"{section}.{key}={text}"])
        assert getattr(getattr(got, section), key) is want


def test_boolean_seed_rejected():
    # true is an int to Python: it would run as seed 1 under a "seedTrue" label
    with pytest.raises(ConfigError, match="seeds must be"):
        ExperimentConfig.from_dict({**BASE, "training": {"seeds": [0, True]}})


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")),
    ids=lambda path: path.name,
)
def test_bundled_configs_load(path):
    # a bundled config that still held a removed key would fail only when run
    assert isinstance(load_config(path), ExperimentConfig)
