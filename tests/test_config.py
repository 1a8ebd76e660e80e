import ast
import json
import threading
from pathlib import Path

import pytest

from sffuse import config
from sffuse.config import (
    DEFAULT_ALLOCATION_WINDOW,
    AppConfig,
    ConfigError,
    EndpointConfig,
    GrpoConfig,
    config_from_dict,
    load_config,
)


def test_defaults_are_the_documented_constants() -> None:
    cfg = AppConfig()
    assert cfg.pipeline.n == 8
    assert cfg.pipeline.tau_acc == 0.75
    assert cfg.pipeline.tau_cons == 0.8
    assert cfg.rewards.lambda_acc == 1.0
    assert cfg.rewards.lambda_mps == 0.2
    assert GrpoConfig().clip_alpha == 0.2
    assert GrpoConfig().eps_stab == 1e-8
    assert DEFAULT_ALLOCATION_WINDOW == 16


def test_load_none_gives_defaults() -> None:
    assert load_config(None) == AppConfig()


def test_load_nested_sections(tmp_path) -> None:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "pipeline": {"n": 4, "parallelism": 8,
                     "endpoint": {"base_url": "http://probe", "timeout": 5.0},
                     "embedder_endpoint": {"base_url": "http://embed"}},
        "rewards": {"lambda_mps": 0.5},
    }), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.pipeline.n == 4
    assert cfg.pipeline.parallelism == 8
    assert cfg.pipeline.endpoint.base_url == "http://probe"
    assert cfg.pipeline.endpoint.timeout == 5.0
    assert cfg.pipeline.embedder_endpoint.base_url == "http://embed"
    assert cfg.rewards.lambda_mps == 0.5


def test_unknown_section_rejected() -> None:
    with pytest.raises(ConfigError, match=r"^config\.optimizer is not a config field$"):
        config_from_dict({"optimizer": {}})


@pytest.mark.parametrize("section", ["grpo", "seed", "last_k"])
def test_unread_sections_rejected(section) -> None:
    # grpo-step takes its constants from flags, leakage its seed from --seed
    # and attn-report its window from --last-k, so a config file that sets
    # these is refused, not ignored.
    with pytest.raises(ConfigError, match=rf"^config\.{section} is not a config field$"):
        config_from_dict({section: {"clip_alpha": 0.1} if section == "grpo" else 7})


def test_invalid_values_rejected() -> None:
    with pytest.raises(ConfigError, match="tau_acc"):
        config_from_dict({"pipeline": {"tau_acc": 1.5}})
    with pytest.raises(ValueError, match="clip_alpha"):
        GrpoConfig(clip_alpha=2.0)
    with pytest.raises(ConfigError,
                       match=r"^config\.pipeline\.mystery_knob is not a config field$"):
        config_from_dict({"pipeline": {"mystery_knob": 1}})


@pytest.mark.parametrize("section", ["endpoint", "embedder_endpoint"])
@pytest.mark.parametrize("values, message", [
    ({"retries": -1}, "retries must be >= 0"),
    ({"timeout": 0}, "timeout must be finite and > 0"),
    ({"timeout": -1.5}, "timeout must be finite and > 0"),
    ({"timeout": 1e10}, f"timeout must be at most {threading.TIMEOUT_MAX:.0f} seconds"),
])
def test_endpoint_values_the_client_cannot_use_rejected(section, values, message) -> None:
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"pipeline": {section: values}})


@pytest.mark.parametrize("obj, line", [
    ({"pipeline": {"endpoint": {"retries": -1}}},
     "config.pipeline.endpoint: retries must be >= 0"),
    ({"pipeline": {"embedder_endpoint": {"retries": -1}}},
     "config.pipeline.embedder_endpoint: retries must be >= 0"),
    ({"pipeline": {"endpoint": {"temperature": -3}}},
     "config.pipeline.endpoint: temperature must be finite and >= 0"),
    ({"pipeline": {"tau_acc": 1.5}}, "config.pipeline: tau_acc must lie in (0, 1]"),
    ({"pipeline": {"endpoint": {"retry": 1}}},
     "config.pipeline.endpoint.retry is not a config field"),
    ({"rewards": {"lambda_x": 1}}, "config.rewards.lambda_x is not a config field"),
])
def test_section_check_errors_name_the_section(obj, line) -> None:
    with pytest.raises(ConfigError) as info:
        config_from_dict(obj)
    assert str(info.value) == line


@pytest.mark.parametrize("values, message", [
    ({"retries": -1}, "retries must be >= 0"),
    ({"retries": float("nan")}, "retries must be >= 0"),
    ({"timeout": 0.0}, "timeout must be finite and > 0"),
    ({"timeout": float("nan")}, "timeout must be finite and > 0"),
    ({"timeout": float("inf")}, "timeout must be finite and > 0"),
    ({"timeout": 1e10}, f"timeout must be at most {threading.TIMEOUT_MAX:.0f} seconds"),
    ({"temperature": -3}, "temperature must be finite and >= 0"),
    ({"temperature": float("nan")}, "temperature must be finite and >= 0"),
    ({"temperature": float("inf")}, "temperature must be finite and >= 0"),
])
def test_endpoint_config_rejects_values_the_client_cannot_use(values, message) -> None:
    with pytest.raises(ValueError, match=message):
        EndpointConfig(**values)
    assert EndpointConfig(retries=0, timeout=1e-3, temperature=0.0).retries == 0


@pytest.mark.parametrize("value", [1.0, 0.0, "hot", None])
def test_embedder_temperature_rejected_whatever_its_value(value) -> None:
    # The embedder sends only {model, input}; a temperature there changes nothing.
    with pytest.raises(ConfigError) as info:
        config_from_dict({"pipeline": {"embedder_endpoint": {"temperature": value}}})
    assert str(info.value) == (
        "config.pipeline.embedder_endpoint.temperature is not a config field")


def test_only_the_sampler_endpoint_has_a_temperature() -> None:
    cfg = AppConfig().pipeline
    assert not hasattr(cfg.embedder_endpoint, "temperature")
    assert cfg.endpoint.temperature == 1.0


def test_config_imports_no_domain_module() -> None:
    # The domain modules import their settings from config, never the reverse.
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    # ``from . import x`` has no module, so it would show here as None.
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"jsonl"}


def test_missing_or_invalid_file(tmp_path) -> None:
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="config must be an object"):
        load_config(array)


@pytest.mark.parametrize("obj, message", [
    ({"pipeline": {"n": 2.5}}, r"pipeline\.n must be an integer"),
    ({"pipeline": {"parallelism": True}}, r"pipeline\.parallelism must be an integer"),
    ({"pipeline": {"tau_acc": "0.9"}}, r"pipeline\.tau_acc must be a finite number"),
    ({"rewards": {"lambda_acc": float("nan")}}, r"rewards\.lambda_acc must be a finite number"),
    ({"pipeline": {"endpoint": {"base_url": 5}}},
     r"pipeline\.endpoint\.base_url must be a string"),
    ({"pipeline": {"embedder_endpoint": []}}, r"pipeline\.embedder_endpoint must be an object"),
    ({"rewards": [1]}, "rewards must be an object"),
])
def test_values_of_the_wrong_json_type_rejected(obj, message) -> None:
    with pytest.raises(ConfigError, match=message):
        config_from_dict(obj)


def test_integral_numbers_accepted_for_float_fields() -> None:
    assert config_from_dict({"rewards": {"lambda_acc": 2}}).rewards.lambda_acc == 2
