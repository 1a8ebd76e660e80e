"""Application configuration: the ``--config`` file of ``annotate`` (the
``pipeline`` section) and ``validate`` (the ``rewards`` section).

Values marked "fixed by the training recipe" are the constants the whole
artifact is calibrated against; the rest are declared engineering defaults.

  pipeline.n            = 8     samples per (instance, setting); recipe value
  pipeline.tau_acc      = 0.75  inclusive accuracy threshold; recipe value
  pipeline.tau_cons     = 0.8   inclusive consistency threshold; recipe value
  rewards.lambda_acc    = 1.0   stage-2 answer-accuracy weight; recipe value
  rewards.lambda_mps    = 0.2   stage-2 structure-reward weight; recipe value

``attn-report`` takes its layer window from ``--last-k``, whose default is
``attention_core.DEFAULT_ALLOCATION_WINDOW``. The GRPO defaults live in
``rl_core.GrpoConfig`` and are set per run with the ``grpo-step`` flags; the
leakage probe takes its seed from ``--seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .jsonl import read_document
from .pem_pipeline import EndpointConfig, PipelineConfig
from .rl_core import RewardConfig


@dataclass(frozen=True)
class AppConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)


class ConfigError(ValueError):
    pass


# JSON types accepted for each field type; nothing is coerced.
_SCALARS = {"int": ((int,), "an integer"), "float": ((int, float), "a finite number"),
            "str": ((str,), "a string")}
_SECTIONS = {"PipelineConfig": PipelineConfig, "RewardConfig": RewardConfig,
             "EndpointConfig": EndpointConfig}


def _build(cls, obj, name: str):
    """``cls`` from a JSON object whose scalars have their fields' JSON types
    and whose nested sections are built the same way."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object")
    kinds = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in obj.items():
        kind, where = kinds.get(key), f"{name}.{key}"
        if kind in _SECTIONS:
            value = _build(_SECTIONS[kind], value, where)
        elif kind in _SCALARS:
            accepted, noun = _SCALARS[kind]
            if (isinstance(value, bool) or not isinstance(value, accepted)
                    or isinstance(value, float) and not math.isfinite(value)):
                raise ConfigError(f"{where} must be {noun}")
        values[key] = value
    try:
        return cls(**values)  # an unknown field is a TypeError naming it
    except ValueError as exc:  # a section's own check, e.g. retries >= 0
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(obj: object) -> AppConfig:
    """Build and validate an AppConfig from a parsed JSON document."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    unknown = set(obj) - {f.name for f in fields(AppConfig)}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    try:
        return _build(AppConfig, obj, "config")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path | None) -> AppConfig:
    """Load a JSON config file; None yields the documented defaults. Every
    error is a ConfigError that names ``path``."""
    if path is None:
        return AppConfig()
    try:
        return read_document(path, config_from_dict, "not valid JSON")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a decode error, or one config_from_dict raised
        raise ConfigError(str(exc)) from exc
