"""Every setting of the toolkit, each declared once with its default.

``AppConfig`` is the ``--config`` file of ``annotate`` (``pipeline``) and
``validate`` (``rewards``); the ``grpo-step`` flags set ``GrpoConfig``. A
field commented "recipe value" is a training-recipe constant the artifact is
calibrated against; the other defaults are engineering choices.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .jsonl import finite_floats, read_document

# ``attn-report --last-k``: the final layers an allocation report sums over.
DEFAULT_ALLOCATION_WINDOW = 16


@dataclass(frozen=True)
class EmbedderEndpointConfig:
    """An HTTP endpoint; the bearer token is read from the environment
    variable ``auth_env``. The embedder sends only ``{model, input}``."""

    base_url: str = ""
    model: str = "probe-model"
    timeout: float = 30.0
    retries: int = 2
    auth_env: str = "SFFUSE_API_TOKEN"

    def __post_init__(self) -> None:
        if not self.retries >= 0:
            raise ValueError("retries must be >= 0")
        if not 0.0 < self.timeout < math.inf:  # NaN fails too
            raise ValueError("timeout must be finite and > 0")
        if self.timeout > threading.TIMEOUT_MAX:  # the longest wait a socket can take
            raise ValueError(f"timeout must be at most {threading.TIMEOUT_MAX:.0f} seconds")


@dataclass(frozen=True)
class EndpointConfig(EmbedderEndpointConfig):
    """The sampler's endpoint: the embedder's settings and a temperature."""

    temperature: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.temperature < math.inf:  # NaN fails too
            raise ValueError("temperature must be finite and >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    n: int = 8  # samples per (instance, setting); recipe value
    tau_acc: float = 0.75  # inclusive accuracy threshold; recipe value
    tau_cons: float = 0.8  # inclusive consistency threshold; recipe value
    parallelism: int = 1
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    embedder_endpoint: EmbedderEndpointConfig = field(default_factory=EmbedderEndpointConfig)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        for name in ("tau_acc", "tau_cons"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass(frozen=True)
class RewardConfig:
    """Stage-2 reward weights."""

    lambda_acc: float = 1.0  # answer-accuracy weight; recipe value
    lambda_mps: float = 0.2  # modality-preference & structure weight; recipe value

    def __post_init__(self) -> None:
        weights = (self.lambda_acc, self.lambda_mps)
        if not all(0.0 <= w < math.inf for w in weights):  # NaN fails too
            raise ValueError("reward weights must be nonnegative and finite")


@dataclass(frozen=True)
class GrpoConfig:
    clip_alpha: float = 0.2
    kl_beta: float = 0.01
    eps_stab: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_alpha < 1.0:
            raise ValueError("clip_alpha must lie in (0, 1)")
        if not 0.0 <= self.kl_beta < math.inf:  # NaN fails too
            raise ValueError("kl_beta must be nonnegative and finite")
        if not 0.0 < self.eps_stab < math.inf:  # NaN fails too
            raise ValueError("eps_stab must be positive and finite")


@dataclass(frozen=True)
class AppConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)


class ConfigError(ValueError):
    pass


# The test each scalar field type puts to its JSON value; nothing is coerced.
_SCALARS = {int: (lambda value: isinstance(value, int) and not isinstance(value, bool),
                  "an integer"),
            float: (lambda value: finite_floats([value]) is not None, "a finite number"),
            str: (lambda value: isinstance(value, str), "a string")}


def _build(cls, obj, name: str):
    """``cls`` from a JSON object whose scalars have their fields' JSON types
    and whose nested sections are built the same way."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object")
    kinds = get_type_hints(cls)
    values = {}
    for key, value in obj.items():
        kind, where = kinds.get(key), f"{name}.{key}"
        if kind is None:
            raise ConfigError(f"{where} is not a config field")
        if is_dataclass(kind):
            value = _build(kind, value, where)
        else:
            accepts, noun = _SCALARS[kind]
            if not accepts(value):
                raise ConfigError(f"{where} must be {noun}")
        values[key] = value
    try:
        return cls(**values)
    except ValueError as exc:  # a section's own check, e.g. retries >= 0
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(obj: object) -> AppConfig:
    """Build and validate an AppConfig from a parsed JSON document."""
    return _build(AppConfig, obj, "config")


def load_config(path: str | Path | None) -> AppConfig:
    """The JSON config file at ``path``; None yields the defaults above. A
    file that cannot be opened raises its OSError, and every other error is a
    ValueError that names ``path``: a ConfigError for a setting."""
    if path is None:
        return AppConfig()
    return read_document(path, config_from_dict)
