"""Run configuration files: model fields plus training fields, as JSON.

Unknown keys are rejected, every field has a documented default, and
parse -> emit -> parse is the identity.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .network import ModelConfig, check_field_types, config_from_dict

__all__ = ["RunConfig", "TRAIN_FIELDS", "parse_config", "emit_config", "load_config_file"]


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    epochs: int = 10
    batch_size: int = 32
    lr: float = 5e-5

    def __post_init__(self):
        check_field_types(self)
        self.validate()

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be non-negative and finite, got {self.lr}")


# every field of a run config but its model, in declaration order
TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "model")


def parse_config(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    model = config_from_dict({k: v for k, v in data.items() if k not in TRAIN_FIELDS})
    return RunConfig(model=model, **{k: data[k] for k in TRAIN_FIELDS if k in data})


def emit_config(config: RunConfig) -> str:
    """Canonical textual form; stable field order and formatting."""
    payload = dataclasses.asdict(config.model)
    payload.update((name, getattr(config, name)) for name in TRAIN_FIELDS)
    return json.dumps(payload, indent=2) + "\n"


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
