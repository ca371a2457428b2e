"""Run configuration files (strict-keyed JSON)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .data import ConfigError
from .hars import HarsConfig
from .harst import BASE_MODELS, LABEL_SPACES, METRICS, SELECTIONS, HarstConfig
from .models import ClassifierConfig

# config-file keys of the fields whose file key is not the field name
_FILE_KEYS = {"hard_count": "K", "iterations": "T", "support_count": "S", "n_unseen": "N_u"}
_CHOICES = {
    "metric": {"ss", *METRICS},
    "base_model": set(BASE_MODELS),
    "selection": set(SELECTIONS),
    "label_space": set(LABEL_SPACES),
}
# JSON values each field annotation accepts; bools are never numbers here
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    """Union of every pipeline knob, as read from a config file."""

    hard_count: int = 2
    iterations: int = 6
    alpha: float = 2.0
    beta: float = 2.0
    support_count: int = 2
    n_unseen: int = 300
    seed: int = 0
    metric: str = "ss"
    base_model: str = "generative"
    selection: str = "cfbs"
    label_space: str = "unseen"
    ridge: float = 0.1
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_json_dict(self) -> dict:
        obj = {_FILE_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        obj["classifier"] = asdict(self.classifier)
        return obj

    def digest(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def hars(self) -> HarsConfig:
        return HarsConfig(
            hard_count=self.hard_count,
            support_count=self.support_count,
            alpha=self.alpha,
            beta=self.beta,
            n_unseen=self.n_unseen,
            seed=self.seed,
            ridge=self.ridge,
            classifier=self.classifier,
        )

    def harst(self) -> HarstConfig:
        if self.metric not in METRICS:
            raise ConfigError(f"harst takes metric {' or '.join(METRICS)}, not {self.metric!r}")
        return HarstConfig(
            iterations=self.iterations,
            hard_count=self.hard_count,
            metric=self.metric,
            base=self.base_model,
            selection=self.selection,
            label_space=self.label_space,
            n_unseen=self.n_unseen,
            seed=self.seed,
            ridge=self.ridge,
            classifier=self.classifier,
        )


def _checked(key: str, value, kind: str, source: str):
    """``value`` for a field annotated ``kind``; any other JSON type is an error."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(f"{source}: {key} must be of type {kind}, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{source}: {key} must be one of {sorted(_CHOICES[key])}")
    return float(value) if kind == "float" else value


def _field_args(cls, obj: dict, source: str, prefix: str = "") -> dict:
    """Constructor arguments of dataclass ``cls`` from the file object ``obj``;
    absent keys keep their defaults."""
    by_key = {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(obj) - set(by_key))
    if unknown:
        raise ConfigError(f"{source}: unknown key {prefix + unknown[0]!r}")
    return {
        by_key[key].name: _checked(prefix + key, value, by_key[key].type, source)
        for key, value in obj.items()
    }


def parse_run_config(obj: dict, source: str = "config") -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    top = _field_args(RunConfig, {k: v for k, v in obj.items() if k != "classifier"}, source)
    clf_obj = obj.get("classifier", {})
    if not isinstance(clf_obj, dict):
        raise ConfigError(f"{source}: classifier must be an object")
    classifier = ClassifierConfig(**_field_args(ClassifierConfig, clf_obj, source, "classifier."))
    return RunConfig(**top, classifier=classifier)


def load_run_config(path) -> RunConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_run_config(obj, source=str(path))
