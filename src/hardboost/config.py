"""Run configuration files (strict-keyed JSON)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .data import ClassSplit, ConfigError
from .models import ClassifierConfig

METRICS = ("cf", "pncf")  # the frequency metrics, the only ones harst takes
BASE_MODELS = ("embedding", "generative")
SELECTIONS = ("cfbs", "rs")  # "rs" is the size-matched random baseline
LABEL_SPACES = ("unseen", "all")  # "all" is the compound generalized setting

# config-file keys of the fields whose file key is not the field name
_FILE_KEYS = {"hard_count": "K", "iterations": "T", "support_count": "S", "n_unseen": "N_u"}
_CHOICES = {
    "metric": ("ss", *METRICS),
    "base_model": BASE_MODELS,
    "selection": SELECTIONS,
    "label_space": LABEL_SPACES,
}
# JSON values each field annotation accepts; bools are never numbers here
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    """Every pipeline knob, as read from a config file; each pipeline reads
    the fields it needs, and every field is checked whatever the pipeline."""

    hard_count: int = 2  # K, hard classes per identification
    iterations: int = 6  # T, harst self-training iterations
    alpha: float = 2.0  # interpolated rows per support training sample
    beta: float = 2.0  # hard-class oversampling factor for generated rows
    support_count: int = 2  # S, support seen classes per hard class
    # N_u, generated rows per easy unseen class (hars), or per class for the
    # generative base (harst)
    n_unseen: int = 300
    seed: int = 0
    metric: str = "ss"  # "ss" or one of METRICS; harst takes only METRICS
    base_model: str = "generative"  # harst's base, one of BASE_MODELS
    selection: str = "cfbs"  # one of SELECTIONS
    label_space: str = "unseen"  # one of LABEL_SPACES
    ridge: float = 0.1
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        # iterations, then hard_count, first: sweeps record the first failure
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.hard_count < 1:
            raise ConfigError("hard_count must be >= 1")
        if self.support_count < 1:
            raise ConfigError("support_count must be >= 1")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.beta < 1:
            raise ConfigError("beta must be >= 1")
        if self.n_unseen < 1:
            raise ConfigError("n_unseen must be >= 1")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {sorted(choices)}")
        if self.classifier.seed != 0:
            raise ConfigError(
                "classifier.seed must be 0: each classifier's seed derives from seed"
            )

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_json_dict(self) -> dict:
        obj = {_FILE_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        obj["classifier"] = asdict(self.classifier)
        return obj

    def digest(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def require_frequency_metric(config: RunConfig) -> None:
    """The one pipeline-specific rule: harst identifies hard classes by
    prediction frequency, so it rejects the semantic metric ``ss``."""
    if config.metric not in METRICS:
        raise ConfigError(f"harst takes metric {' or '.join(METRICS)}, not {config.metric!r}")


def require_hard_count_within(config: RunConfig, split: ClassSplit) -> None:
    """Both pipelines pick ``hard_count`` hard classes among the unseen ones."""
    if config.hard_count > split.num_unseen:
        raise ValueError(
            f"hard_count {config.hard_count} exceeds {split.num_unseen} unseen classes"
        )


def _checked(key: str, value, kind: str, source: str):
    """``value`` for a field annotated ``kind``; any other JSON type is an error."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(f"{source}: {key} must be of type {kind}, got {value!r}")
    return float(value) if kind == "float" else value


def _fields_by_key(cls) -> dict:
    """Config-file key -> field of dataclass ``cls``."""
    return {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}


def _field_args(cls, obj: dict, source: str, prefix: str = "") -> dict:
    """Constructor arguments of dataclass ``cls`` from the file object ``obj``;
    absent keys keep their defaults."""
    by_key = _fields_by_key(cls)
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
    clf_args = _field_args(ClassifierConfig, clf_obj, source, "classifier.")
    try:
        classifier = ClassifierConfig(**clf_args)
    except ValueError as exc:  # a value of the right type but out of range
        raise ConfigError(f"{source}: classifier.{exc}") from None
    try:
        return RunConfig(**top, classifier=classifier)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def read_json(path):
    """The JSON value in the file at ``path``; bad JSON is a :class:`ConfigError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_run_config(path) -> RunConfig:
    return parse_run_config(read_json(path), source=str(path))
