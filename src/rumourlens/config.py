"""Run configuration: flat key=value config files, environment overrides
(RUMOURLENS_<KEY>), then command-line flags, in increasing precedence.
The resolved configuration is validated up front; the ingest stage
persists it into the run directory as run_config.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, ParseError
from .textprep import open_utf8

ENV_PREFIX = "RUMOURLENS_"


@dataclass
class RunConfig:
    # data
    dataset: str = ""
    dataset_format: str = "pheme"  # pheme | jsonl
    lexicon: str = ""  # empty: bundled demo lexicon
    sentic_table: str = ""  # empty: bundled demo table
    stopwords_path: str = ""
    easy_words_path: str = ""
    lemma_exceptions_path: str = ""
    # emotions
    emotion_provider: str = "fallback"  # remote | fallback | cassette | none
    emotion_url: str = ""
    emotion_cassette: str = ""
    emotion_lexicon_path: str = ""
    emotion_timeout: float = 10.0
    emotion_retries: int = 2
    emotion_batch_size: int = 32
    emotion_parallel: int = 4
    # statistics
    alpha: float = 0.05
    # classification
    split_ratio: float = 0.8
    k_folds: int = 10
    averaging: str = "weighted"  # weighted | macro | binary
    n_trees: int = 100
    max_features: str = "sqrt"  # sqrt | all
    min_samples_split: int = 2
    max_depth: int = 0  # 0: unlimited
    # explanation
    shap_background: int = 256
    # run
    seed: int = 42
    threads: int = 0  # accepted and validated; trees are built serially
    out_dir: str = "out"
    run_id: str = ""  # empty: run-<seed>
    scope: str = "both"  # sources | reactions | both

    def resolved_run_id(self) -> str:
        return self.run_id or f"run-{self.seed}"

    def run_dir(self) -> Path:
        return Path(self.out_dir) / self.resolved_run_id()


# each key's type, that of its default
_KINDS = {f.name: type(f.default) for f in fields(RunConfig)}


def _coerce(name: str, raw: str, **where):
    """`raw` as key `name`'s type; a ConfigError names `where` it came
    from (`line`, `path`) otherwise."""
    kind = _KINDS[name]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}", **where) from exc


class FileValues(dict):
    """A config file's values by key; `.where[key]` names its file and line."""


def parse_config_file(path) -> FileValues:
    """`key = value` per line; blank lines and '#' comments ignored. The
    values stay strings, each checked against its key's type; an unknown
    key, a value of the wrong type and a key set twice are refused,
    naming the file and the line."""
    try:
        with open_utf8(path) as fh:
            lines = fh.readlines()
    except ParseError as exc:
        error = ConfigError(str(exc))
        error.line = exc.line
        raise error from exc
    values = FileValues()
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno, path=path)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _KINDS:
            raise ConfigError(f"unknown config key {key!r}", line=lineno, path=path)
        if key in set_on:
            raise ConfigError(f"key {key!r} set again, first on line {set_on[key]}", line=lineno, path=path)
        _coerce(key, value, line=lineno, path=path)
        values[key], set_on[key] = value, lineno
    values.where = {key: {"line": lineno, "path": path} for key, lineno in set_on.items()}
    return values


def build_config(
    file_values: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    env = os.environ if env is None else env
    merged: dict = {}  # key -> (raw value, where it came from)
    for key, raw in (file_values or {}).items():
        if key not in _KINDS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = raw, getattr(file_values, "where", {}).get(key, {})
    for key in _KINDS:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            merged[key] = env[env_key], {"path": env_key}  # the message starts with the variable
    cfg = RunConfig(**{key: _coerce(key, raw, **where) for key, (raw, where) in merged.items()})
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
            merged.pop(key, None)  # a flag's value keeps the plain message
    validate_config(cfg, {key: where for key, (_, where) in merged.items()})
    return cfg


def validate_config(cfg: RunConfig, where: dict[str, dict] | None = None) -> None:
    """ConfigError for a bad value, naming `where[key]`: its file and line, or variable."""

    def expect(key: str, cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message, **(where or {}).get(key, {}))

    expect("dataset", cfg.dataset != "", "dataset path is required")
    expect("dataset_format", cfg.dataset_format in ("pheme", "jsonl"),
           f"dataset_format must be pheme|jsonl, got {cfg.dataset_format!r}")
    expect("emotion_provider", cfg.emotion_provider in ("remote", "fallback", "cassette", "none"),
           f"emotion_provider must be remote|fallback|cassette|none, got {cfg.emotion_provider!r}")
    if cfg.emotion_provider == "remote":
        expect("emotion_provider", cfg.emotion_url != "", "emotion_provider=remote requires emotion_url")
    if cfg.emotion_provider == "cassette":
        expect("emotion_provider", cfg.emotion_cassette != "", "emotion_provider=cassette requires emotion_cassette")
    expect("emotion_timeout", cfg.emotion_timeout > 0.0, f"emotion_timeout must be > 0, got {cfg.emotion_timeout}")
    expect("emotion_retries", cfg.emotion_retries >= 0, f"emotion_retries must be >= 0, got {cfg.emotion_retries}")
    expect("emotion_batch_size", cfg.emotion_batch_size >= 1,
           f"emotion_batch_size must be >= 1, got {cfg.emotion_batch_size}")
    expect("emotion_parallel", cfg.emotion_parallel >= 1, f"emotion_parallel must be >= 1, got {cfg.emotion_parallel}")
    expect("alpha", 0.0 < cfg.alpha < 1.0, f"alpha must be in (0, 1), got {cfg.alpha}")
    expect("split_ratio", 0.0 < cfg.split_ratio < 1.0, f"split_ratio must be in (0, 1), got {cfg.split_ratio}")
    expect("k_folds", cfg.k_folds >= 2, f"k_folds must be >= 2, got {cfg.k_folds}")
    expect("averaging", cfg.averaging in ("weighted", "macro", "binary"), f"bad averaging {cfg.averaging!r}")
    expect("n_trees", cfg.n_trees >= 1, f"n_trees must be >= 1, got {cfg.n_trees}")
    expect("max_features", cfg.max_features in ("sqrt", "all"), f"bad max_features {cfg.max_features!r}")
    expect("min_samples_split", cfg.min_samples_split >= 2, f"min_samples_split must be >= 2, got {cfg.min_samples_split}")
    expect("max_depth", cfg.max_depth >= 0, f"max_depth must be >= 0, got {cfg.max_depth}")
    expect("shap_background", cfg.shap_background >= 1, f"shap_background must be >= 1, got {cfg.shap_background}")
    expect("scope", cfg.scope in ("sources", "reactions", "both"), f"bad scope {cfg.scope!r}")
    expect("threads", cfg.threads >= 0, f"threads must be >= 0, got {cfg.threads}")

