"""Run configuration: flat key=value config files, environment overrides
(RUMOURLENS_<KEY>), then command-line flags, in increasing precedence.
The resolved configuration is validated up front and persisted into the
output directory as run_config.json.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError

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
    threads: int = 0  # 0: available cores
    out_dir: str = "out"
    run_id: str = ""  # empty: run-<seed>
    scope: str = "both"  # sources | reactions | both

    def resolved_run_id(self) -> str:
        return self.run_id or f"run-{self.seed}"

    def run_dir(self) -> Path:
        return Path(self.out_dir) / self.resolved_run_id()

    def effective_threads(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


def _coerce(name: str, kind, raw: str):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}") from exc


def parse_config_file(path) -> dict[str, str]:
    """`key = value` per line; blank lines and '#' comments ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_config(
    file_values: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    env = os.environ if env is None else env
    field_types = {f.name: f.type for f in fields(RunConfig)}
    known = set(field_types)

    merged: dict = {}
    for key, raw in (file_values or {}).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = raw
    for key in known:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            merged[key] = env[env_key]

    cfg = RunConfig()
    for key, raw in merged.items():
        kind = type(getattr(cfg, key))
        setattr(cfg, key, _coerce(key, kind, raw))
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    def expect(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message)

    expect(cfg.dataset != "", "dataset path is required")
    expect(cfg.dataset_format in ("pheme", "jsonl"), f"dataset_format must be pheme|jsonl, got {cfg.dataset_format!r}")
    expect(cfg.emotion_provider in ("remote", "fallback", "cassette", "none"),
           f"emotion_provider must be remote|fallback|cassette|none, got {cfg.emotion_provider!r}")
    if cfg.emotion_provider == "remote":
        expect(cfg.emotion_url != "", "emotion_provider=remote requires emotion_url")
    if cfg.emotion_provider == "cassette":
        expect(cfg.emotion_cassette != "", "emotion_provider=cassette requires emotion_cassette")
    expect(0.0 < cfg.alpha < 1.0, f"alpha must be in (0, 1), got {cfg.alpha}")
    expect(0.0 < cfg.split_ratio < 1.0, f"split_ratio must be in (0, 1), got {cfg.split_ratio}")
    expect(cfg.k_folds >= 2, f"k_folds must be >= 2, got {cfg.k_folds}")
    expect(cfg.averaging in ("weighted", "macro", "binary"), f"bad averaging {cfg.averaging!r}")
    expect(cfg.n_trees >= 1, f"n_trees must be >= 1, got {cfg.n_trees}")
    expect(cfg.max_features in ("sqrt", "all"), f"bad max_features {cfg.max_features!r}")
    expect(cfg.min_samples_split >= 2, f"min_samples_split must be >= 2, got {cfg.min_samples_split}")
    expect(cfg.max_depth >= 0, f"max_depth must be >= 0, got {cfg.max_depth}")
    expect(cfg.shap_background >= 1, f"shap_background must be >= 1, got {cfg.shap_background}")
    expect(cfg.scope in ("sources", "reactions", "both"), f"bad scope {cfg.scope!r}")
    expect(cfg.threads >= 0, f"threads must be >= 0, got {cfg.threads}")


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

