"""Run configuration: ini-style files with fail-fast validation.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments,
blank lines ignored. Every key is checked against a schema of known
sections/keys; anything unrecognized raises ConfigError (a typo in a
config should never silently fall back to a default).
"""
from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, field, fields

from .model import ModelConfig
from .incremental import UpdateConfig
from .evaluation import EvalProtocol


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError("not a boolean: %r" % text)


def _parse_int_list(text):
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError("empty integer list")
    return tuple(int(p) for p in items)


def _parse_float_triple(text):
    items = [p.strip() for p in text.split(",")]
    if len(items) != 3:
        raise ConfigError("expected three comma-separated floats, got %r" % text)
    return tuple(float(p) for p in items)


def _parse_opt_int(text):
    low = text.strip().lower()
    if low in ("none", "full", "all"):
        return None
    return int(text)


def _dataclass_keys(cls, skip=(), **parsers):
    """A section of the fields of dataclass ``cls`` but ``skip``: each field's
    default, converted from text by its entry in ``parsers`` or its type."""
    types = typing.get_type_hints(cls)
    return {f.name: (parsers.get(f.name, types[f.name]), f.default)
            for f in fields(cls) if f.name not in skip}


# section -> key -> (converter, default). None default means required-if-used.
_SCHEMA = {
    "paths": {
        "edges": (str, None),
        "features": (str, None),
        "schema": (str, None),
        "snapshot_dir": (str, "snapshots"),
    },
    "model": _dataclass_keys(ModelConfig, skip=("input_dim", "rng_seed"),
                             fusion_weights=_parse_float_triple),
    "train": {
        "epochs": (int, 20),
        "learning_rate": (float, 5e-4),
        "weight_decay": (float, 1e-4),
        "cold_start_retrain": (_parse_bool, False),
    },
    "update": _dataclass_keys(UpdateConfig),
    "eval": {
        "k_values": (_parse_int_list, (10,)),
        "negatives_per_user": (_parse_opt_int, 99),
        "user_type": (int, 0),
        "item_type": (int, 1),
    },
    "pipeline": {
        "rng_seed": (int, 0),
        "capture_alignment": (_parse_bool, True),
        "static_refresh_every": (int, 0),
    },
}


def parse_config_text(text, source="<config>"):
    """Parse config text into {section: {key: typed value}}, defaults filled in."""
    values = {s: dict() for s in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = "%s:%d" % (source, lineno)
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError("%s: unknown section [%s]" % (where, section))
            continue
        if "=" not in line:
            raise ConfigError("%s: expected 'key = value', got %r" % (where, raw))
        if section is None:
            raise ConfigError("%s: key outside any [section]" % where)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError("%s: unknown key %r in [%s]" % (where, key, section))
        if key in values[section]:
            raise ConfigError("%s: duplicate key %r in [%s]" % (where, key, section))
        conv = _SCHEMA[section][key][0]
        try:
            values[section][key] = conv(val)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError("%s: bad value for %s.%s: %s" % (where, section, key, exc))
    for sec, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            values[sec].setdefault(key, default)
    return values


@dataclass
class RunConfig:
    """All settings for a train/update/evaluate run, resolved with defaults."""

    paths: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    update: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    pipeline: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        return cls.from_text(text, source=str(path))

    @classmethod
    def from_text(cls, text, source="<config>"):
        vals = parse_config_text(text, source=source)
        cfg = cls(**vals)
        cfg.validate()
        return cfg

    @classmethod
    def defaults(cls, **path_overrides):
        vals = parse_config_text("", source="<defaults>")
        vals["paths"].update(path_overrides)
        return cls(**vals)

    def validate(self):
        if self.train["epochs"] < 0:
            raise ConfigError("train.epochs must be >= 0")
        if self.pipeline["static_refresh_every"] < 0:
            raise ConfigError("pipeline.static_refresh_every must be >= 0")
        for key in ("user_type", "item_type"):
            if self.eval[key] < 0:
                raise ConfigError("eval.%s must be >= 0" % key)
        # range checks shared with the dataclasses happen on construction
        try:
            self.model_config(input_dim=1)
            self.update_config()
            self.protocol()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc))

    def require_paths(self, *keys):
        for key in keys:
            if not self.paths.get(key):
                raise ConfigError("missing required [paths] entry: %s" % key)

    def model_config(self, input_dim):
        return ModelConfig(input_dim=input_dim, rng_seed=self.pipeline["rng_seed"], **self.model)

    def update_config(self):
        return UpdateConfig(**self.update)

    def protocol(self):
        e = self.eval
        return EvalProtocol(k_values=tuple(e["k_values"]),
                            negatives_per_user=e["negatives_per_user"],
                            rng_seed=self.pipeline["rng_seed"])

    def digest(self):
        """Stable hash of every behavior-affecting setting (paths excluded)."""
        parts = []
        for sec in sorted(_SCHEMA):
            if sec == "paths":
                continue
            src = getattr(self, sec)
            for key in sorted(_SCHEMA[sec]):
                parts.append("%s.%s=%r" % (sec, key, src[key]))
        blob = "\n".join(parts).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
