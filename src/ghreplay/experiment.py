"""Experiment specs: one JSON document describing a full reproducible run.

A spec names the greenhouses (generator presets, explicit parameters, or
existing CSV paths), the model, memory and scenario settings, and the
output directory. ``validate_spec`` checks it before any work starts,
in-package, with the JSON Schema keywords ``EXPERIMENT_SCHEMA`` uses:
``type`` (an ``integer`` is an ``int``, not a float or bool), ``enum``,
``minimum``, ``maximum``, ``exclusiveMinimum``, ``exclusiveMaximum``,
``minLength``, ``minItems``, ``items``, ``required``, ``properties`` and
``additionalProperties: false``, so unknown keys are rejected. Two
built-in presets supply defaults: ``desk`` (minutes on a laptop) and
``paper`` (protocol-scale constants: window 250, 10-minute window
separation, batches of 100, 10k-sample memory, substitution probability
0.1, evaluation every 3 updates, 10k-sample test sets). Resolution order:
preset defaults, then the spec file, then command-line flags.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import operator
from pathlib import Path

from .atomic import atomic_open
from .climate import PRESETS, GreenhouseParams, generate_series
from .csvio import read_records, write_records
from .dataset import Normalizer, Phase, build_samples, default_normalizer
from .memory import MemoryConfig
from .model import ModelConfig
from .rng import SeededRng
from .trainer import ScenarioConfig


class SpecError(ValueError):
    """Invalid spec, flags or input files (CLI exit code 2)."""


_GREENHOUSE_PARAMS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "i_max": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "p_max": {"type": "number", "exclusiveMinimum": 0},
        "k_c": {"type": "number", "exclusiveMinimum": 0},
        "a_rad": {"type": "number", "exclusiveMinimum": 0},
        "b_vpd": {"type": "number", "exclusiveMinimum": 0},
        "t_base": {"type": "number", "exclusiveMinimum": 0},
        "t_amp": {"type": "number", "exclusiveMinimum": 0},
        "co2_day": {"type": "number", "exclusiveMinimum": 0},
        "co2_night": {"type": "number", "exclusiveMinimum": 0},
        "noise_sd": {"type": "number", "minimum": 0},
        "day_length_h": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 24},
    },
}

EXPERIMENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["greenhouses"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},  # SeededRng's 64 bits
        "out_dir": {"type": "string", "minLength": 1},
        "days_per_phase": {"type": "integer", "minimum": 1},
        "greenhouses": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "params": _GREENHOUSE_PARAMS_SCHEMA,
                    "csv": {"type": "string", "minLength": 1},
                },
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "window_len": {"type": "integer", "minimum": 1},
                "stride": {"type": "integer", "minimum": 1},
                "start_timestamp": {"type": "integer", "minimum": 0},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "hidden_dim": {"type": "integer", "minimum": 1},
                "dense_dim": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "adam_beta1": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "adam_beta2": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "adam_epsilon": {"type": "number", "exclusiveMinimum": 0},
                "grad_clip": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
        },
        "memory": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "capacity": {"type": "integer", "minimum": 1},
                "substitution_probability": {"type": "number", "minimum": 0, "maximum": 1},
                "strategy": {
                    "type": "string",
                    "enum": ["per-element", "per-sample", "per-batch"],
                },
            },
        },
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "batch_size": {"type": "integer", "minimum": 1},
                "replay_size": {"type": "integer", "minimum": 0},
                "eval_every": {"type": "integer", "minimum": 1},
                "test_size": {"type": "integer", "minimum": 1},
            },
        },
    },
}


def desk_spec() -> dict:
    """Desk-scale defaults: the full pipeline runs in minutes."""
    return {
        "seed": 42,
        "out_dir": "out-desk",
        "days_per_phase": 30,
        "greenhouses": [{"name": "GH-A"}, {"name": "GH-B"}, {"name": "GH-C"}],
        "data": {"window_len": 50, "stride": 2, "start_timestamp": 0},
        "model": {"hidden_dim": 16, "dense_dim": 16, "learning_rate": 0.01},
        "memory": {"capacity": 2000, "substitution_probability": 0.1, "strategy": "per-batch"},
        "scenario": {"batch_size": 100, "replay_size": 100, "eval_every": 3, "test_size": 1000},
    }


def paper_spec() -> dict:
    """Protocol-scale constants; expect a long run."""
    return {
        "seed": 42,
        "out_dir": "out-paper",
        "days_per_phase": 365,
        "greenhouses": [{"name": "GH-A"}, {"name": "GH-B"}, {"name": "GH-C"}],
        "data": {"window_len": 250, "stride": 2, "start_timestamp": 0},
        "model": {"hidden_dim": 32, "dense_dim": 32, "learning_rate": 0.001},
        "memory": {"capacity": 10000, "substitution_probability": 0.1, "strategy": "per-batch"},
        "scenario": {"batch_size": 100, "replay_size": 100, "eval_every": 3, "test_size": 10000},
    }


PRESET_SPECS = {"desk": desk_spec, "paper": paper_spec}


# JSON types as Python types; a bool is none of them, and an integer is an int
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float), "null": type(None)}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _is(value, kind: str) -> bool:
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


def _schema_errors(value, schema: dict, path: tuple):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``,
    keyword by keyword in the schema's order, as JSON Schema 2020-12 does."""
    for keyword, arg in schema.items():
        if keyword == "type":
            kinds = [arg] if isinstance(arg, str) else arg
            if not any(_is(value, kind) for kind in kinds):
                yield path, f"{value!r} is not of type {' or '.join(map(repr, kinds))}"
        elif keyword == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS:
            if _is(value, "number") and _BOUNDS[keyword][0](value, arg):
                yield path, f"{value!r} is {_BOUNDS[keyword][1]} {arg!r}"
        elif keyword in ("minLength", "minItems"):
            if _is(value, "string" if keyword == "minLength" else "array") and len(value) < arg:
                yield path, f"{value!r} is too short"
        elif keyword == "items":
            for index, item in enumerate(value if _is(value, "array") else ()):
                yield from _schema_errors(item, arg, path + (index,))
        elif keyword == "required":
            for name in arg if _is(value, "object") else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif keyword == "properties":
            for name, sub in arg.items() if _is(value, "object") else ():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif keyword == "additionalProperties" and arg is False:
            allowed = schema.get("properties", {})
            extra = sorted(set(value) - set(allowed)) if _is(value, "object") else []
            if extra:
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} unexpected)")
        elif keyword != "$schema":
            raise ValueError(f"spec schema keyword {keyword}: {arg!r} is not supported")


def validate_spec(doc: dict) -> None:
    """Raise ``SpecError("<dotted.path>: <message>")`` for the first error by
    path against ``EXPERIMENT_SCHEMA``, or for a repeated greenhouse name."""
    errors = list(_schema_errors(doc, EXPERIMENT_SCHEMA, ()))
    if errors:
        path, message = min(errors, key=lambda error: error[0])
        raise SpecError(f"{'.'.join(map(str, path)) or 'spec'}: {message}")
    names = [entry["name"] for entry in doc["greenhouses"]]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise SpecError(f"greenhouses.{k}.name: {name!r} is repeated; "
                            f"each greenhouse needs its own name")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_spec_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return doc


def resolve_spec(
    spec_path: str | Path | None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> dict:
    """Merge preset defaults, the spec file, and flag overrides (flags win)."""
    if preset is None:
        preset = "desk"
    if preset not in PRESET_SPECS:
        raise SpecError(f"unknown preset {preset!r}, expected one of {sorted(PRESET_SPECS)}")
    doc = PRESET_SPECS[preset]()
    if spec_path is not None:
        doc = _deep_merge(doc, load_spec_file(spec_path))
    if overrides:
        doc = _deep_merge(doc, overrides)
    validate_spec(doc)
    return doc


# ---------------------------------------------------------------------------
# building runtime objects from a validated spec

def greenhouse_params(entry: dict) -> GreenhouseParams:
    name = entry["name"]
    if "params" in entry:
        params = GreenhouseParams(name=name, **entry["params"])
    elif name in PRESETS:
        params = dataclasses.replace(PRESETS[name], name=name)
    else:
        raise SpecError(
            f"greenhouse {name!r} has no 'params' and is not a built-in preset "
            f"({', '.join(sorted(PRESETS))})"
        )
    try:
        params.validate()
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return params


def build_model_config(spec: dict) -> ModelConfig:
    cfg = ModelConfig(window_len=spec["data"]["window_len"], **spec["model"])
    cfg.validate()
    return cfg


def build_memory_config(spec: dict) -> MemoryConfig:
    cfg = MemoryConfig(**spec["memory"])
    cfg.validate()
    return cfg


def dataset_path(entry: dict, out_dir: Path) -> Path:
    if "csv" in entry:
        return Path(entry["csv"])
    return out_dir / f"{entry['name']}.csv"


def generate_datasets(spec: dict, out_dir: Path) -> list[Path]:
    """Write one CSV per generated greenhouse plus a manifest of the inputs."""
    seed = spec["seed"]
    days = spec["days_per_phase"]
    start_ts = spec["data"]["start_timestamp"]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    manifest_entries = []
    for entry in spec["greenhouses"]:
        if "csv" in entry:
            continue  # externally supplied data is never regenerated
        params = greenhouse_params(entry)
        rng = SeededRng(seed).split(f"generator/{params.name}")
        series = generate_series(params, days, rng, start_timestamp=start_ts)
        path = dataset_path(entry, out_dir)
        write_records(path, series)
        written.append(path)
        manifest_entries.append({"name": params.name, "params": dataclasses.asdict(params)})
    manifest = {
        "seed": seed,
        "days_per_phase": days,
        "start_timestamp": start_ts,
        "greenhouses": manifest_entries,
    }
    manifest_path = out_dir / "manifest.json"
    with atomic_open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def build_phases(spec: dict, out_dir: Path) -> tuple[list[Phase], Normalizer]:
    """Load every greenhouse CSV and split windows into stream/test sets."""
    seed = spec["seed"]
    window_len = spec["data"]["window_len"]
    stride = spec["data"]["stride"]
    test_size = spec["scenario"]["test_size"]
    normalizer = default_normalizer()

    phases = []
    for entry in spec["greenhouses"]:
        path = dataset_path(entry, out_dir)
        if not path.exists():
            raise SpecError(f"dataset file not found: {path} (run `generate` first?)")
        series = read_records(path)
        windows = build_samples(series, entry["name"], window_len, stride, normalizer)
        if len(windows) <= test_size:
            raise SpecError(
                f"greenhouse {entry['name']!r}: {len(windows)} windows is not "
                f"enough for a test set of {test_size}"
            )
        rng = SeededRng(seed).split(f"test-sampling/{entry['name']}")
        phases.append(Phase.split(windows, rng.sample_indices(len(windows), test_size)))
    return phases, normalizer


def build_scenario(spec: dict, phases: list[Phase]) -> ScenarioConfig:
    scenario = spec["scenario"]
    cfg = ScenarioConfig(
        phases=phases,
        batch_size=scenario["batch_size"],
        replay_size=scenario["replay_size"],
        eval_every=scenario["eval_every"],
        seed=spec["seed"],
    )
    cfg.validate()
    return cfg
