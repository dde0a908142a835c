"""Experiment specs: one JSON document describing a full reproducible run.

A spec names the greenhouses (generator presets, explicit parameters, or
existing CSV paths), the model, memory and scenario settings, and the
output directory. ``validate_spec`` checks it against ``EXPERIMENT_SCHEMA``
(see ``schema``) before any work starts and names the first bad key by
its dotted path; unknown keys are rejected. The configs built from a
spec check themselves against the same schema parts, so a setting's
bounds are stated once. Two built-in presets supply defaults: ``paper``
(protocol-scale constants: window 250, 10-minute window separation,
batches of 100, 10k-sample memory, substitution probability 0.1,
evaluation every 3 updates, 10k-sample test sets) and ``desk``, the same
protocol scaled down to run in seconds. Resolution order: preset defaults, then the spec file, then
command-line flags. ``build_phases`` refuses a greenhouse whose windows
leave no test set, or a stream shorter than one batch.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

from .atomic import atomic_open
from .climate import PRESETS, GreenhouseParams, generate_series
from .csvio import read_records, write_records
from .dataset import Normalizer, Phase, build_samples
from .memory import MemoryConfig
from .model import ModelConfig
from .rng import SeededRng
from .schema import EXPERIMENT_SCHEMA, SpecError, _schema_errors
from .trainer import ScenarioConfig


def desk_spec() -> dict:
    """The paper protocol scaled down to finish in seconds: 30 days per
    greenhouse, windows of 50, a 16-unit model at learning rate 0.01, a
    2k memory and 1k test sets; every other setting is the paper's."""
    return _deep_merge(paper_spec(), {
        "out_dir": "out-desk",
        "days_per_phase": 30,
        "data": {"window_len": 50},
        "model": {"hidden_dim": 16, "dense_dim": 16, "learning_rate": 0.01},
        "memory": {"capacity": 2000},
        "scenario": {"test_size": 1000},
    })


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


def validate_spec(doc: dict) -> None:
    """Raise ``SpecError("<dotted.path>: <message>")`` for the first error by
    path against ``EXPERIMENT_SCHEMA``, else for the first greenhouse that
    repeats a name, gives both ``params`` and ``csv``, or gives neither
    and names no built-in preset."""
    errors = list(_schema_errors(doc, EXPERIMENT_SCHEMA, ()))
    if errors:
        path, message = min(errors, key=lambda error: error[0])
        raise SpecError(f"{'.'.join(map(str, path)) or 'spec'}: {message}")
    names = [entry["name"] for entry in doc["greenhouses"]]
    for k, entry in enumerate(doc["greenhouses"]):
        name = entry["name"]
        if name in names[:k]:
            raise SpecError(f"greenhouses.{k}.name: {name!r} is repeated; "
                            f"each greenhouse needs its own name")
        if "params" in entry and "csv" in entry:
            raise SpecError(f"greenhouses.{k}: greenhouse {name!r} gives both 'params' and "
                            f"'csv'; a greenhouse is generated or read, not both")
        if "params" not in entry and "csv" not in entry and name not in PRESETS:
            raise SpecError(f"greenhouses.{k}.name: greenhouse {name!r} has no 'params' or "
                            f"'csv' and is not a built-in preset ({', '.join(sorted(PRESETS))})")


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
    except UnicodeDecodeError:
        raise SpecError(f"{path}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return doc


def resolve_spec(
    spec_path: str | Path | None,
    preset: str = "desk",
    overrides: dict | None = None,
) -> dict:
    """Merge preset defaults, the spec file, and flag overrides (flags win)."""
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
    """A generated greenhouse's parameters: its ``params``, else its preset's."""
    name = entry["name"]
    if "params" in entry:
        return GreenhouseParams(name=name, **entry["params"])
    return dataclasses.replace(PRESETS[name], name=name)


def build_model_config(spec: dict) -> ModelConfig:
    return ModelConfig(window_len=spec["data"]["window_len"], **spec["model"])


def build_memory_config(spec: dict) -> MemoryConfig:
    return MemoryConfig(**spec["memory"])


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
    batch_size = spec["scenario"]["batch_size"]
    normalizer = Normalizer()

    phases = []
    for entry in spec["greenhouses"]:
        path = dataset_path(entry, out_dir)
        if not path.exists():
            hint = "" if "csv" in entry else " (run `generate` first?)"
            raise SpecError(f"dataset file not found: {path}{hint}")
        series = read_records(path)
        windows = build_samples(series, entry["name"], window_len, stride, normalizer)
        if len(windows) <= test_size:
            raise SpecError(
                f"greenhouse {entry['name']!r}: {len(windows)} windows is not "
                f"enough for a test set of {test_size}"
            )
        if len(windows) - test_size < batch_size:
            raise SpecError(
                f"greenhouse {entry['name']!r}: a stream of {len(windows) - test_size} "
                f"windows is shorter than one batch of {batch_size}"
            )
        rng = SeededRng(seed).split(f"test-sampling/{entry['name']}")
        phases.append(Phase.split(windows, rng.sample_indices(len(windows), test_size)))
    return phases, normalizer


def build_scenario(spec: dict, phases: list[Phase]) -> ScenarioConfig:
    """The scenario section but ``test_size``, which ``build_phases`` applies."""
    settings = {key: value for key, value in spec["scenario"].items() if key != "test_size"}
    return ScenarioConfig(phases=phases, seed=spec["seed"], **settings)
