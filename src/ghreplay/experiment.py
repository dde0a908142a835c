"""Experiment specs: one JSON document describing a full reproducible run.

A spec names the greenhouses (generator presets, explicit parameters, or
existing CSV paths), the model, memory and scenario settings, and the
output directory. ``validate_spec`` checks it against ``EXPERIMENT_SCHEMA``
(see ``schema``) before any work starts and names the first bad key by
its dotted path; unknown keys are rejected, and so is a key that a spec
file gives twice in one object, a greenhouse name that holds a path
separator or would overwrite an output file, a greenhouse ``csv`` that a
command writes into the output directory, or a path that holds a NUL
byte. The configs built from a spec check themselves against the same
schema parts, so a setting's bounds are stated once. The two built-in
presets are the only statement of a setting's value, as no config field
has a default: ``paper`` (protocol-scale constants: window 250, batches
of 100, 10k-sample memory, substitution probability 0.1, evaluation
every 3 updates, 10k-sample test sets) and ``desk``, merged over it: the
same protocol scaled down to run in seconds. Windows end every
``WINDOW_STRIDE`` records, 10 minutes apart, in every run. Resolution
order: the preset, then the spec file, then the ``--seed`` and ``--out``
flags. ``build_phases`` refuses a greenhouse whose windows leave no test
set, or a stream shorter than one batch.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

from .atomic import atomic_open
from .climate import PRESETS, GreenhouseParams, generate_series
from .csvio import read_records, write_records
from .dataset import WINDOW_STRIDE, Normalizer, Phase, build_samples
from .memory import MemoryConfig
from .model import ModelConfig
from .rng import SeededRng
from .schema import EXPERIMENT_SCHEMA, SpecError, _schema_errors
from .trainer import ScenarioConfig

# The files ``generate`` and ``run`` write into the output directory, and the
# prefix of the CSVs ``baseline --phase P`` writes there (``baseline_P.csv``),
# beside the generated greenhouses' ``<name>.csv``, which must not take their
# names; a greenhouse's ``csv`` must not be any of them.
CURVE_CSV, RETENTION_CSV, MEMORY_CSV = "curve.csv", "retention.csv", "memory.csv"
CHECKPOINT_NPZ, MANIFEST_JSON = "checkpoint.npz", "manifest.json"
BASELINE_PREFIX = "baseline_"


def boundaries_path_for(curve_path: str | Path) -> Path:
    """The phase boundaries CSV written beside a curve CSV."""
    curve_path = Path(curve_path)
    return curve_path.with_name(curve_path.stem + "_boundaries.csv")


OUTPUT_FILES = (CURVE_CSV, boundaries_path_for(CURVE_CSV).name, RETENTION_CSV, MEMORY_CSV,
                CHECKPOINT_NPZ, MANIFEST_JSON)


def _is_output(file_name: str) -> bool:
    """Whether ``generate``, ``run`` or ``baseline`` writes ``file_name``
    into the output directory, generated greenhouses aside."""
    return file_name in OUTPUT_FILES or (file_name.startswith(BASELINE_PREFIX)
                                         and file_name.endswith(".csv"))


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
        "data": {"window_len": 250},
        "model": {"hidden_dim": 32, "dense_dim": 32, "learning_rate": 0.001, "grad_clip": None},
        "memory": {"capacity": 10000, "substitution_probability": 0.1, "strategy": "per-batch"},
        "scenario": {"batch_size": 100, "replay_size": 100, "eval_every": 3, "test_size": 10000},
    }


PRESET_SPECS = {"desk": desk_spec, "paper": paper_spec}


def validate_spec(doc: dict) -> None:
    """Raise ``SpecError("<dotted.path>: <message>")`` for the first error by
    path against ``EXPERIMENT_SCHEMA``, else for the first greenhouse whose
    name holds a path separator or a NUL byte or repeats a name, whose
    ``csv`` holds a NUL byte or is a file a command writes into
    ``out_dir``, that gives both ``params`` and ``csv``, or gives neither
    and names no built-in preset, or that is generated to a file ``run``
    or ``baseline`` writes; an ``out_dir`` that holds a NUL byte is
    refused before any greenhouse."""
    errors = list(_schema_errors(doc, EXPERIMENT_SCHEMA, ()))
    if errors:
        path, message = min(errors, key=lambda error: error[0])
        raise SpecError(f"{'.'.join(map(str, path)) or 'spec'}: {message}")
    if "\0" in doc.get("out_dir", ""):
        raise SpecError(f"out_dir: {doc['out_dir']!r} holds a NUL byte, which no file path can hold")
    names = [entry["name"] for entry in doc["greenhouses"]]
    generated = {f"{entry['name']}.csv" for entry in doc["greenhouses"] if "csv" not in entry}
    out_dir = Path(doc["out_dir"]).resolve() if "out_dir" in doc else None
    for k, entry in enumerate(doc["greenhouses"]):
        name = entry["name"]
        if any(char in name for char in "/\\\0"):
            raise SpecError(f"greenhouses.{k}.name: {name!r} holds '/', '\\' or a NUL byte; a "
                            f"greenhouse name is a file name in the output directory")
        if "\0" in entry.get("csv", ""):
            raise SpecError(f"greenhouses.{k}.csv: {entry['csv']!r} holds a NUL byte, "
                            f"which no file path can hold")
        if name in names[:k]:
            raise SpecError(f"greenhouses.{k}.name: {name!r} is repeated; "
                            f"each greenhouse needs its own name")
        if "params" in entry and "csv" in entry:
            raise SpecError(f"greenhouses.{k}: greenhouse {name!r} gives both 'params' and "
                            f"'csv'; a greenhouse is generated or read, not both")
        if "params" not in entry and "csv" not in entry and name not in PRESETS:
            raise SpecError(f"greenhouses.{k}.name: greenhouse {name!r} has no 'params' or "
                            f"'csv' and is not a built-in preset ({', '.join(sorted(PRESETS))})")
        if "csv" not in entry and _is_output(f"{name}.csv"):
            raise SpecError(f"greenhouses.{k}.name: greenhouse {name!r} would be generated to "
                            f"{name}.csv, a file that `run` or `baseline` writes")
        csv_path = Path(entry["csv"]).resolve() if "csv" in entry else None
        if csv_path and csv_path.parent == out_dir and (_is_output(csv_path.name)
                                                        or csv_path.name in generated):
            raise SpecError(f"greenhouses.{k}.csv: {entry['csv']!r} is {csv_path.name} in the "
                            f"output directory, a file that `generate`, `run` or `baseline` writes")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ``SpecError``
    rather than letting the last value win."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SpecError(f"key {key!r} is repeated")
        doc[key] = value
    return doc


def load_spec_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError:
        raise SpecError(f"{path}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return doc


def resolve_spec(spec_path: str | Path | None, preset: str, overrides: dict) -> dict:
    """Merge the preset, the spec file, and flag overrides (flags win)."""
    if preset not in PRESET_SPECS:
        raise SpecError(f"unknown preset {preset!r}, expected one of {sorted(PRESET_SPECS)}")
    doc = PRESET_SPECS[preset]()
    if spec_path is not None:
        doc = _deep_merge(doc, load_spec_file(spec_path))
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
    return ModelConfig(**spec["model"])


def build_memory_config(spec: dict) -> MemoryConfig:
    return MemoryConfig(window_len=spec["data"]["window_len"], **spec["memory"])


def dataset_path(entry: dict, out_dir: Path) -> Path:
    if "csv" in entry:
        return Path(entry["csv"])
    return out_dir / f"{entry['name']}.csv"


def generate_datasets(spec: dict, out_dir: Path) -> list[Path]:
    """Write one CSV per generated greenhouse plus a manifest of the inputs."""
    seed = spec["seed"]
    days = spec["days_per_phase"]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    manifest_entries = []
    for entry in spec["greenhouses"]:
        if "csv" in entry:
            continue  # externally supplied data is never regenerated
        params = greenhouse_params(entry)
        rng = SeededRng(seed).split(f"generator/{params.name}")
        series = generate_series(params, days, rng)
        path = dataset_path(entry, out_dir)
        write_records(path, series)
        written.append(path)
        manifest_entries.append({"name": params.name, "params": dataclasses.asdict(params)})
    manifest = {"seed": seed, "days_per_phase": days, "greenhouses": manifest_entries}
    manifest_path = out_dir / MANIFEST_JSON
    with atomic_open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def build_phases(spec: dict, out_dir: Path) -> tuple[list[Phase], Normalizer]:
    """Load every greenhouse CSV and split windows into stream/test sets."""
    seed = spec["seed"]
    window_len = spec["data"]["window_len"]
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
        windows = build_samples(series, entry["name"], window_len, WINDOW_STRIDE, normalizer)
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
