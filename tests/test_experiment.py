import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from ghreplay import experiment
from ghreplay.climate import PRESETS, SAMPLE_INTERVAL_S
from ghreplay.dataset import WINDOW_STRIDE
from ghreplay.experiment import (
    build_memory_config,
    build_model_config,
    build_phases,
    build_scenario,
    desk_spec,
    generate_datasets,
    greenhouse_params,
    paper_spec,
    resolve_spec,
    validate_spec,
)
from ghreplay.memory import SUBSTITUTION_PROBABILITY
from ghreplay.schema import SpecError


def tiny_spec(out_dir):
    return {
        "seed": 7,
        "out_dir": str(out_dir),
        "days_per_phase": 2,
        "greenhouses": [{"name": "GH-A"}, {"name": "GH-C"}],
        "data": {"window_len": 10},
        "model": {"hidden_dim": 4, "dense_dim": 4, "learning_rate": 0.01, "grad_clip": None},
        "memory": {"capacity": 50, "strategy": "per-batch"},
        "scenario": {"batch_size": 20, "replay_size": 20, "eval_every": 3, "test_size": 30},
    }


def test_presets_validate():
    validate_spec(desk_spec())
    validate_spec(paper_spec())


def test_unknown_key_rejected():
    doc = desk_spec()
    doc["surprise"] = 1
    with pytest.raises(SpecError, match="surprise"):
        validate_spec(doc)


def test_nested_unknown_key_rejected():
    doc = desk_spec()
    doc["model"]["layers"] = 3
    with pytest.raises(SpecError, match="layers"):
        validate_spec(doc)


def test_day_length_out_of_range_rejected_before_work(tmp_path):
    doc = desk_spec()
    doc["out_dir"] = str(tmp_path / "out")
    doc["greenhouses"] = [{"name": "odd", "params": {"day_length_h": 25}}]
    with pytest.raises(SpecError, match="day_length_h"):
        validate_spec(doc)
    assert not (tmp_path / "out").exists()


def test_missing_greenhouses_rejected():
    doc = desk_spec()
    del doc["greenhouses"]
    with pytest.raises(SpecError, match="^spec: 'greenhouses' is a required property$"):
        validate_spec(doc)


def test_incomplete_spec_is_refused_naming_the_first_missing_key():
    # without the required keys this spec passed, and generate_datasets then
    # failed with a bare KeyError: 'out_dir'
    doc = {"greenhouses": [{"name": "GH-A"}]}
    with pytest.raises(SpecError, match="^spec: 'seed' is a required property$"):
        validate_spec(doc)
    for section in ("data", "model", "memory", "scenario"):
        doc = desk_spec()
        key = next(iter(doc[section]))
        del doc[section][key]
        with pytest.raises(SpecError, match=f"^{section}: '{key}' is a required property$"):
            validate_spec(doc)


def test_resolve_spec_merges_preset_file_and_flags(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"greenhouses": [{"name": "GH-A"}], "seed": 5}))
    doc = resolve_spec(spec_file, preset="desk", overrides={"seed": 9})
    assert doc["seed"] == 9  # flag wins over file
    assert doc["greenhouses"] == [{"name": "GH-A"}]  # file wins over preset
    assert doc["data"]["window_len"] == 50  # preset default survives


def test_resolve_spec_unknown_preset():
    with pytest.raises(SpecError, match="unknown preset"):
        resolve_spec(None, "galaxy", {})


def test_resolve_spec_missing_file(tmp_path):
    with pytest.raises(SpecError, match="spec file not found"):
        resolve_spec(tmp_path / "nope.json", "desk", {})


def test_greenhouse_params_resolution(tmp_path):
    assert greenhouse_params({"name": "GH-B"}).a_rad == pytest.approx(3.3e-4)
    # a custom name's partial params are completed from GH-A
    custom = greenhouse_params({"name": "mine", "params": {"i_max": 700.0}})
    assert custom == dataclasses.replace(PRESETS["GH-A"], name="mine", i_max=700.0)
    # a preset's name with params keeps every other value of that preset, not GH-A's
    quiet_c = dataclasses.replace(PRESETS["GH-C"], noise_sd=0.0)
    doc = tiny_spec(tmp_path / "out")
    doc["greenhouses"] = [{"name": "GH-C", "params": {"noise_sd": 0.0}}]
    validate_spec(doc)
    assert greenhouse_params(doc["greenhouses"][0]) == quiet_c
    generate_datasets(doc, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["greenhouses"] == [{"name": "GH-C", "params": dataclasses.asdict(quiet_c)}]


def test_validate_spec_checks_each_greenhouse_source():
    doc = desk_spec()
    doc["greenhouses"] = [{"name": "GH-A"}, {"name": "GH-Z"}]
    with pytest.raises(SpecError, match=r"^greenhouses\.1\.name: greenhouse 'GH-Z' has no "
                                        r"'params' or 'csv' and is not a built-in preset"):
        validate_spec(doc)
    doc["greenhouses"] = [{"name": "GH-A", "params": {}, "csv": "GH-B.csv"}]
    with pytest.raises(SpecError, match=r"^greenhouses\.0: greenhouse 'GH-A' gives both"):
        validate_spec(doc)
    # a name outside the presets is fine with parameters or a file to read
    doc["greenhouses"] = [{"name": "GH-Z", "params": {}}, {"name": "ext", "csv": "ext.csv"}]
    validate_spec(doc)


def test_config_builders_respect_spec():
    doc = desk_spec()
    model_cfg = build_model_config(doc)
    assert model_cfg.hidden_dim == 16
    assert model_cfg.learning_rate == 0.01
    mem_cfg = build_memory_config(doc)
    assert mem_cfg.capacity == 2000 and mem_cfg.window_len == 50
    assert mem_cfg.strategy == "per-batch"


def test_paper_preset_protocol_constants():
    doc = paper_spec()
    assert doc["data"]["window_len"] == 250
    assert WINDOW_STRIDE == 2 and WINDOW_STRIDE * SAMPLE_INTERVAL_S == 600  # 10 minutes
    assert doc["scenario"]["batch_size"] == 100
    assert doc["memory"]["capacity"] == 10000
    assert SUBSTITUTION_PROBABILITY == 0.1
    assert doc["scenario"]["eval_every"] == 3
    assert doc["scenario"]["test_size"] == 10000


def test_generate_datasets_and_build_phases(tmp_path):
    doc = tiny_spec(tmp_path / "out")
    validate_spec(doc)
    out = tmp_path / "out"
    written = generate_datasets(doc, out)
    assert (out / "GH-A.csv").exists() and (out / "GH-C.csv").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7 and len(manifest["greenhouses"]) == 2

    phases, normalizer = build_phases(doc, out)
    assert [p.label for p in phases] == ["GH-A", "GH-C"]
    assert normalizer.clamp_count == 0
    for phase in phases:
        assert len(phase.test_set) == 30
        stream_ts = set(phase.timestamps[phase.stream].tolist())
        assert not stream_ts.intersection(phase.timestamps[phase.test_set].tolist())
        assert len(phase.stream) + 30 == (len(phase.timestamps) - 10) // 2 + 1

    scenario = build_scenario(doc, phases)
    assert scenario.batch_size == 20 and scenario.seed == 7


def test_generate_datasets_deterministic(tmp_path):
    doc = tiny_spec(tmp_path / "a")
    generate_datasets(doc, tmp_path / "a")
    generate_datasets(tiny_spec(tmp_path / "b"), tmp_path / "b")
    assert (tmp_path / "a" / "GH-A.csv").read_bytes() == (tmp_path / "b" / "GH-A.csv").read_bytes()
    assert (
        json.loads((tmp_path / "a" / "manifest.json").read_text())
        == json.loads((tmp_path / "b" / "manifest.json").read_text())
    )


def test_build_phases_missing_dataset(tmp_path):
    doc = tiny_spec(tmp_path / "out")
    with pytest.raises(SpecError, match="dataset file not found"):
        build_phases(doc, tmp_path / "out")


def test_build_phases_test_size_too_large(tmp_path):
    doc = tiny_spec(tmp_path / "out")
    doc["scenario"]["test_size"] = 10000
    generate_datasets(doc, tmp_path / "out")
    with pytest.raises(SpecError, match="not\\s+enough for a test set"):
        build_phases(doc, tmp_path / "out")


def test_external_csv_entry_skipped_by_generate(tmp_path):
    doc = tiny_spec(tmp_path / "out")
    doc["greenhouses"].append({"name": "real", "csv": str(tmp_path / "real.csv")})
    validate_spec(doc)
    generate_datasets(doc, tmp_path / "out")
    assert not (tmp_path / "real.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [g["name"] for g in manifest["greenhouses"]] == ["GH-A", "GH-C"]


@pytest.mark.parametrize("call", [generate_datasets, build_phases])
def test_out_dir_other_than_the_specs_is_refused_before_any_file(tmp_path, call):
    # validate_spec checks a csv against the spec's out_dir; generate_datasets wrote into
    # the directory it was given, replacing mine's input with GH-A's series
    out = tmp_path / "out"
    out.mkdir()
    mine = out / "GH-A.csv"
    mine.write_bytes(b"the user's own series\n")
    doc = tiny_spec(tmp_path / "elsewhere")
    doc["greenhouses"] = [{"name": "GH-A"}, {"name": "mine", "csv": str(mine)}]
    validate_spec(doc)
    with pytest.raises(SpecError, match=f"^output directory {re.escape(repr(str(out)))} is not "
                                        f"the spec's out_dir {re.escape(repr(doc['out_dir']))}"):
        call(doc, out)
    assert mine.read_bytes() == b"the user's own series\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_greenhouse_read_from_csv_may_take_an_output_name():
    validate_spec({**desk_spec(), "greenhouses": [{"name": "curve", "csv": "curve.csv"}]})


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the desk preset writes to the relative out-desk
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert printed[0].startswith("EvalPoint(") and "phase='GH-C'" in printed[0]
    assert printed[1].startswith("RetentionPoint(") and "test_phase='GH-B'" in printed[1]
    assert [name for _, name, _ in ast.literal_eval(printed[2])] == ["GH-A", "GH-B", "GH-C"]
    assert sorted(p.name for p in (tmp_path / "out-desk").glob("GH-*.csv")) == [
        "GH-A.csv", "GH-B.csv", "GH-C.csv"]
