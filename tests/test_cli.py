import json
import re

import numpy as np
import pytest

from ghreplay.cli import main
from ghreplay.trainer import read_boundaries_csv, read_curve_csv


def write_tiny_spec(tmp_path, **extra):
    doc = {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "days_per_phase": 2,
        "greenhouses": [{"name": "GH-A"}, {"name": "GH-C"}],
        "data": {"window_len": 10},
        "model": {"hidden_dim": 4, "dense_dim": 4, "learning_rate": 0.01},
        "memory": {"capacity": 50, "strategy": "per-batch"},
        "scenario": {"batch_size": 20, "replay_size": 20, "eval_every": 3, "test_size": 30},
    }
    doc.update(extra)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_generate_writes_expected_rows(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    out = tmp_path / "out"
    for name in ("GH-A", "GH-C"):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert len(lines) == 2 * 288 + 1  # days * records/day + header
    assert "manifest.json" in capsys.readouterr().out


def test_generate_rerun_is_byte_identical(tmp_path):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    first = (tmp_path / "out" / "GH-A.csv").read_bytes()
    assert main(["generate", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "out" / "GH-A.csv").read_bytes() == first


def test_generate_invalid_params_exit_2_before_writing(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(
        tmp_path, greenhouses=[{"name": "odd", "params": {"day_length_h": 25}}]
    )
    assert main(["generate", "--spec", str(spec_path)]) == 2
    assert "day_length_h" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_produces_artifacts(tmp_path):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    assert main(["run", "--spec", str(spec_path), "--retention", "--dump-memory"]) == 0
    out = tmp_path / "out"
    points = read_curve_csv(out / "curve.csv")
    starts = read_boundaries_csv(out / "curve_boundaries.csv")
    assert points and starts[0] == ("GH-A", 0)
    assert len(starts) == 2
    assert (out / "checkpoint.npz").exists()
    retention_lines = (out / "retention.csv").read_text().splitlines()
    assert retention_lines[0] == "update_index,eval_index,train_phase,test_phase,mse_total,mse_transpiration,mse_photosynthesis"
    memory_lines = (out / "memory.csv").read_text().splitlines()
    assert memory_lines[0] == "update_index,label,fraction"
    assert len(memory_lines) > 1


def test_dump_memory_only_adds_memory_csv(tmp_path):
    spec_path, doc = write_tiny_spec(tmp_path)
    outputs = {}
    for flags in ([], ["--dump-memory"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert main(["run", "--spec", str(spec_path), "--out", str(out), *flags]) == 0
        assert (out / "memory.csv").exists() == bool(flags)
        with np.load(out / "checkpoint.npz", allow_pickle=False) as data:
            arrays = {key: data[key].tobytes() for key in data.files}
        outputs[bool(flags)] = ((out / "curve.csv").read_bytes(), arrays)
    assert outputs[False] == outputs[True]


def test_run_missing_dataset_exit_2_names_path(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert "GH-A.csv" in err and "error:" in err and "(run `generate` first?)" in err


@pytest.mark.parametrize("command", ["generate", "run", "baseline"])
def test_greenhouse_without_params_csv_or_preset_exit_2(tmp_path, capsys, command):
    spec_path, doc = write_tiny_spec(tmp_path, greenhouses=[{"name": "GH-A"}, {"name": "mine"}])
    args = [command, "--spec", str(spec_path)] + (["--phase", "GH-A"] if command == "baseline" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert ("greenhouses.1.name: greenhouse 'mine' has no 'params' or 'csv' and is not a "
            "built-in preset (GH-A, GH-B, GH-C)") in err
    assert "generate` first" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "run"])
def test_greenhouse_with_params_and_csv_exit_2(tmp_path, capsys, command):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    entry = {"name": "GH-A", "params": {"i_max": 700.0}, "csv": str(tmp_path / "out" / "GH-C.csv")}
    spec_path, doc = write_tiny_spec(tmp_path, greenhouses=[entry])
    before = sorted((tmp_path / "out").iterdir())
    assert main([command, "--spec", str(spec_path)]) == 2
    assert "greenhouses.0: greenhouse 'GH-A' gives both 'params' and 'csv'" in capsys.readouterr().err
    assert sorted((tmp_path / "out").iterdir()) == before


def test_run_missing_external_csv_has_no_generate_hint(tmp_path, capsys):
    missing = tmp_path / "data" / "real.csv"
    spec_path, doc = write_tiny_spec(tmp_path, greenhouses=[{"name": "real", "csv": str(missing)}])
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert f"dataset file not found: {missing}" in err and "generate" not in err


def test_run_replay_size_zero_flag(tmp_path):
    # the replay ablation is set in the spec; no flag sets it
    spec_path, doc = write_tiny_spec(tmp_path)
    doc["scenario"]["replay_size"] = 0
    spec_path.write_text(json.dumps(doc))
    assert main(["generate", "--spec", str(spec_path)]) == 0
    assert main(["run", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "out" / "curve.csv").exists()


@pytest.mark.parametrize("command", ["run", "baseline"])
@pytest.mark.parametrize("flag, value", [("--replay-size", "0"), ("--memory-strategy", "per-sample")])
def test_spec_settings_are_not_flags_exit_2(tmp_path, monkeypatch, capsys, command, flag, value):
    monkeypatch.chdir(tmp_path)
    phase = ["--phase", "GH-A"] if command == "baseline" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", "out", flag, value, *phase])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_baseline_unknown_phase_exit_2(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    assert main(["baseline", "--spec", str(spec_path), "--phase", "GH-Z"]) == 2
    assert "GH-Z" in capsys.readouterr().err


def test_stream_shorter_than_one_batch_exit_2_for_run_and_baseline(tmp_path, capsys):
    # one desk day gives 120 windows per greenhouse: 100 for the test set, 20 to stream
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"days_per_phase": 1, "scenario": {"test_size": 100}}))
    out = tmp_path / "out"
    flags = ["--preset", "desk", "--spec", str(spec), "--out", str(out)]
    assert main(["generate", *flags]) == 0
    capsys.readouterr()
    errors = []
    for command in (["run"], ["baseline", "--phase", "GH-A"]):
        assert main([*command, *flags]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: greenhouse 'GH-A': a stream of 20 windows is shorter than one batch of 100\n")
    assert sorted(p.name for p in out.iterdir()) == ["GH-A.csv", "GH-B.csv", "GH-C.csv",
                                                     "manifest.json"]


def test_baseline_and_compare_pipeline(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(spec_path)]) == 0
    assert main(["run", "--spec", str(spec_path)]) == 0
    assert main(["baseline", "--spec", str(spec_path), "--phase", "GH-C"]) == 0
    base_starts = read_boundaries_csv(out / "baseline_GH-C_boundaries.csv")
    run_starts = read_boundaries_csv(out / "curve_boundaries.csv")
    assert base_starts == [("GH-C", dict(run_starts)["GH-C"])]
    capsys.readouterr()
    assert main(
        [
            "compare",
            str(out / "curve.csv"),
            str(out / "baseline_GH-C.csv"),
            "--out",
            str(out / "compare.csv"),
        ]
    ) == 0
    printed = capsys.readouterr().out
    assert "GH-C" in printed and ("pass" in printed or "fail" in printed)
    compare_lines = (out / "compare.csv").read_text().splitlines()
    assert compare_lines[0] == "phase,boundary_update,transferred_mse,fresh_mse,ratio,transfer_benefit"
    assert compare_lines[1].startswith("GH-C,")


def test_seed_flag_overrides_spec(tmp_path):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    assert main(["run", "--spec", str(spec_path)]) == 0
    first = (tmp_path / "out" / "curve.csv").read_text()
    # same seed again: identical; different seed: different data split and init
    assert main(["run", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "out" / "curve.csv").read_text() == first
    assert main(["generate", "--spec", str(spec_path), "--seed", "99"]) == 0
    assert main(["run", "--spec", str(spec_path), "--seed", "99"]) == 0
    assert (tmp_path / "out" / "curve.csv").read_text() != first


def test_run_does_not_mutate_input_datasets(tmp_path):
    spec_path, doc = write_tiny_spec(tmp_path)
    assert main(["generate", "--spec", str(spec_path)]) == 0
    before = (tmp_path / "out" / "GH-A.csv").read_bytes()
    assert main(["run", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "out" / "GH-A.csv").read_bytes() == before


def test_compare_malformed_curve_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,columns\n1,2\n")
    (tmp_path / "bad_boundaries.csv").write_text("phase,start_update\nGH-A,0\n")
    assert main(["compare", str(bad), str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "curve, boundaries, message",
    [
        ("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
         "3,1,GH-A,0.5,0.25,0.75\nx,2,GH-A,0.5,0.25,0.75\n",
         "phase,start_update\nGH-A,0\n",
         r"curve\.csv:3: column update_index: invalid value 'x'"),
        ("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
         "3,1,GH-A,0.5,0.25\n",
         "phase,start_update\nGH-A,0\n",
         r"curve\.csv:2: expected 6 cells, got 5"),
        ("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
         "3,1,GH-A,0.5,0.25,0.75,999,junk\n",
         "phase,start_update\nGH-A,0\n",
         r"curve\.csv:2: expected 6 cells, got 8"),
        ("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
         "3,1,GH-A,0.5,0.25,0.75\n",
         "phase,start_update\nGH-A,0\n\nGH-B,zero\n",
         r"curve_boundaries\.csv:4: column start_update: invalid value 'zero'"),
        ("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
         "3,1,GH-A,nan,0.5,nan\n",
         "phase,start_update\nGH-A,0\n",
         r"curve\.csv:2: column mse_total: invalid value 'nan'"),
        ("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
         "3,1,GH-A,0.5,0.25,0.75\n4,2,GH-A,0.5,-inf,0.75\n",
         "phase,start_update\nGH-A,0\n",
         r"curve\.csv:3: column mse_transpiration: invalid value '-inf'"),
    ],
    ids=["bad-int", "missing-float", "extra-cells", "bad-boundary-after-blank-line",
         "nan-mse", "inf-mse"],
)
def test_compare_bad_cell_names_file_line_and_column(tmp_path, capsys, curve, boundaries, message):
    (tmp_path / "curve.csv").write_text(curve)
    (tmp_path / "curve_boundaries.csv").write_text(boundaries)
    assert main(["compare", str(tmp_path / "curve.csv"), str(tmp_path / "curve.csv")]) == 1
    assert re.search(f"^error: .*{message}$", capsys.readouterr().err.strip())


def put_non_utf8_byte(path, line):
    """Start the 1-based ``line`` of ``path`` with a byte that is not UTF-8."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("line", [1, 3], ids=["header", "body"])
@pytest.mark.parametrize("source", ["climate", "curve", "spec"])
def test_non_utf8_byte_names_the_file(tmp_path, capsys, source, line):
    spec_path, doc = write_tiny_spec(tmp_path)
    if source == "climate":
        assert main(["generate", "--spec", str(spec_path)]) == 0
        put_non_utf8_byte(tmp_path / "out" / "GH-A.csv", line)
        command, status, message = ["run", "--spec", str(spec_path)], 1, rf"GH-A\.csv:{line}"
    elif source == "curve":
        curve = tmp_path / "curve.csv"
        curve.write_text("update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
                         "3,1,GH-A,0.5,0.25,0.75\n4,2,GH-A,0.5,0.25,0.75\n")
        (tmp_path / "curve_boundaries.csv").write_text("phase,start_update\nGH-A,0\n")
        put_non_utf8_byte(curve, line)
        command, status, message = ["compare", str(curve), str(curve)], 1, rf"curve\.csv:{line}"
    else:
        spec_path.write_text(json.dumps(doc, indent=1))
        put_non_utf8_byte(spec_path, line)
        command, status, message = ["generate", "--spec", str(spec_path)], 2, r"spec\.json"
    assert main(command) == status
    assert re.search(f"^error: .*{message}: not valid UTF-8$", capsys.readouterr().err.strip())


def test_repeated_greenhouse_name_exit_2_before_writing(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(
        tmp_path, greenhouses=[{"name": "GH-A"}, {"name": "GH-A", "params": {"i_max": 500.0}}]
    )
    for command in ("generate", "run"):
        assert main([command, "--spec", str(spec_path)]) == 2
        assert "greenhouses.1.name: 'GH-A' is repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name",
    ["../escaped", "a/b", "a\\b", "ABS", "a\0b",
     "curve", "curve_boundaries", "retention", "memory", "baseline_GH-A"],
    ids=["parent", "slash", "backslash", "absolute", "nul",
         "curve", "boundaries", "retention", "memory", "baseline"],
)
def test_greenhouse_name_that_is_a_path_or_an_output_exit_2_before_writing(tmp_path, capsys, name):
    # the name becomes <out>/<name>.csv: a path would leave <out>, an output name would be
    # overwritten by run or baseline
    if name == "ABS":  # an absolute name under tmp_path, so a write that gets through stays there
        name = str(tmp_path / "abs")
    spec_path, doc = write_tiny_spec(tmp_path, greenhouses=[{"name": "GH-A"},
                                                            {"name": name, "params": {}}])
    for command in (["generate"], ["run"], ["baseline", "--phase", "GH-A"]):
        assert main([*command, "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: greenhouses.1.name: ")
    assert list(tmp_path.rglob("*")) == [spec_path]


@pytest.mark.parametrize(
    "file_name, spelled",
    [("GH-A.csv", "out/GH-A.csv"), ("curve.csv", "out/curve.csv"),
     ("curve_boundaries.csv", "out/curve_boundaries.csv"), ("retention.csv", "out/retention.csv"),
     ("memory.csv", "out/memory.csv"), ("manifest.json", "out/manifest.json"),
     ("checkpoint.npz", "out/checkpoint.npz"), ("baseline_GH-A.csv", "out/baseline_GH-A.csv"),
     ("curve.csv", "elsewhere/../out/./curve.csv")],
    ids=["generated", "curve", "boundaries", "retention", "memory", "manifest", "checkpoint",
         "baseline", "unnormalized"],
)
def test_greenhouse_csv_that_a_command_writes_exit_2_before_writing(tmp_path, monkeypatch, capsys,
                                                                    file_name, spelled):
    # generate used to replace <out>/GH-A.csv with GH-A's series, and run <out>/curve.csv
    # with the curve, so the greenhouse read from it was trained on another file
    monkeypatch.chdir(tmp_path)  # the csv is given relative to the working directory
    mine = tmp_path / "out" / file_name
    mine.parent.mkdir()
    mine.write_bytes(b"the user's own file\n")
    spec_path, doc = write_tiny_spec(tmp_path, greenhouses=[{"name": "GH-A"},
                                                            {"name": "mine", "csv": spelled}])
    for command in (["generate"], ["run"], ["baseline", "--phase", "mine"]):
        assert main([*command, "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: greenhouses.1.csv: {spelled!r} is {file_name} in the output directory, "
            f"a file that `generate`, `run` or `baseline` writes\n")
    assert mine.read_bytes() == b"the user's own file\n"
    assert sorted(tmp_path.rglob("*")) == [spec_path.parent / "out", mine, spec_path]


@pytest.mark.parametrize(
    "extra, key",
    [({"out_dir": "a\0b"}, "out_dir"),
     ({"greenhouses": [{"name": "GH-A"}, {"name": "ext", "csv": "a\0b.csv"}]}, "greenhouses.1.csv")],
    ids=["out_dir", "csv"],
)
def test_nul_byte_in_a_spec_path_exit_2_before_writing(tmp_path, capsys, extra, key):
    # no file path holds a NUL byte; the spec names the key before any file is opened
    spec_path, doc = write_tiny_spec(tmp_path, **extra)
    for command in ("generate", "run"):
        assert main([command, "--spec", str(spec_path)]) == 2
        assert re.match(f"^error: {key}: '.*' holds a NUL byte, which no file path can hold$",
                        capsys.readouterr().err)
    assert list(tmp_path.rglob("*")) == [spec_path]


@pytest.mark.parametrize(
    "text, key",
    [('{"seed": 1, "seed": 2, "memory": {"capacity": 5}, "memory": {"capacity": 7}}', "seed"),
     ('{"greenhouses": [{"name": "GH-A"}], "memory": {"capacity": 5, "capacity": 7}}', "capacity")],
    ids=["top-level", "nested"],
)
def test_repeated_spec_key_exit_2_before_writing(tmp_path, capsys, text, key):
    # json would keep the last value of a key given twice; the spec refuses it
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    out = tmp_path / "out"
    for command in ("generate", "run"):
        assert main([command, "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec_path}: key '{key}' is repeated\n"
    assert not out.exists()


def test_unknown_spec_key_exit_2(tmp_path, capsys):
    spec_path, doc = write_tiny_spec(tmp_path, mystery=1)
    assert main(["generate", "--spec", str(spec_path)]) == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["spec", "compare", "csv"])
def test_directory_for_a_file_exit_2_names_it(tmp_path, capsys, where):
    folder = tmp_path / "d1"
    folder.mkdir()
    if where == "spec":
        args = ["run", "--spec", str(folder)]
    elif where == "compare":
        args = ["compare", str(folder), str(folder)]
    else:
        spec_path, doc = write_tiny_spec(tmp_path, greenhouses=[{"name": "real", "csv": str(folder)}])
        args = ["run", "--spec", str(spec_path)]
    assert main(args) == 2
    assert f"error: {folder} is a directory, not a file" in capsys.readouterr().err


def write_one_phase_curve(folder):
    """A one-phase curve and its boundaries file in ``folder``; returns the curve's path."""
    (folder / "curve.csv").write_text(
        "update_index,eval_index,phase,mse_total,mse_transpiration,mse_photosynthesis\n"
        "3,1,GH-A,0.5,0.25,0.75\n")
    (folder / "curve_boundaries.csv").write_text("phase,start_update\nGH-A,0\n")
    return folder / "curve.csv"


@pytest.mark.parametrize("where", ["generate", "generate-below", "compare"])
def test_file_for_a_directory_exit_2_names_it(tmp_path, capsys, where):
    file = tmp_path / "f1"
    file.write_text("")
    if where == "generate":
        args, named = ["generate", "--out", str(file)], file
    elif where == "generate-below":
        args, named = ["generate", "--out", str(file / "sub")], file / "sub"
    else:
        curve = write_one_phase_curve(tmp_path)
        args, named = ["compare", str(curve), str(curve), "--out", str(file / "x.csv")], file
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {named}: a file stands where a directory is needed\n"


def test_compare_missing_baseline_names_it(tmp_path, capsys):
    curve = write_one_phase_curve(tmp_path)
    missing = tmp_path / "missing.csv"
    assert main(["compare", str(curve), str(missing)]) == 2
    assert capsys.readouterr().err == f"error: file not found: {missing}\n"


@pytest.mark.parametrize("target", ["run/curve.csv", "run/curve_boundaries.csv",
                                    "base/curve.csv", "base/curve_boundaries.csv"])
def test_compare_out_onto_an_input_exit_2_writes_nothing(tmp_path, capsys, target):
    run, base = tmp_path / "run", tmp_path / "base"
    run.mkdir()
    base.mkdir()
    curve, baseline = write_one_phase_curve(run), write_one_phase_curve(base)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    folder, name = target.split("/")
    out = tmp_path / folder / ".." / folder / name  # another spelling of the same file
    assert main(["compare", str(curve), str(baseline), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --out {out}: compare reads this file; "
                                       f"choose another path\n")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--spec", "--seed", "--out", "--preset", "--retention", "--dump-memory"):
        assert flag in text
    assert "--replay-size" not in text and "--memory-strategy" not in text
