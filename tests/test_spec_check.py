"""The in-package spec checker: held to jsonschema as an oracle, strict
about integers and finite numbers, and no longer pulling jsonschema into
any command."""

import copy
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ghreplay.cli import main
from ghreplay.climate import PRESETS, GreenhouseParams
from ghreplay.experiment import (
    EXPERIMENT_SCHEMA,
    SpecError,
    _schema_errors,
    desk_spec,
    paper_spec,
    validate_spec,
)
from ghreplay.memory import MemoryConfig, SubstitutionStrategy
from ghreplay.model import ModelConfig
from ghreplay.trainer import ScenarioConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")
SUPPORTED_KEYWORDS = {
    "$schema", "type", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "minLength", "minItems", "items", "required", "properties", "additionalProperties",
}
JSON_TYPES = {"object", "array", "string", "integer", "number", "null"}

# values a mutation puts in place: every JSON type, integral floats, bounds and their neighbours
VALUES = [
    None, True, False, 0, 1, -1, 2, 16, 24, 25, 2**64 - 1, 2**64, 0.0, 0.5, 1.0, 16.0, -1.0,
    1.5, 24.0, 1e300, float("nan"), float("inf"), float("-inf"), "", "x", "GH-B", "per-sample",
    "per-row", [], [{}], [{"name": "GH-B"}], [{"name": ""}], [{"name": "GH-Z", "csv": ""}], {},
    {"name": "GH-Z"}, {"name": "GH-Z", "params": {}, "csv": "x"}, {"i_max": 0},
    {"day_length_h": 24}, {"noise_sd": 0}, {"t_amp": 2.5}, {"surprise": 1},
]


def schema_keywords(schema):
    """Every (keyword, argument) pair of ``schema`` and of its subschemas."""
    for keyword, arg in schema.items():
        yield keyword, arg
        if keyword == "items":
            yield from schema_keywords(arg)
        elif keyword == "properties":
            for sub in arg.values():
                yield from schema_keywords(sub)


EXTRA_KEYS = sorted({name for keyword, arg in schema_keywords(EXPERIMENT_SCHEMA)
                     if keyword == "properties" for name in arg} | {"surprise"})


# the configs that check their fields against parts of the schema when built
CONFIGS = (ModelConfig, MemoryConfig, ScenarioConfig, GreenhouseParams)


def test_every_schema_keyword_is_one_the_checker_implements():
    pairs = list(schema_keywords(EXPERIMENT_SCHEMA))
    for config in CONFIGS:
        pairs += [pair for sub in config.SCHEMA.values() for pair in schema_keywords(sub)]
    assert {keyword for keyword, _ in pairs} <= SUPPORTED_KEYWORDS
    assert all(arg is False for keyword, arg in pairs if keyword == "additionalProperties")
    for keyword, arg in pairs:
        if keyword == "type":
            assert set([arg] if isinstance(arg, str) else arg) <= JSON_TYPES
    # a keyword the checker does not implement is an error, never silently passed
    for schema in ({"anyOf": [{"type": "integer"}]}, {"additionalProperties": {"type": "integer"}}):
        with pytest.raises(ValueError, match="is not supported"):
            list(_schema_errors({"x": 1}, schema, ()))


def test_config_schemas_name_fields_and_reuse_the_spec_schema():
    spec_parts = {id(sub) for keyword, arg in schema_keywords(EXPERIMENT_SCHEMA)
                  if keyword == "properties" for sub in arg.values()}
    for config in CONFIGS:
        names = {f.name for f in dataclasses.fields(config)}
        for name, sub in config.SCHEMA.items():
            assert name in names, f"{config.__name__}.SCHEMA names no field {name!r}"
            # each bound is stated once: only the data's widths are not spec settings
            if (config, name) not in ((ModelConfig, "input_dim"), (ModelConfig, "output_dim")):
                assert id(sub) in spec_parts, f"{config.__name__}.{name}"


def test_strategy_enum_matches_substitution_strategy():
    enum = EXPERIMENT_SCHEMA["properties"]["memory"]["properties"]["strategy"]["enum"]
    assert enum == [strategy.value for strategy in SubstitutionStrategy]


def spec_paths(doc, path=()):
    """Every path below ``doc``'s root, containers before their contents."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from spec_paths(value, path + (key,))


def containers(doc):
    return [()] + [p for p in spec_paths(doc) if isinstance(at(doc, p), dict)]


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    at(out, path[:-1])[path[-1]] = copy.deepcopy(value)
    return out


def deleted(doc, path):
    out = copy.deepcopy(doc)
    del at(out, path[:-1])[path[-1]]
    return out


def extended(doc, path, key, value):
    out = copy.deepcopy(doc)
    at(out, path)[key] = copy.deepcopy(value)
    return out


def single_mutations(doc):
    """Every value replaced by every test value, every key deleted, and an
    extra key of each known name at every object."""
    for path in spec_paths(doc):
        for value in VALUES:
            yield replaced(doc, path, value)
        yield deleted(doc, path)
    for path in containers(doc):
        for key in EXTRA_KEYS:
            yield extended(doc, path, key, VALUES[len(key) % len(VALUES)])


def random_mutation(rng, doc):
    """Two to four random replacements, deletions or extra keys in turn."""
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["replace", "delete", "extend"])
        if kind == "extend":
            doc = extended(doc, rng.choice(containers(doc)), rng.choice(EXTRA_KEYS),
                           rng.choice(VALUES))
            continue
        paths = list(spec_paths(doc))
        if paths:
            path = rng.choice(paths)
            doc = replaced(doc, path, rng.choice(VALUES)) if kind == "replace" else deleted(doc, path)
    return doc


def checker_verdict(doc):
    """The dotted path ``validate_spec`` reports, or None if it accepts."""
    try:
        validate_spec(doc)
    except SpecError as exc:
        return str(exc).split(": ", 1)[0]
    return None


def first_error(validator, doc):
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    return errors[0] if errors else None


def dotted(error):
    return None if error is None else ".".join(map(str, error.absolute_path)) or "spec"


def greenhouse_error(doc):
    """The path of the first greenhouse that repeats a name, gives both
    ``params`` and ``csv``, or gives neither and names no preset."""
    names = [entry["name"] for entry in doc["greenhouses"]]
    for k, entry in enumerate(doc["greenhouses"]):
        sources = {"params", "csv"} & entry.keys()
        if entry["name"] in names[:k] or not (sources or entry["name"] in PRESETS):
            return f"greenhouses.{k}.name"
        if len(sources) == 2:
            return f"greenhouses.{k}"
    return None


def test_checker_agrees_with_jsonschema_on_mutated_specs():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(EXPERIMENT_SCHEMA)
    # the checker's two intended differences: an integer is an int, never an
    # integral float, and a number is finite
    strict_types = validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda _, v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                and (isinstance(v, int) or math.isfinite(v))),
    })
    strict = jsonschema.validators.extend(jsonschema.Draft202012Validator,
                                          type_checker=strict_types)(EXPERIMENT_SCHEMA)
    rng = random.Random(20261018)
    docs = []
    for spec in (desk_spec(), paper_spec()):
        docs += [spec, *single_mutations(spec)]
        docs += [random_mutation(rng, spec) for _ in range(1100)]
    assert len(docs) >= 5000
    integral_floats = non_finite = rejected = 0
    for doc in docs:
        got = checker_verdict(doc)
        error = first_error(strict, doc)
        expected = dotted(error) or greenhouse_error(doc)
        assert got == expected, json.dumps(doc)
        rejected += got is not None
        if dotted(first_error(validator, doc)) != dotted(error):
            # jsonschema takes 16.0 for an integer and NaN or inf for a
            # number; the checker reports them
            assert error.validator == "type" and isinstance(error.instance, float), json.dumps(doc)
            if math.isfinite(error.instance):
                assert error.validator_value == "integer" and error.instance.is_integer()
                integral_floats += 1
            else:
                assert "number" in error.validator_value, json.dumps(doc)
                non_finite += 1
    # per spec, at least NaN in both of its number fields and inf in learning_rate
    assert integral_floats > 100 and non_finite >= 6
    assert 1000 < rejected < len(docs) - 100


@pytest.mark.parametrize("key, value", [
    ("model.hidden_dim", 16.0),
    ("scenario.batch_size", 100.0),
    ("memory.capacity", 2000.0),
    ("data.window_len", 50.0),
    ("seed", 1.0),
    ("seed", True),
    ("seed", 2**64),
])
def test_integer_fields_take_ints_that_fit_exit_2(tmp_path, capsys, key, value):
    doc = value
    for name in reversed(key.split(".")):
        doc = {name: doc}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"{key}: {value!r} is" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, text", [
    ("memory.substitution_probability", "nan", '{"memory": {"substitution_probability": NaN}}'),
    ("greenhouses.0.params.noise_sd", "inf",
     '{"greenhouses": [{"name": "GH-Q", "params": {"noise_sd": Infinity}}]}'),
    ("model.learning_rate", "inf", '{"model": {"learning_rate": Infinity}}'),
    ("model.grad_clip", "-inf", '{"model": {"grad_clip": -Infinity}}'),
])
def test_number_fields_take_finite_numbers_exit_2(tmp_path, capsys, key, value, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"{key}: {value} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_epsilon", 1e-8),
])
def test_adam_constants_are_not_spec_keys_exit_2(tmp_path, capsys, key, value):
    # Adam runs at its published constants; a spec that names one, even at its value, is refused
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"model": {key: value}}))
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"model: Additional properties are not allowed ('{key}' unexpected)" in err
    assert not out.exists()


def run_python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_jsonschema_unloaded():
    out = run_python("import ghreplay.cli, sys; print('jsonschema' in sys.modules)")
    assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr


def test_desk_commands_run_without_jsonschema(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"days_per_phase": 3, "scenario": {"test_size": 100}}))
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "from ghreplay.cli import main; sys.exit(main(sys.argv[1:]))")
    for command in ("generate", "run"):
        out = run_python(code, command, "--preset", "desk", "--spec", str(spec),
                         "--out", str(tmp_path / "out"), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "curve.csv").exists()
