"""The spec schema, the one statement of every setting's type and bounds.

``validate_spec`` checks a spec against ``EXPERIMENT_SCHEMA`` and raises
``SpecError``, and each config built from a spec, in code or from a
checkpoint, checks its part of it with ``check_fields``. This module
imports nothing from the package.
"""

from __future__ import annotations

import math
import operator


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
    keyword by keyword in the schema's order, as JSON Schema 2020-12 does.
    Stricter than JSON Schema in two ways: an integer is an int, never an
    integral float, and a number is finite, never NaN or an infinity (which
    Python's ``json`` reads)."""
    for keyword, arg in schema.items():
        if keyword == "type":
            kinds = [arg] if isinstance(arg, str) else arg
            if not any(_is(value, kind) for kind in kinds):
                yield path, f"{value!r} is not of type {' or '.join(map(repr, kinds))}"
            elif isinstance(value, float) and not math.isfinite(value):
                yield path, f"{value!r} is not a finite number"
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


def check_fields(obj, properties: dict) -> None:
    """Raise ``ValueError("<Class>.<field>: <message>")`` for the first of
    ``properties`` whose attribute of ``obj`` breaks its schema."""
    for name, schema in properties.items():
        for _, message in _schema_errors(getattr(obj, name), schema, ()):
            raise ValueError(f"{type(obj).__name__}.{name}: {message}")
