"""Toolkit configuration: tolerance, CD directories and server settings.

A config file is a JSON object with at most the keys of ``_KEY_TYPES``; any
other key is a usage error, so a typo or a key of an older release does not
pass unnoticed.  The RDF terms a dataset is read with are fixed by the data
format and live in ``annotations``, not here.

The directories of ``cd_dirs`` must exist when a command starts, but their
CDs are read only when the run first needs a CD: a dataset whose functions
are all arith1 base operations never opens them.
"""

from __future__ import annotations

import json
import math
import re

from .errors import ToolkitError
from .value import Value, set_field

MAX_PORT = 65535
# An ASCII control character or a space: in a bind address it fails the
# socket call, and in a base IRI it would go verbatim into a header line.
_CONTROL_OR_SPACE = re.compile(r"[\x00-\x20\x7f]")


class ConfigError(ToolkitError):
    pass


class ToolkitConfig(Value):
    __slots__ = ("tolerance", "cd_dirs", "bind_address", "port", "base_iri")

    def __init__(
        self,
        tolerance: float = 1e-9,
        cd_dirs: tuple[str, ...] = (),
        bind_address: str = "127.0.0.1",
        port: int = 8080,
        base_iri: str | None = None,
    ):
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ConfigError("tolerance must be a finite number >= 0")
        if base_iri is not None and base_iri.endswith("#"):
            raise ConfigError("base_iri must not end with '#'")
        for key, text in (("bind_address", bind_address), ("base_iri", base_iri)):
            if text is not None and _CONTROL_OR_SPACE.search(text):
                raise ConfigError(f"{key} must not contain a control character or space: {text!r}")
        if not 0 <= port <= MAX_PORT:
            raise ConfigError(f"port must be from 0 to {MAX_PORT}, got {port}")
        set_field(self, "tolerance", tolerance)
        set_field(self, "cd_dirs", cd_dirs)
        set_field(self, "bind_address", bind_address)
        set_field(self, "port", port)
        set_field(self, "base_iri", base_iri)


def _is_str(value) -> bool:
    return isinstance(value, str)


# The JSON value each config key takes, as a test and its description.
_KEY_TYPES = {
    "tolerance": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "cd_dirs": (lambda v: isinstance(v, list) and all(map(_is_str, v)), "a list of strings"),
    "bind_address": (_is_str, "a string"),
    "port": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "base_iri": (lambda v: v is None or _is_str(v), "a string or null"),
}


def load_config(path: str, overrides: dict | None = None) -> ToolkitConfig:
    """Read a JSON config file; unknown keys are rejected to catch typos.

    ``overrides``, the values of command-line flags, replace the file's
    values of the same keys.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(raw) - _KEY_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in raw.items():
        is_valid, expected = _KEY_TYPES[key]
        if not is_valid(value):
            raise ConfigError(f"bad config {path}: {key} must be {expected}")

    kwargs = dict(raw)
    if "cd_dirs" in kwargs:
        kwargs["cd_dirs"] = tuple(kwargs["cd_dirs"])
    return ToolkitConfig(**{**kwargs, **(overrides or {})})
