"""Toolkit configuration: prefixes, vocabulary IRIs, tolerance, CD directories, server.

The statistical vocabularies in the example datasets are abbreviated; the
actual namespace IRIs are a local choice and live here (or in a user config
file) rather than being hard-coded across modules.  ``rdf:``/``xsd:`` are the
W3C namespaces and ``scv:`` is the published SCOVO namespace; the rest are
minted under example.org.

The directories of ``cd_dirs`` must exist when a command starts, but their
CDs are read only when the run first needs a CD: a dataset whose functions
are all arith1 base operations never opens them.
"""

from __future__ import annotations

import json
import math

from .errors import ToolkitError
from .rdf import RDF_NS, RDFS_NS, XSD_NS, Iri, _SCHEME_RE
from .value import Value, set_field

DEFAULT_PREFIXES: dict[str, str] = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "scv": "http://purl.org/NET/scovo#",
    "sl": "http://example.org/ns/sl#",
    "env": "http://example.org/ns/env#",
    "ahs": "http://example.org/ns/ahs#",
    "ahs2": "http://example.org/ns/ahs2#",
}

DEFAULT_REGION_TYPE = DEFAULT_PREFIXES["env"] + "Region"
MAX_PORT = 65535


class ConfigError(ToolkitError):
    pass


class StatVocab(Value):
    """The RDF terms the annotation layer reads and writes."""

    __slots__ = (
        "computed_from", "function", "arguments", "arg_position", "arg_value", "dimension", "value"
    )

    def __init__(
        self,
        computed_from: Iri,
        function: Iri,
        arguments: Iri,
        arg_position: Iri,
        arg_value: Iri,
        dimension: Iri,
        value: Iri,
    ):
        set_field(self, "computed_from", computed_from)
        set_field(self, "function", function)
        set_field(self, "arguments", arguments)
        set_field(self, "arg_position", arg_position)
        set_field(self, "arg_value", arg_value)
        set_field(self, "dimension", dimension)
        set_field(self, "value", value)

    @classmethod
    def from_prefixes(cls, prefixes: dict[str, str]) -> "StatVocab":
        sl = prefixes["sl"]
        scv = prefixes["scv"]
        rdf = prefixes["rdf"]
        return cls(
            computed_from=Iri(sl + "computedFrom"),
            function=Iri(sl + "function"),
            arguments=Iri(sl + "arguments"),
            arg_position=Iri(sl + "argPosition"),
            arg_value=Iri(sl + "argValue"),
            dimension=Iri(scv + "dimension"),
            value=Iri(rdf + "value"),
        )


DEFAULT_VOCAB = StatVocab.from_prefixes(DEFAULT_PREFIXES)


class ToolkitConfig(Value):
    __slots__ = (
        *("prefixes", "tolerance", "region_type", "cd_dirs"),
        *("bind_address", "port", "cd_directory", "base_iri"),  # server settings
    )

    def __init__(
        self,
        prefixes: dict[str, str] | None = None,
        tolerance: float = 1e-9,
        region_type: str = DEFAULT_REGION_TYPE,
        cd_dirs: tuple[str, ...] = (),
        bind_address: str = "127.0.0.1",
        port: int = 8080,
        cd_directory: str | None = None,
        base_iri: str | None = None,
    ):
        prefixes = dict(DEFAULT_PREFIXES) if prefixes is None else prefixes
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ConfigError("tolerance must be a finite number >= 0")
        for prefix, iri in prefixes.items():
            if not _SCHEME_RE.match(iri):
                raise ConfigError(f"prefix {prefix!r} maps to a non-absolute IRI: {iri!r}")
        if base_iri is not None and base_iri.endswith("#"):
            raise ConfigError("base_iri must not end with '#'")
        if not 0 <= port <= MAX_PORT:
            raise ConfigError(f"port must be from 0 to {MAX_PORT}, got {port}")
        set_field(self, "prefixes", prefixes)
        set_field(self, "tolerance", tolerance)
        set_field(self, "region_type", region_type)
        set_field(self, "cd_dirs", cd_dirs)
        set_field(self, "bind_address", bind_address)
        set_field(self, "port", port)
        set_field(self, "cd_directory", cd_directory)
        set_field(self, "base_iri", base_iri)

    @property
    def vocab(self) -> StatVocab:
        return StatVocab.from_prefixes(self.prefixes)


def _is_str(value) -> bool:
    return isinstance(value, str)


# The JSON value each config key takes, as a test and its description.
_KEY_TYPES = {
    "prefixes": (
        lambda v: isinstance(v, dict) and all(map(_is_str, v.values())),
        "an object of string values",
    ),
    "tolerance": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "region_type": (_is_str, "a string"),
    "cd_dirs": (lambda v: isinstance(v, list) and all(map(_is_str, v)), "a list of strings"),
    "bind_address": (_is_str, "a string"),
    "port": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "cd_directory": (lambda v: v is None or _is_str(v), "a string or null"),
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
    if "prefixes" in kwargs:
        merged = dict(DEFAULT_PREFIXES)
        merged.update(kwargs["prefixes"])
        kwargs["prefixes"] = merged
    if "cd_dirs" in kwargs:
        kwargs["cd_dirs"] = tuple(kwargs["cd_dirs"])
    return ToolkitConfig(**{**kwargs, **(overrides or {})})
