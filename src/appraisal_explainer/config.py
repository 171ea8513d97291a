"""Run configuration: defaults, JSON config file, CLI overrides, input loading."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .context import UserProfile
from .errors import ConfigError, InvalidRecord
from .schemas import CANDIDATES_SCHEMA, CONFIG_SCHEMA, PROFILE_SCHEMA, read_json, validate
from .scoring import Candidate

FORMAT_JSON = "json"
FORMAT_TEXT = "text"

# Keys of a config document, under "paths" and at the top level; the CLI
# flags that override them have the same names.
PATH_KEYS = ("registry", "lexicons", "profile", "candidates", "prompts")
SETTING_KEYS = ("scorer", "realizer", "top_k", "fallback", "filter_normative", "format")


@dataclass
class RunConfig:
    """Everything one command invocation needs, resolved and validated."""

    registry_path: str | None = None
    lexicons_path: str | None = None
    profile_path: str | None = None
    candidates_path: str | None = None
    prompts_path: str | None = None
    scorer: str = "lexical"
    realizer: str = "template"
    top_k: int = 3
    fallback: bool = False
    filter_normative: bool = True
    format: str = FORMAT_TEXT
    out_dir: str | None = None


def _validated_json(path: str | Path, parse, schema: dict, what: str):
    """``parse`` of the JSON document in ``path``, which checks it against ``schema``.

    ``parse`` accepts exactly what ``schema`` does, without jsonschema; a
    document it rejects is validated again by jsonschema only to word the error.
    """
    doc = read_json(path, what, json.loads)  # via config.json, so a wrapper there times it
    try:
        return parse(doc)
    except InvalidRecord as rejected:
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"{what} file {path} failed validation: {exc.message}") from exc
        raise ConfigError(f"{what} file {path} failed validation: {rejected}") from rejected


def parse_candidates(doc) -> list[Candidate]:
    """The candidates ``doc`` lists; InvalidRecord unless ``CANDIDATES_SCHEMA`` accepts it."""
    if not isinstance(doc, list):
        raise InvalidRecord("a candidate set is a list")
    return [Candidate.from_dict(record) for record in doc]


def load_profile(path: str | Path) -> UserProfile:
    return _validated_json(path, UserProfile.from_dict, PROFILE_SCHEMA, "profile")


def load_candidates(path: str | Path) -> list[Candidate]:
    return _validated_json(path, parse_candidates, CANDIDATES_SCHEMA, "candidates")


def resolve_config(doc, flags: dict, out_dir: str | None = None) -> RunConfig:
    """Write ``flags`` over a config document, validate the result once, build it.

    ``flags`` maps config keys (the names of the CLI flags) to values; a
    setting of None or an empty path is not given. A document or paths value
    that is not an object is left for the schema to reject. Every path must
    exist. A whole-number float ``top_k`` (JSON Schema counts 2.0 as an
    integer) becomes an int.
    """
    given = {key: flags[key] for key in SETTING_KEYS if flags.get(key) is not None}
    given_paths = {key: flags[key] for key in PATH_KEYS if flags.get(key)}
    if isinstance(doc, dict) and isinstance(doc.get("paths", {}), dict):
        doc = {**doc, **given, "paths": {**doc.get("paths", {}), **given_paths}}
    validate(doc, CONFIG_SCHEMA, "config")
    paths = doc["paths"]
    for key in PATH_KEYS:
        if paths.get(key) is not None and not Path(paths[key]).exists():
            raise ConfigError(f"{key} path does not exist: {paths[key]}")
    settings = {key: value for key, value in doc.items() if key in SETTING_KEYS}
    if "top_k" in settings:
        settings["top_k"] = int(settings["top_k"])
    return RunConfig(
        **{f"{key}_path": path for key, path in paths.items()}, **settings, out_dir=out_dir
    )
