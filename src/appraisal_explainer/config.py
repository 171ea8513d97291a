"""Run configuration: defaults, JSON config file, CLI overrides, input loading."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .context import UserProfile
from .errors import ConfigError
from .schemas import (
    CANDIDATES_SCHEMA, CONFIG_SCHEMA, NOT_ACCEPTED, PROFILE_SCHEMA, checker, read_json, validate,
)
from .scoring import Candidate

# jsonschema, imported by the first rejected profile or candidate set to word
# its error. A module-level name only because the traced benchmark
# (bench/run.py:tracing_patches) rebinds it; delete it with ROADMAP item 5's
# benchmark change.
jsonschema = None

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


def _validated_json(path: str | Path, schema: dict, what: str):
    """The JSON document in ``path`` if ``schema`` accepts it, else ConfigError.

    The compiled check of ``schema`` decides; a document it rejects is
    validated again by jsonschema only to word the error.
    """
    global jsonschema
    doc = read_json(path, what, json.loads)  # via config.json, so a wrapper there times it
    if checker(schema)(doc):
        return doc
    if jsonschema is None:
        import jsonschema
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"{what} file {path} failed validation: {exc.message}") from exc
    raise ConfigError(f"{what} file {path} failed validation: {NOT_ACCEPTED}")


def load_profile(path: str | Path) -> UserProfile:
    """The profile in ``path``, checked against ``PROFILE_SCHEMA``."""
    return UserProfile.from_dict(_validated_json(path, PROFILE_SCHEMA, "profile"))


def load_candidates(path: str | Path) -> list[Candidate]:
    """The candidate set in ``path``, checked against ``CANDIDATES_SCHEMA`` as a whole."""
    doc = _validated_json(path, CANDIDATES_SCHEMA, "candidates")
    return [Candidate.from_dict(record) for record in doc]


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
