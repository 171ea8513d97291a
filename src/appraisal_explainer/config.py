"""Run configuration: defaults, JSON config file, CLI overrides, input loading."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .context import UserProfile
from .errors import ConfigError, DuplicateCandidate
from .schemas import CANDIDATES_SCHEMA, CONFIG_SCHEMA, PROFILE_SCHEMA, read_json, validate
from .scoring import Candidate, Catalog

jsonschema = None  # read only by bench/run.py:tracing_patches; delete with ROADMAP item 8's bench change

FORMAT_JSON = "json"
FORMAT_TEXT = "text"

# Keys of a config document, under "paths" and at the top level, in schema
# order; the CLI flags that override them have the same names.
PATH_KEYS = tuple(CONFIG_SCHEMA["properties"]["paths"]["properties"])
SETTING_KEYS = tuple(key for key in CONFIG_SCHEMA["properties"] if key != "paths")


class RunConfig(NamedTuple):
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


# Both loaders parse with config.json.loads, so a wrapper there times the parse.
def load_profile(path: str | Path) -> UserProfile:
    """The profile in ``path``, checked against ``PROFILE_SCHEMA``."""
    doc = read_json(path, "profile", json.loads)
    return UserProfile.from_dict(validate(doc, PROFILE_SCHEMA, f"profile file {path}"))


def load_candidates(path: str | Path) -> Catalog:
    """The candidate set in ``path``, checked against ``CANDIDATES_SCHEMA`` as a whole.

    Ids must be unique: the first id seen twice raises ``DuplicateCandidate``.
    This is the one id check, so ranking does not repeat it per query. The
    ``Catalog`` keeps each diet's split, so a query pays only for appraisal and ranking.
    """
    doc = read_json(path, "candidates", json.loads)
    validate(doc, CANDIDATES_SCHEMA, f"candidates file {path}")
    seen: set[str] = set()
    for record in doc:
        if record["id"] in seen:
            raise DuplicateCandidate(f"duplicate candidate id: {record['id']!r}")
        seen.add(record["id"])
    return Catalog([Candidate.from_dict(record) for record in doc])


def resolve_config(doc, flags: dict, out_dir: str | None = None) -> RunConfig:
    """Write ``flags`` over a config document, validate the result once, build it.

    ``flags`` maps config keys (the names of the CLI flags) to values; a
    setting of None or an empty path, in the flags or the document, is not
    given. A document or paths value that is not an object is left for the
    schema to reject. Every path given must exist and not be a directory; a
    pipe, such as a shell's ``<(...)``, is read like a file. A whole-number float
    ``top_k`` (JSON Schema counts 2.0 as an integer) becomes an int.
    """
    given = {key: flags[key] for key in SETTING_KEYS if flags.get(key) is not None}
    given_paths = {key: flags[key] for key in PATH_KEYS if flags.get(key)}
    if isinstance(doc, dict) and isinstance(doc.get("paths", {}), dict):
        doc = {**doc, **given, "paths": {**doc.get("paths", {}), **given_paths}}
    validate(doc, CONFIG_SCHEMA, "config")
    paths = {key: path or None for key, path in doc["paths"].items()}
    for key, path in paths.items():
        if path is not None and not Path(path).exists():
            raise ConfigError(f"{key} path does not exist: {path}")
        if path is not None and Path(path).is_dir():
            raise ConfigError(f"{key} path is not a file: {path}")
    settings = {key: value for key, value in doc.items() if key in SETTING_KEYS}
    if "top_k" in settings:
        settings["top_k"] = int(settings["top_k"])
    return RunConfig(
        **{f"{key}_path": path for key, path in paths.items()}, **settings, out_dir=out_dir
    )
