"""Published JSON Schemas for every file format the engine reads or writes."""

from __future__ import annotations

import json
from pathlib import Path

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ConfigError
from .registry import Dimension

DIMENSION_IDS = [dim.value for dim in Dimension]

_STRING_ARRAY = {"type": "array", "items": {"type": "string"}}

_DIMENSION_ENUM = {"type": "string", "enum": DIMENSION_IDS}

_WEIGHT_MAP = {
    "type": "object",
    "properties": {
        value: {"type": "number", "minimum": 0, "maximum": 1} for value in DIMENSION_IDS
    },
    "required": DIMENSION_IDS,
    "additionalProperties": False,
}

_EVIDENCE_MAP = {
    "type": "object",
    "properties": {value: _STRING_ARRAY for value in DIMENSION_IDS},
    "required": DIMENSION_IDS,
    "additionalProperties": False,
}

REGISTRY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Appraisal registry document",
    "type": "object",
    "properties": {
        "dimensions": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "id": _DIMENSION_ENUM,
                    # Empty keeps the bundled text; whitespace alone is rejected.
                    "display_name": {"type": "string", "pattern": "^$|\\S"},
                    "canonical_statement": {"type": "string", "pattern": "^$|\\S"},
                },
                "required": ["id"],
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

LEXICONS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Keyword and sentiment lexicons",
    "type": "object",
    "properties": {
        "dimensions": {
            "type": "object",
            "properties": {value: _STRING_ARRAY for value in DIMENSION_IDS},
            "additionalProperties": False,
        },
        "sentiment": {
            "type": "object",
            "properties": {"positive": _STRING_ARRAY, "negative": _STRING_ARRAY},
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

PROMPTS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Prompt templates",
    "type": "object",
    "properties": {
        "system_instruction": {"type": "string"},
        "section_labels": {
            "type": "object",
            "properties": {
                label: {"type": "string"}
                for label in ("profile", "situation", "appraisals", "candidates", "instruction")
            },
            "additionalProperties": False,
        },
        "appraisal_instruction": {"type": "string"},
        "baseline_instruction": {"type": "string"},
    },
    "additionalProperties": False,
}

PROFILE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "User profile",
    "type": "object",
    "properties": {
        "user_id": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "goals": _STRING_ARRAY,
        "preference_keywords": _STRING_ARRAY,
        "dietary_constraints": _STRING_ARRAY,
        "familiar_items": _STRING_ARRAY,
        "history_queries": _STRING_ARRAY,
    },
    "required": ["user_id"],
    "additionalProperties": False,
}

CANDIDATE_SCHEMA = {
    "type": "object",
    "properties": {
        "id": {"type": "string", "minLength": 1},
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "prep_time_minutes": {"type": "integer", "minimum": 1},
        "ingredients": _STRING_ARRAY,
        "tags": _STRING_ARRAY,
        "customization_options": {"type": "integer", "minimum": 0},
    },
    "required": ["id", "name", "prep_time_minutes"],
    "additionalProperties": False,
}

CANDIDATES_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Candidate set",
    "type": "array",
    "items": CANDIDATE_SCHEMA,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Run configuration",
    "type": "object",
    "properties": {
        "paths": {
            "type": "object",
            "properties": {
                "registry": {"type": ["string", "null"]},
                "lexicons": {"type": ["string", "null"]},
                "profile": {"type": ["string", "null"]},
                "candidates": {"type": ["string", "null"]},
                "prompts": {"type": ["string", "null"]},
            },
            "additionalProperties": False,
        },
        "scorer": {"type": "string", "enum": ["lexical", "remote"]},
        "realizer": {"type": "string", "enum": ["template", "llm"]},
        "top_k": {"type": "integer", "minimum": 1, "maximum": 6},
        "fallback": {"type": "boolean"},
        "filter_normative": {"type": "boolean"},
        "format": {"type": "string", "enum": ["json", "text"]},
    },
    "additionalProperties": False,
}

FIXTURE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Scenario fixture",
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "notes": {"type": "string"},
        "expected_dominant": {"type": "array", "items": _DIMENSION_ENUM},
        "profile": PROFILE_SCHEMA,
        "query": {
            "type": "object",
            "properties": {
                "text": {"type": "string", "minLength": 1},
                "timestamp": {"type": "string"},
            },
            "required": ["text"],
            "additionalProperties": False,
        },
        "candidates": CANDIDATES_SCHEMA,
    },
    "required": ["name", "notes", "expected_dominant", "profile", "query", "candidates"],
    "additionalProperties": False,
}

SALIENCE_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Salience profile output",
    "type": "object",
    "properties": {
        "scorer_id": {"type": "string"},
        "weights": _WEIGHT_MAP,
        "dominant": {"type": "array", "items": _DIMENSION_ENUM},
    },
    "required": ["scorer_id", "weights", "dominant"],
    "additionalProperties": False,
}

_RANKED_ENTRY_SCHEMA = {
    "type": "object",
    "properties": {
        "candidate_id": {"type": "string"},
        "composite": {"type": "number", "minimum": 0},
        "scores": _WEIGHT_MAP,
        "evidence": _EVIDENCE_MAP,
    },
    "required": ["candidate_id", "composite", "scores", "evidence"],
    "additionalProperties": False,
}

RANKING_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Ranked list output",
    "type": "object",
    "properties": {
        "entries": {"type": "array", "items": _RANKED_ENTRY_SCHEMA},
        "excluded": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "candidate_id": {"type": "string"},
                    "reason": {"type": "string"},
                },
                "required": ["candidate_id", "reason"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["entries", "excluded"],
    "additionalProperties": False,
}

_FINDING_SCHEMA = {
    "type": "object",
    "properties": {
        "dimension": _DIMENSION_ENUM,
        "display_name": {"type": "string"},
        "weight": {"type": "number", "minimum": 0, "maximum": 1},
        "score": {"type": "number", "minimum": 0, "maximum": 1},
        "evidence": _STRING_ARRAY,
    },
    "required": ["dimension", "display_name", "weight", "score", "evidence"],
    "additionalProperties": False,
}

PLAN_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Explanation plan output",
    "type": "object",
    "properties": {
        "candidate": CANDIDATE_SCHEMA,
        "dominant": {"type": "array", "items": _FINDING_SCHEMA},
        "per_dimension": {"type": "array", "items": _FINDING_SCHEMA},
        "context_summary": {"type": "string"},
        "composite": {"type": "number", "minimum": 0},
    },
    "required": ["candidate", "dominant", "per_dimension", "context_summary", "composite"],
    "additionalProperties": False,
}

_MENTION_SCHEMA = {
    "type": "object",
    "properties": {
        "dimensions": _STRING_ARRAY,
        "evidence": _STRING_ARRAY,
        "length": {"type": "integer", "minimum": 0},
    },
    "required": ["dimensions", "evidence", "length"],
    "additionalProperties": False,
}

COMPARISON_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Appraisal-vs-baseline comparison output",
    "type": "object",
    "properties": {"appraisal": _MENTION_SCHEMA, "baseline": _MENTION_SCHEMA},
    "required": ["appraisal", "baseline"],
    "additionalProperties": False,
}

SCHEMAS = {
    "registry": REGISTRY_SCHEMA,
    "lexicons": LEXICONS_SCHEMA,
    "prompts": PROMPTS_SCHEMA,
    "profile": PROFILE_SCHEMA,
    "candidates": CANDIDATES_SCHEMA,
    "config": CONFIG_SCHEMA,
    "fixture": FIXTURE_SCHEMA,
    "salience_output": SALIENCE_OUTPUT_SCHEMA,
    "ranking_output": RANKING_OUTPUT_SCHEMA,
    "plan_output": PLAN_OUTPUT_SCHEMA,
    "comparison_output": COMPARISON_OUTPUT_SCHEMA,
}


def load_document(source: str | Path | dict, what: str, schema: dict | None = None):
    """``source`` as a JSON document: parsed from its file unless already a dict.

    With ``schema``, the document is validated against it as ``validate`` does.
    """
    doc = source if isinstance(source, dict) else read_json(source, what)
    return doc if schema is None else validate(doc, schema, what)


def read_json(path: str | Path, what: str, loads=json.loads):
    """The document ``loads`` parses from the file ``path``; ConfigError unless it is UTF-8 JSON."""
    try:
        return loads(Path(path).read_text("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid UTF-8 JSON: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def validate(doc, schema: dict, what: str):
    """Return ``doc`` if ``schema`` accepts it, else raise ConfigError naming the JSON path.

    For example: ``config $.top_k: 9 is greater than the maximum of 6``.
    The validator is built from the schema without checking the schema
    against its metaschema, which would cost more than the validation.
    """
    error = best_match(Draft202012Validator(schema).iter_errors(doc))
    if error is not None:
        raise ConfigError(f"{what} {error.json_path}: {error.message}")
    return doc
