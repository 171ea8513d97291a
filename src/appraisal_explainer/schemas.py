"""Published JSON Schemas for every file format the engine reads or writes.

These schemas are the single description of each input format: candidates,
profile, config, registry, lexicons and prompts. No other module checks their
fields. Every loader checks its document with ``checker``, which compiles a
schema once into nested closures: one per schema node, with the node's type
test and keywords fused.

The compiler supports exactly the keywords the input schemas use, under JSON
Schema (draft 2020-12) semantics: ``type`` (a name, or a list of names, of
``object``, ``array``, ``string``, ``integer``, ``boolean`` and ``null``),
``properties``, ``additionalProperties: false``, ``required``, ``items``,
``minimum``, ``maximum``, ``minLength``, ``enum`` (of strings, on a string
node) and ``pattern``. A bool is not an integer, a whole float such as 2.0
is one, and NaN and the infinities are not; ``minLength`` counts code
points; ``pattern`` matches anywhere in the string, as ``re.search`` does.
The annotations ``$schema`` and ``title`` are ignored. Any other keyword, a
node without a type, or a supported keyword in another form raises
ValueError at compile time, so no schema edit can leave a field unchecked.

A compiled node accepts its value by returning, and rejects it by raising
the first fault it finds: a reason, and the JSON path from the document's root.
The same closures that decide a document word its rejection, as
``<what> $<path>: <reason>``, in jsonschema's wording for each keyword. The
first fault is the first in document order: object keys in the document's
order, array items by index; within one node the type comes first, then
``required``, then the other keywords. jsonschema is not imported at run time.
The tests use it as the oracle: the compiled check accepts exactly what it
accepts, and a rejection's path and reason are those of one of its errors.

The published schemas themselves, the documents ``appraise schemas``
prints, are unchanged by the compiler: it reads them and never rewrites them.
"""

from __future__ import annotations

import json
import re
from itertools import repeat
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .registry import Dimension

DIMENSION_IDS = [dim.value for dim in Dimension]
_DRAFT = "https://json-schema.org/draft/2020-12/schema"


def _closed(properties: dict, *required: str) -> dict:
    """An object schema of exactly ``properties``, of which ``required`` must be present."""
    schema = {"type": "object", "properties": properties}
    if required:
        schema["required"] = list(required)
    return {**schema, "additionalProperties": False}


def _document(title: str, schema: dict) -> dict:
    """``schema`` as a published top-level document."""
    return {"$schema": _DRAFT, "title": title, **schema}


_STRING = {"type": "string"}
_NONEMPTY_STRING = {"type": "string", "minLength": 1}
# At least one non-whitespace character; an empty string still reads "should be non-empty".
_VISIBLE_STRING = {"type": "string", "minLength": 1, "pattern": "\\S"}
# Empty keeps the bundled text; whitespace alone is rejected.
_TEXT_OVERRIDE = {"type": "string", "pattern": "^$|\\S"}
_STRING_ARRAY = {"type": "array", "items": _STRING}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_DIMENSION_ENUM = {"type": "string", "enum": DIMENSION_IDS}
_WEIGHT_MAP = _closed({value: _UNIT for value in DIMENSION_IDS}, *DIMENSION_IDS)
_EVIDENCE_MAP = _closed({value: _STRING_ARRAY for value in DIMENSION_IDS}, *DIMENSION_IDS)

REGISTRY_SCHEMA = _document("Appraisal registry document", _closed({
    "dimensions": {"type": "array", "items": _closed(
        {"id": _DIMENSION_ENUM, "display_name": _TEXT_OVERRIDE, "canonical_statement": _TEXT_OVERRIDE},
        "id",
    )},
}))

LEXICONS_SCHEMA = _document("Keyword and sentiment lexicons", _closed({
    "dimensions": _closed({value: _STRING_ARRAY for value in DIMENSION_IDS}),
    "sentiment": _closed({"positive": _STRING_ARRAY, "negative": _STRING_ARRAY}),
}))

PROMPTS_SCHEMA = _document("Prompt templates", _closed({
    "system_instruction": _STRING,
    "section_labels": _closed({
        label: _STRING
        for label in ("profile", "situation", "appraisals", "candidates", "instruction")
    }),
    "appraisal_instruction": _STRING,
    "baseline_instruction": _STRING,
}))

PROFILE_SCHEMA = _document("User profile", _closed(
    {
        "user_id": _NONEMPTY_STRING,
        "description": _STRING,
        **{key: _STRING_ARRAY for key in (
            "goals", "preference_keywords", "dietary_constraints", "familiar_items",
            "history_queries",
        )},
    },
    "user_id",
))

CANDIDATE_SCHEMA = _closed(
    {
        "id": _VISIBLE_STRING,
        "name": _VISIBLE_STRING,
        "description": _STRING,
        "prep_time_minutes": {"type": "integer", "minimum": 1},
        "ingredients": _STRING_ARRAY,
        "tags": _STRING_ARRAY,
        "customization_options": {"type": "integer", "minimum": 0},
    },
    "id", "name", "prep_time_minutes",
)

CANDIDATES_SCHEMA = _document("Candidate set", {"type": "array", "items": CANDIDATE_SCHEMA})

CONFIG_SCHEMA = _document("Run configuration", _closed({
    "paths": _closed({
        key: {"type": ["string", "null"]}
        for key in ("registry", "lexicons", "profile", "candidates", "prompts")
    }),
    "scorer": {"type": "string", "enum": ["lexical", "remote"]},
    "realizer": {"type": "string", "enum": ["template", "llm"]},
    "top_k": {"type": "integer", "minimum": 1, "maximum": 6},
    "fallback": {"type": "boolean"},
    "filter_normative": {"type": "boolean"},
    "format": {"type": "string", "enum": ["json", "text"]},
}))

FIXTURE_SCHEMA = _document("Scenario fixture", _closed(
    {
        "name": _NONEMPTY_STRING,
        "notes": _STRING,
        "expected_dominant": {"type": "array", "items": _DIMENSION_ENUM},
        "profile": PROFILE_SCHEMA,
        "query": _closed({"text": _NONEMPTY_STRING, "timestamp": _STRING}, "text"),
        "candidates": CANDIDATES_SCHEMA,
    },
    "name", "notes", "expected_dominant", "profile", "query", "candidates",
))

SALIENCE_OUTPUT_SCHEMA = _document("Salience profile output", _closed(
    {
        "scorer_id": _STRING,
        "weights": _WEIGHT_MAP,
        "dominant": {"type": "array", "items": _DIMENSION_ENUM},
    },
    "scorer_id", "weights", "dominant",
))

_COMPOSITE = {"type": "number", "minimum": 0}

_RANKED_ENTRY_SCHEMA = _closed(
    {"candidate_id": _STRING, "composite": _COMPOSITE, "scores": _WEIGHT_MAP, "evidence": _EVIDENCE_MAP},
    "candidate_id", "composite", "scores", "evidence",
)

RANKING_OUTPUT_SCHEMA = _document("Ranked list output", _closed(
    {
        "entries": {"type": "array", "items": _RANKED_ENTRY_SCHEMA},
        "excluded": {"type": "array", "items": _closed(
            {"candidate_id": _STRING, "reason": _STRING}, "candidate_id", "reason"
        )},
    },
    "entries", "excluded",
))

_FINDING_SCHEMA = _closed(
    {
        "dimension": _DIMENSION_ENUM,
        "display_name": _STRING,
        "weight": _UNIT,
        "score": _UNIT,
        "evidence": _STRING_ARRAY,
    },
    "dimension", "display_name", "weight", "score", "evidence",
)

PLAN_OUTPUT_SCHEMA = _document("Explanation plan output", _closed(
    {
        "candidate": CANDIDATE_SCHEMA,
        "dominant": {"type": "array", "items": _FINDING_SCHEMA},
        "per_dimension": {"type": "array", "items": _FINDING_SCHEMA},
        "context_summary": _STRING,
        "composite": _COMPOSITE,
    },
    "candidate", "dominant", "per_dimension", "context_summary", "composite",
))

_MENTION_SCHEMA = _closed(
    {"dimensions": _STRING_ARRAY, "evidence": _STRING_ARRAY, "length": {"type": "integer", "minimum": 0}},
    "dimensions", "evidence", "length",
)

COMPARISON_OUTPUT_SCHEMA = _document("Appraisal-vs-baseline comparison output", _closed(
    {"appraisal": _MENTION_SCHEMA, "baseline": _MENTION_SCHEMA}, "appraisal", "baseline"
))

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


_KEYWORDS = frozenset({
    "$schema", "title", "type", "properties", "additionalProperties", "required", "items",
    "minimum", "maximum", "minLength", "enum", "pattern",
})


class _Fault(Exception):
    """The first fault of a rejected value: why, and the keys from the value up to the root."""

    def __init__(self, reason: str) -> None:
        self.reason, self.keys = reason, []

    def json_path(self) -> str:
        """The path as jsonschema words it: ``$``, then ``[index]``, ``.name`` or ``['other']`` per key."""
        return "$" + "".join(
            f"[{key}]" if isinstance(key, int) else f".{key}" if re.match("^[a-zA-Z][a-zA-Z0-9_]*$", key)
            else "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
            for key in reversed(self.keys)
        )


def compile_schema(schema: dict) -> Callable[[object], None]:
    """A check that returns when ``schema`` accepts its argument and raises its first fault otherwise.

    Each node becomes one closure that tests its type and its own keywords
    together; a list of types, which takes no other keyword, is the union of
    one closure per type.
    """
    if not isinstance(schema, dict) or "type" not in schema:
        raise ValueError(f"a schema node is an object with a type, not {schema!r}")
    unsupported = sorted(schema.keys() - _KEYWORDS)
    if schema.get("additionalProperties", False) is not False:
        unsupported.append("additionalProperties other than false")
    enum = schema.get("enum", ())
    if "enum" in schema and not (schema["type"] == "string" and all(map(isinstance, enum, repeat(str)))):
        unsupported.append("enum other than of strings, with type string")
    names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
    if len(names) > 1 and schema.keys() - {"$schema", "title", "type"}:
        unsupported.append("keywords beside a list of types")
    if unsupported:
        raise ValueError(f"unsupported schema keywords: {', '.join(unsupported)}")
    wrong_type = "is not of type " + ", ".join(map(repr, names))
    if len(names) == 1:
        return _compile_node(names[0], schema, wrong_type)
    branches = [compile_schema({"type": name}) for name in names]

    def check_union(value) -> None:
        for check in branches:
            try:
                return check(value)
            except _Fault:
                pass
        raise _Fault(f"{value!r} {wrong_type}")

    return check_union


def _compile_node(name: str, schema: dict, wrong_type: str) -> Callable[[object], None]:
    """The check of ``schema``'s keywords for an instance of the type ``name``."""
    get = schema.get
    if name == "object":
        check_property = {key: compile_schema(sub) for key, sub in get("properties", {}).items()}.get
        required, closed = get("required", ()), "additionalProperties" in schema
        required_keys = frozenset(required)

        def check_object(value) -> None:
            if not isinstance(value, dict):
                raise _Fault(f"{value!r} {wrong_type}")
            if not required_keys <= value.keys():
                missing = next(key for key in required if key not in value)
                raise _Fault(f"{missing!r} is a required property")
            for key, item in value.items():
                check = check_property(key)
                if check is None:
                    if closed:
                        extras = sorted(extra for extra in value if check_property(extra) is None)
                        listed = f"{', '.join(map(repr, extras))} {'was' if len(extras) == 1 else 'were'}"
                        raise _Fault(f"Additional properties are not allowed ({listed} unexpected)")
                else:
                    try:
                        check(item)
                    except _Fault as fault:
                        fault.keys.append(key)
                        raise

        return check_object
    if name == "array":
        check_item = compile_schema(schema["items"]) if "items" in schema else lambda value: None
        strings = get("items") == {"type": "string"}

        def check_array(value) -> None:
            if not isinstance(value, list):
                raise _Fault(f"{value!r} {wrong_type}")
            if strings and all(map(isinstance, value, repeat(str))):  # without a call per item
                return
            for index, item in enumerate(value):
                try:
                    check_item(item)
                except _Fault as fault:
                    fault.keys.append(index)
                    raise

        return check_array
    if name == "string":
        min_length, pattern, enum = get("minLength", 0), get("pattern"), get("enum")
        search, members = re.compile(pattern or "").search, frozenset(enum or ())

        def check_string(value) -> None:
            if not isinstance(value, str):
                raise _Fault(f"{value!r} {wrong_type}")
            if len(value) < min_length:
                raise _Fault(f"{value!r} {'should be non-empty' if min_length == 1 else 'is too short'}")
            if pattern is not None and search(value) is None:
                raise _Fault(f"{value!r} does not match {pattern!r}")
            if enum is not None and value not in members:
                raise _Fault(f"{value!r} is not one of {enum!r}")

        return check_string
    if name == "integer":
        low, high = get("minimum", float("-inf")), get("maximum", float("inf"))

        def check_integer(value) -> None:
            if type(value) is not int and (  # one test in the common case
                not value.is_integer() if isinstance(value, float)
                else isinstance(value, bool) or not isinstance(value, int)
            ):
                raise _Fault(f"{value!r} {wrong_type}")
            if value < low:
                raise _Fault(f"{value!r} is less than the minimum of {low!r}")
            if value > high:
                raise _Fault(f"{value!r} is greater than the maximum of {high!r}")

        return check_integer
    if name == "boolean" or name == "null":

        def check_scalar(value) -> None:
            if not (isinstance(value, bool) if name == "boolean" else value is None):
                raise _Fault(f"{value!r} {wrong_type}")

        return check_scalar
    raise ValueError(f"unsupported schema type {name!r}")


_compiled: dict[int, tuple[dict, Callable[[object], None]]] = {}


def checker(schema: dict) -> Callable[[object], None]:
    """``compile_schema(schema)``, compiled on first use and kept for the process."""
    entry = _compiled.get(id(schema))
    if entry is None:  # the schema is kept with its check, so its id is never reused
        entry = _compiled[id(schema)] = (schema, compile_schema(schema))
    return entry[1]


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
    """Return ``doc`` if ``schema`` accepts it, else raise ConfigError naming the first fault.

    For example: ``config $.top_k: 9 is greater than the maximum of 6``.
    """
    try:
        checker(schema)(doc)
    except _Fault as fault:
        raise ConfigError(f"{what} {fault.json_path()}: {fault.reason}") from None
    return doc
