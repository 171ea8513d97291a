"""The compiled schema checks accept exactly what jsonschema accepts."""

import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from appraisal_explainer import config, schemas
from appraisal_explainer.errors import ConfigError
from appraisal_explainer.schemas import (
    CANDIDATE_SCHEMA, CANDIDATES_SCHEMA, CONFIG_SCHEMA, PROFILE_SCHEMA, SCHEMAS,
    checker, compile_schema, validate,
)

# The six input formats; every loader checks its document against one of these.
INPUT_FORMATS = ("candidates", "profile", "config", "registry", "lexicons", "prompts")

GOOD = {"id": "a", "name": "A", "prep_time_minutes": 5}

_text = st.text(max_size=3)
_texts = st.lists(_text, max_size=3)
# Values on both sides of every schema rule: bool and whole or fractional
# floats for integers, empty strings, non-lists and non-string list items.
_odd = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 3),
    st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0, math.nan, math.inf, -math.inf]),
    st.just(""),
    _text,
    _texts.map(tuple),
    st.lists(st.one_of(_text, st.integers(), st.booleans()), min_size=1, max_size=3),
    st.dictionaries(_text, _text, max_size=1),
)


def _records(schema: dict, valid: dict) -> st.SearchStrategy:
    """Records ``schema`` accepts, and the same records with one rule broken."""
    optional = {key: value for key, value in valid.items() if key not in schema["required"]}
    records = st.fixed_dictionaries(
        {key: valid[key] for key in schema["required"]}, optional=optional
    )
    keys = st.sampled_from([*schema["properties"], "extra"])

    @st.composite
    def broken(draw):
        record = dict(draw(records))
        key = draw(keys)
        if key in record and draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(_odd)
        return record

    return st.one_of(records, broken())


_CANDIDATES = _records(
    CANDIDATE_SCHEMA,
    {
        "id": st.text(min_size=1, max_size=3),
        "name": st.text(min_size=1, max_size=3),
        "description": _text,
        "prep_time_minutes": st.one_of(st.integers(1, 10**6), st.sampled_from([1.0, 2.0, 1e300])),
        "ingredients": _texts,
        "tags": _texts,
        "customization_options": st.integers(0, 5),
    },
)

_PROFILES = _records(
    PROFILE_SCHEMA,
    {
        "user_id": st.text(min_size=1, max_size=3),
        "description": _text,
        "goals": _texts,
        "preference_keywords": _texts,
        "dietary_constraints": _texts,
        "familiar_items": _texts,
        "history_queries": _texts,
    },
)


def _valid(schema: dict) -> st.SearchStrategy:
    """Documents ``schema`` accepts, for the keywords ``compile_schema`` supports."""
    types = schema["type"]
    if isinstance(types, list):
        return st.one_of([_valid({**schema, "type": name}) for name in types])
    if types == "object":
        properties = {key: _valid(sub) for key, sub in schema.get("properties", {}).items()}
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {key: properties[key] for key in required},
            optional={key: value for key, value in properties.items() if key not in required},
        )
    if types == "array":
        return st.lists(_valid(schema["items"]), max_size=3)
    if types == "string":
        if "enum" in schema:
            return st.sampled_from(schema["enum"])
        text = st.text(min_size=schema.get("minLength", 0), max_size=3)
        return st.one_of(st.just(""), text) if "pattern" in schema else text
    if types == "integer":
        whole = st.integers(schema.get("minimum", -5), schema.get("maximum", 10**6))
        return st.one_of(whole, whole.map(float))
    return {"boolean": st.booleans(), "null": st.none()}[types]


def _spots(value, parent, key):
    yield parent, key
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for child_key, child in children:
        yield from _spots(child, value, child_key)


@st.composite
def _near(draw, schema: dict):
    """A document ``schema`` accepts, or one with a value replaced, a key dropped or a key added."""
    holder = [draw(_valid(schema))]
    if draw(st.booleans()):
        parent, key = draw(st.sampled_from(list(_spots(holder[0], holder, 0))))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[key]
        elif action == "add" and isinstance(parent[key], dict):
            parent[key][draw(st.sampled_from(["extra", "id", "top_k", "positive"]))] = draw(_odd)
        else:
            parent[key] = draw(_odd)
    return holder[0]


@given(_CANDIDATES)
@example({**GOOD, "prep_time_minutes": True})
@example({**GOOD, "prep_time_minutes": 1})
@example({**GOOD, "prep_time_minutes": 2.0})
@example({**GOOD, "prep_time_minutes": 2.5})
@example({**GOOD, "prep_time_minutes": math.nan})
@example({**GOOD, "prep_time_minutes": math.inf})
@example({**GOOD, "prep_time_minutes": 0})
@example({**GOOD, "prep_time_minutes": -3})
@example({**GOOD, "customization_options": False})
@example({**GOOD, "customization_options": 0})
@example({**GOOD, "customization_options": -1})
@example({**GOOD, "id": ""})
@example({**GOOD, "name": ""})
@example({**GOOD, "id": " "})
@example({**GOOD, "name": "\t\n "})
@example({**GOOD, "name": "\u00a0"})
@example({**GOOD, "id": " a ", "name": "\u3000b"})
@example({**GOOD, "price": 3})
@example({"id": "a", "prep_time_minutes": 5})
@example({**GOOD, "tags": ("quick",)})
@example({**GOOD, "ingredients": "rice"})
@example({**GOOD, "ingredients": ["rice", 1]})
@example("a")
def test_candidate_check_agrees_with_schema(record):
    expected = Draft202012Validator(CANDIDATE_SCHEMA).is_valid(record)
    assert checker(CANDIDATE_SCHEMA)(record) == expected


@given(st.one_of(st.lists(_CANDIDATES, max_size=3), _CANDIDATES, _odd))
@example([GOOD, {**GOOD, "id": "b", "prep_time_minutes": 0}])
@example((GOOD,))
@example(GOOD)
@example("[]")
@example(None)
def test_candidate_set_check_agrees_with_schema(doc):
    expected = Draft202012Validator(CANDIDATES_SCHEMA).is_valid(doc)
    assert checker(CANDIDATES_SCHEMA)(doc) == expected


@given(_PROFILES)
@example({"user_id": ""})
@example({"user_id": 1})
@example({"goals": []})
@example({"user_id": "u", "age": 30})
@example({"user_id": "u", "goals": "eat well"})
@example({"user_id": "u", "goals": ("eat well",)})
@example({"user_id": "u", "familiar_items": ["pasta", True]})
@example(["u"])
def test_profile_check_agrees_with_schema(record):
    expected = Draft202012Validator(PROFILE_SCHEMA).is_valid(record)
    assert checker(PROFILE_SCHEMA)(record) == expected


@given(st.sampled_from(INPUT_FORMATS).flatmap(lambda name: st.tuples(st.just(name), _near(SCHEMAS[name]))))
@example(("config", {}))
@example(("config", {"top_k": 2.0}))
@example(("config", {"top_k": True}))
@example(("config", {"top_k": 7}))
@example(("config", {"top_k": math.nan}))
@example(("config", {"top_k": math.inf}))
@example(("config", {"scorer": "remote", "paths": {"registry": None, "profile": "p.json"}}))
@example(("config", {"scorer": "Remote"}))
@example(("config", {"paths": {"registry": 3}}))
@example(("config", {"paths": {"registry": ["a"]}}))
@example(("config", {"fallback": 0}))
@example(("config", []))
@example(("registry", {"dimensions": [{"id": "Urgency", "display_name": "   "}]}))
@example(("registry", {"dimensions": [{"id": "Urgency", "display_name": " Rush "}]}))
@example(("registry", {"dimensions": [{"id": "Urgency", "canonical_statement": ""}]}))
@example(("registry", {"dimensions": [{"id": "Nope"}]}))
@example(("registry", {"dimensions": [{"display_name": "Rush"}]}))
@example(("lexicons", {"dimensions": {"Urgency": ["hurry", 1]}}))
@example(("lexicons", {"dimensions": {"Haste": ["hurry"]}}))
@example(("lexicons", {"sentiment": {"positive": ("good",)}}))
@example(("prompts", {"section_labels": {"profile": "P", "extra": "E"}}))
@example(("prompts", {"system_instruction": None}))
@example(("profile", {"user_id": "u", "history_queries": [""]}))
@example(("candidates", [{**GOOD, "prep_time_minutes": 1e300}]))
def test_input_format_check_agrees_with_schema(case):
    name, doc = case
    schema = SCHEMAS[name]
    assert checker(schema)(doc) == Draft202012Validator(schema).is_valid(doc)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "format": "email"},
        {"oneOf": [{"type": "string"}, {"type": "null"}]},
        {"type": ["string", "null"], "oneOf": []},
        {"type": "object", "additionalProperties": {"type": "string"}},
        {"type": "object", "additionalProperties": True},
        {"type": "array", "items": {"type": "string", "maxLength": 3}},
        {"type": "object", "properties": {"n": {"type": "integer", "exclusiveMinimum": 0}}},
        {"type": "number"},
        {"type": "integer", "enum": [1, 2]},
        {"properties": {}},
        {"type": "array", "items": [{"type": "string"}]},
    ],
    ids=[
        "format", "oneOf", "oneOf-beside-type", "additionalProperties-schema",
        "additionalProperties-true", "nested-maxLength", "nested-exclusiveMinimum",
        "number", "integer-enum", "untyped", "items-array",
    ],
)
def test_unsupported_schema_raises_at_compile_time(schema):
    with pytest.raises(ValueError, match="unsupported|a schema node"):
        compile_schema(schema)


def test_input_schemas_compile_once():
    for name in INPUT_FORMATS:
        assert checker(SCHEMAS[name]) is checker(SCHEMAS[name])


def test_rejection_that_jsonschema_accepts_is_still_rejected(monkeypatch, tmp_path):
    # The compiled check decides: if jsonschema, asked only for the wording,
    # finds no error, the document is rejected all the same.
    for schema in (CONFIG_SCHEMA, PROFILE_SCHEMA):
        monkeypatch.setitem(schemas._compiled, id(schema), (schema, lambda value: False))
    with pytest.raises(ConfigError, match=r"^config \$: not accepted by its schema$"):
        validate({}, CONFIG_SCHEMA, "config")
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"user_id": "u"}))
    message = f"profile file {path} failed validation: not accepted by its schema"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config.load_profile(path)
