"""The stdlib record checks accept exactly what the published schemas accept."""

import math

from hypothesis import example, given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from appraisal_explainer.config import parse_candidates
from appraisal_explainer.context import UserProfile
from appraisal_explainer.errors import InvalidRecord
from appraisal_explainer.schemas import CANDIDATE_SCHEMA, CANDIDATES_SCHEMA, PROFILE_SCHEMA
from appraisal_explainer.scoring import Candidate

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


def _accepts(parse, doc) -> bool:
    try:
        parse(doc)
    except InvalidRecord:
        return False
    return True


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
@example({**GOOD, "price": 3})
@example({"id": "a", "prep_time_minutes": 5})
@example({**GOOD, "tags": ("quick",)})
@example({**GOOD, "ingredients": "rice"})
@example({**GOOD, "ingredients": ["rice", 1]})
@example("a")
def test_candidate_check_agrees_with_schema(record):
    expected = Draft202012Validator(CANDIDATE_SCHEMA).is_valid(record)
    assert _accepts(Candidate.from_dict, record) == expected


@given(st.one_of(st.lists(_CANDIDATES, max_size=3), _CANDIDATES, _odd))
@example([GOOD, {**GOOD, "id": "b", "prep_time_minutes": 0}])
@example((GOOD,))
@example(GOOD)
@example("[]")
@example(None)
def test_candidate_set_check_agrees_with_schema(doc):
    expected = Draft202012Validator(CANDIDATES_SCHEMA).is_valid(doc)
    assert _accepts(parse_candidates, doc) == expected


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
    assert _accepts(UserProfile.from_dict, record) == expected
