import inspect
import json
import math
import re
from collections.abc import Hashable
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from appraisal_explainer.config import RunConfig
from appraisal_explainer.context import (
    Query,
    UserProfile,
    build_unified_context,
    parse_time_constraint,
    tally_sentiment_tokens,
    tokenize,
)
from appraisal_explainer.errors import EmptyQuery
from appraisal_explainer.explanation import (
    ComparisonReport,
    DimensionFinding,
    ExplanationPlan,
    MentionReport,
    PromptTemplates,
)
from appraisal_explainer.registry import Dimension
from appraisal_explainer.runlog import RunLog, RunRecord
from appraisal_explainer.salience import compute_salience
from appraisal_explainer.schemas import (
    CANDIDATE_SCHEMA,
    COMPARISON_OUTPUT_SCHEMA,
    CONFIG_SCHEMA,
    PLAN_OUTPUT_SCHEMA,
    PROFILE_SCHEMA,
    PROMPTS_SCHEMA,
)
from appraisal_explainer.scoring import Candidate, rank_candidates


# Independent oracle for the duration grammar: each form scanned separately,
# earliest valid match in text order wins; an amount with decimals is
# converted exactly and rounded down to whole minutes. A compound (hours or
# "an hour", then whole minutes or "and a half") counts as one duration, its
# sum checked, and the forms inside it count for nothing on their own.
def _oracle_time(text):
    found, compounds = [], []
    amount = r"(\d+(?:\.\d+)?)\s*-?\s*"
    not_worded = r"\b(?:half|quarter\s+of)\s+$"  # "an hour" inside "half an hour" is not an hour
    compound = (
        r"(?:" + amount + r"hours?\b|\ban\s+hour\b)"
        r"\s+(?:(?:and\s+)?(\d+)\s*-?\s*min(?:ute)?s?\b|and\s+a\s+half\b)"
    )
    for match in re.finditer(compound, text, re.IGNORECASE):
        if match.group(1) is None and re.search(not_worded, text[:match.start()], re.IGNORECASE):
            continue
        hours = Fraction(match.group(1)) if match.group(1) else 1
        minutes = math.floor(hours * 60 + (int(match.group(2)) if match.group(2) else 30))
        compounds.append(range(match.start(), match.end()))
        if 1 <= minutes <= 1440:
            found.append((match.start(), minutes))

    def add(start, minutes):
        if not any(start in span for span in compounds) and 1 <= minutes <= 1440:
            found.append((start, minutes))

    for pattern, per_unit in ((amount + r"min(?:ute)?s?\b", 1), (amount + r"hours?\b", 60)):
        for match in re.finditer(pattern, text, re.IGNORECASE):
            add(match.start(), math.floor(Fraction(match.group(1)) * per_unit))
    for match in re.finditer(r"\bhalf\s+an\s+hour\b", text, re.IGNORECASE):
        add(match.start(), 30)
    for match in re.finditer(r"\bquarter\s+of\s+an\s+hour\b", text, re.IGNORECASE):
        add(match.start(), 15)
    for match in re.finditer(r"\ban\s+hour\b", text, re.IGNORECASE):
        if not re.search(not_worded, text[:match.start()], re.IGNORECASE):
            add(match.start(), 60)
    if not found:
        return None
    return min(found)[1]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("can you make something in 15 minutes?", 15),
        ("surprise me tonight", None),
        ("a 20-minute meal, max 30 minutes", 20),
        ("I have half an hour today", 30),
        ("give me an hour and I'll cook", 60),
        ("done in 45 min", 45),
        ("done in 45 mins", 45),
        ("0 minutes is nonsense, 10 minutes works", 10),
        ("99999 minutes of prep", None),
        ("", None),
        ("15-minute", 15),
        ("minimal fuss please", None),
        ("1 hour", 60),
        ("ready in 2 hours", 120),
        ("a 3-hour braise", 180),
        ("a quarter of an hour", 15),
        ("Quarter  of an hour, or half an hour", 15),
        ("24 hours", 1440),
        ("25 hours, or 90 minutes", 90),
        ("0 hours", None),
        ("I have 1.5 hours", 90),
        ("about 0.5 hours", 30),
        ("ready in 2.5 min", 2),
        ("0.5 min is too short, 0.25 hours", 15),
        ("24.02 hours, or 1.75-hour", 105),
        ("an hour and a half", 90),
        ("dinner in 1 hour 30 minutes please", 90),
        ("ready in 1 hour and 15 min", 75),
        ("a 2 hours 5 minutes braise", 125),
        ("1.5 hours 10 minutes", 100),
        ("An Hour  And A Half", 90),
        ("1 hour and a half, or 20 min", 90),
        ("24 hours 30 minutes, or 20 minutes", 20),
        ("half an hour and a half", 30),
        ("1 hour 2.5 min", 60),
        ("an hour and I'll cook 10 minutes", 60),
    ],
)
def test_parse_time_constraint_cases(text, expected):
    assert parse_time_constraint(text) == expected
    assert parse_time_constraint(text) == _oracle_time(text)


# Runs longer than int() converts (4,300 digits); the oracle would raise on them.
@pytest.mark.parametrize(
    "text,expected",
    [
        ("1" * 5000 + " minutes, or 20 minutes", 20),
        ("0" * 5000 + "30 minutes", 30),
        ("9" * 5000 + " hours", None),
        ("0" * 5000 + "2 hours", 120),
        ("1." + "9" * 5000 + " hours", 119),
        ("1" * 5000, None),
        ("1 hour " + "1" * 5000 + " minutes, or 20 minutes", 20),
    ],
)
def test_parse_time_constraint_skips_long_digit_runs(text, expected):
    assert parse_time_constraint(text) == expected


@given(st.text(max_size=200))
def test_parse_time_constraint_total(text):
    result = parse_time_constraint(text)
    assert result is None or 1 <= result <= 1440


@given(
    st.integers(min_value=1, max_value=1440),
    st.sampled_from(["{n} minutes", "{n} min", "{n}-minute", "in {n} minutes please"]),
)
def test_parse_time_constraint_matches_oracle(n, template):
    text = template.format(n=n)
    assert parse_time_constraint(text) == _oracle_time(text) == n


@given(
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["{n} hours", "{n} hour", "{n}-hour", "in {n} hours please"]),
)
def test_parse_hours_matches_oracle(n, template):
    text = template.format(n=n)
    expected = n * 60 if 1 <= n * 60 <= 1440 else None
    assert parse_time_constraint(text) == _oracle_time(text) == expected


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=200),
    st.sampled_from(["{h} hours {m} minutes", "{h} hour and {m} min", "in {h}-hour {m}-minute, or 5 min"]),
)
def test_parse_compound_durations_match_oracle(h, m, template):
    # The range check applies to the sum; the parts are not durations on their own.
    text = template.format(h=h, m=m)
    total = h * 60 + m
    expected = total if 1 <= total <= 1440 else 5 if "5 min" in template else None
    assert parse_time_constraint(text) == _oracle_time(text) == expected


def test_tokenize_splits_non_alphanumerics():
    assert tokenize("I'm hungry, gluten-free!") == ["i", "m", "hungry", "gluten", "free"]


def test_tally_sentiment_hand_counts(lexicons):
    tally = tally_sentiment_tokens(tokenize("satisfying dinner, delicious and fresh"), lexicons)
    assert (tally.positive_hits, tally.negative_hits) == (3, 0)
    assert set(tally.matched_positive) == {"satisfying", "delicious", "fresh"}

    assert tally_sentiment_tokens(tokenize(""), lexicons).total == 0

    tally = tally_sentiment_tokens(tokenize("bland and boring"), lexicons)
    assert (tally.positive_hits, tally.negative_hits) == (0, 2)


def test_tally_sentiment_counts_each_occurrence(lexicons):
    tally = tally_sentiment_tokens(tokenize("delicious, truly delicious"), lexicons)
    assert tally.positive_hits == 2
    assert tally.matched_positive == ("delicious", "delicious")
    assert tally.positive_hits == len(tally.matched_positive)


def test_query_rejects_empty_text():
    with pytest.raises(EmptyQuery):
        Query(text="   ")


def _records(registry, lexicons):
    profile = UserProfile(user_id="u", goals=("quick",))
    context = build_unified_context(profile, Query(text="dinner in 20 minutes"), registry, lexicons)
    salience = compute_salience(context, registry)
    candidate = Candidate(id="c", name="Bowl", prep_time_minutes=10)
    ranked = rank_candidates([candidate], context, salience, lexicons=lexicons)
    return {
        "Candidate": candidate, "UserProfile": profile, "Query": context.query,
        "UnifiedContext": context, "SalienceProfile": salience, "RankedList": ranked,
    }


@pytest.mark.parametrize(
    "kind, field",
    [
        ("Candidate", "prep_time_minutes"),
        ("UserProfile", "goals"),
        ("Query", "text"),
        ("UnifiedContext", "time_constraint_minutes"),
        ("SalienceProfile", "weights"),
        ("RankedList", "entries"),
    ],
)
def test_records_refuse_assignment_and_keep_their_construction_checks(kind, field, registry, lexicons):
    # A candidate's kept intrinsic parts, a context's compiled situational
    # checks and a profile's unique goals and constraints are cached per
    # instance: they stay valid only because no field changes after construction.
    record = _records(registry, lexicons)[kind]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
    with pytest.raises(EmptyQuery):
        Query(text="  ")
    assert UserProfile(user_id="u", goals=(" Quick ", "")).goals == ("quick",)


def test_profile_keeps_each_goal_and_constraint_once():
    assert UserProfile("u", goals=("quick", "Quick")).goals == ("quick",)
    profile = UserProfile("u", dietary_constraints=("vegan", "no-nuts", " Vegan "))
    assert profile.dietary_constraints == ("vegan", "no-nuts")


def _parameters(cls) -> list[str]:
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_candidate_schema_names_the_constructor_parameters():
    # ``from_dict`` passes an accepted record to the constructor as keywords.
    assert list(CANDIDATE_SCHEMA["properties"]) == _parameters(Candidate)


def test_profile_schema_names_the_constructor_parameters_and_history_queries():
    # ``from_dict`` drops ``history_queries``, which no stage reads, and passes the rest.
    assert list(PROFILE_SCHEMA["properties"]) == [*_parameters(UserProfile), "history_queries"]


# The plan and comparison documents are their records' fields, the plan's but its context.
def test_plan_schema_names_the_plan_and_finding_fields():
    assert list(PLAN_OUTPUT_SCHEMA["properties"]) == [f for f in ExplanationPlan._fields if f != "context"]
    for key in ("dominant", "per_dimension"):
        assert list(PLAN_OUTPUT_SCHEMA["properties"][key]["items"]["properties"]) == list(DimensionFinding._fields)


def test_comparison_schema_names_the_report_and_mention_fields():
    assert list(COMPARISON_OUTPUT_SCHEMA["properties"]) == list(ComparisonReport._fields)
    for side in ComparisonReport._fields:
        assert list(COMPARISON_OUTPUT_SCHEMA["properties"][side]["properties"]) == list(MentionReport._fields)


def test_prompts_schema_names_the_template_fields():
    assert list(PROMPTS_SCHEMA["properties"]) == list(PromptTemplates._fields)


def test_config_schema_names_the_run_config_fields():
    paths, *settings = CONFIG_SCHEMA["properties"]
    assert paths == "paths"
    path_fields = [f"{key}_path" for key in CONFIG_SCHEMA["properties"]["paths"]["properties"]]
    assert [*path_fields, *settings, "out_dir"] == list(RunConfig._fields)


def test_run_log_line_names_the_record_fields(tmp_path):
    log = RunLog()
    log.record(mode="baseline", realizer="template", response="Try soup.")
    log.write(tmp_path / "runlog.jsonl")
    assert list(json.loads((tmp_path / "runlog.jsonl").read_text("utf-8"))) == list(RunRecord._fields)


def test_from_dict_reads_every_field_and_drops_only_history_queries():
    candidate = Candidate.from_dict(
        {"id": "c", "name": "Bowl", "prep_time_minutes": 10.0, "ingredients": ["rice"], "tags": []}
    )
    assert repr(candidate) == "Candidate('c', 'Bowl', '', 10, ('rice',), (), 0)"
    assert type(candidate.prep_time_minutes) is int
    profile = UserProfile.from_dict({"user_id": "u", "goals": ["Quick"], "history_queries": ["soup"]})
    assert profile == UserProfile("u", goals=("quick",))


def _record_samples(registry, lexicons):
    profile = UserProfile(
        user_id="u", description="Busy.", goals=(" Quick ", "quick"), dietary_constraints=("vegan",)
    )
    query = Query(text="something fast in 20 minutes")
    candidate = Candidate(
        id="c1", name="Salad", description="fresh", prep_time_minutes=10,
        ingredients=("kale",), tags=("vegan", "quick"), customization_options=2,
    )
    return profile, query, candidate, build_unified_context(profile, query, registry, lexicons)


def test_record_reprs_keep_their_bytes(registry, lexicons):
    # Recorded when each record listed its fields for ==, hash and repr by hand.
    profile, query, candidate, context = _record_samples(registry, lexicons)
    assert repr(profile) == "UserProfile('u', 'Busy.', ('quick',), (), ('vegan',), ())"
    assert repr(query) == "Query('something fast in 20 minutes',)"
    assert repr(candidate) == "Candidate('c1', 'Salad', 'fresh', 10, ('kale',), ('vegan', 'quick'), 2)"
    no_hits = "SourceHits(query=(), profile=())"
    assert repr(context) == (
        "UnifiedContext(UserProfile('u', 'Busy.', ('quick',), (), ('vegan',), ()), "
        "Query('something fast in 20 minutes',), "
        "'Busy. Goals: quick. something fast in 20 minutes', 20, "
        "SentimentTally(matched_positive=(), matched_negative=()), "
        f"{{<Dimension.PREDICTABILITY_SURPRISE: 'PredictabilitySurprise'>: {no_hits}, "
        f"<Dimension.GOAL_RELEVANCE: 'GoalRelevance'>: {no_hits}, "
        f"<Dimension.VALENCE: 'Valence'>: {no_hits}, "
        "<Dimension.URGENCY: 'Urgency'>: SourceHits(query=('fast',), profile=('quick',)), "
        f"<Dimension.AGENCY: 'Agency'>: {no_hits}, "
        f"<Dimension.NORMATIVE_SIGNIFICANCE: 'NormativeSignificance'>: {no_hits}}})"
    )


def test_records_compare_by_fields_not_by_filled_caches(registry, lexicons):
    profile, query, candidate, context = _record_samples(registry, lexicons)
    fresh = Candidate(**candidate.fields())
    rank_candidates([candidate], context, compute_salience(context, registry), lexicons=lexicons)
    assert candidate._parts is not None and fresh._parts is None
    assert candidate == fresh and hash(candidate) == hash(fresh)
    assert candidate != Candidate(**{**candidate.fields(), "customization_options": 3})
    assert context == build_unified_context(profile, query, registry, lexicons)
    assert (profile, query) != (profile, Query(text="something else"))
    assert hash(profile) == hash(UserProfile(**profile.fields()))


def test_a_context_is_unhashable_and_the_other_records_hash_by_their_fields(registry, lexicons):
    profile, query, candidate, context = _record_samples(registry, lexicons)
    assert not isinstance(context, Hashable)
    with pytest.raises(TypeError, match="unhashable type: 'UnifiedContext'"):
        hash(context)
    for record in (profile, query, candidate):
        copy = type(record)(**record.fields())
        assert copy is not record and copy == record and hash(copy) == hash(record)


def test_sarah_context_signals(sarah_context):
    assert sarah_context.time_constraint_minutes == 15
    assert "hurry" in sarah_context.keyword_hits[Dimension.URGENCY].query
    assert "quick" in sarah_context.keyword_hits[Dimension.URGENCY].profile
    profile_hits = sarah_context.keyword_hits[Dimension.GOAL_RELEVANCE].profile
    assert {"healthy", "nutritious"} <= set(profile_hits)
    assert sarah_context.sentiment.total == 0


def test_alex_context_signals(alex_context):
    assert "customized" in alex_context.keyword_hits[Dimension.AGENCY].profile
    assert "choose" in alex_context.keyword_hits[Dimension.AGENCY].query
    ps_hits = alex_context.keyword_hits[Dimension.PREDICTABILITY_SURPRISE]
    assert {"surprise", "new"} <= set(ps_hits.query)
    assert alex_context.time_constraint_minutes is None


def test_zero_signal_context(registry, lexicons):
    profile = UserProfile(user_id="nobody")
    query = Query(text="give me dinner")
    context = build_unified_context(profile, query, registry, lexicons)
    assert all(not (hits.query or hits.profile) for hits in context.keyword_hits.values())
    assert context.sentiment.total == 0
    assert context.time_constraint_minutes is None


def test_context_deterministic(sarah, registry, lexicons):
    first = build_unified_context(sarah.profile, sarah.query, registry, lexicons)
    second = build_unified_context(sarah.profile, sarah.query, registry, lexicons)
    assert first == second


def test_composite_text_contains_inputs(sarah_context, sarah):
    assert sarah.profile.description in sarah_context.composite_text
    assert sarah.query.text in sarah_context.composite_text
    for goal in sarah.profile.goals:
        assert goal in sarah_context.composite_text


@given(dim=st.sampled_from(list(Dimension)), data=st.data())
def test_appending_lexicon_word_is_monotone(dim, data, registry, lexicons):
    words = sorted(lexicons.dimension_words[dim])
    word = data.draw(st.sampled_from(words))
    profile = UserProfile(user_id="u", goals=("healthy",))
    base_query = Query(text="what should I eat")
    extended_query = Query(text=base_query.text + " " + word)
    base = build_unified_context(profile, base_query, registry, lexicons)
    extended = build_unified_context(profile, extended_query, registry, lexicons)
    for d in Dimension:
        assert set(base.keyword_hits[d].query) <= set(extended.keyword_hits[d].query)
        assert base.keyword_hits[d].profile == extended.keyword_hits[d].profile
    assert word in extended.keyword_hits[dim].query
