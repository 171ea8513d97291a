"""Metamorphic relations: how the output must change, or stay the same, when the input changes in a known way.

Inputs come from the benchmark's generator (``bench/gen.py``): its word
lists and the bundled lexicons' words, drawn by a seeded ``random.Random``,
so no relation needs a hand-written expectation.
"""

import importlib.util
import io
import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from appraisal_explainer.config import RunConfig
from appraisal_explainer.context import Query, UserProfile, build_unified_context, tokenize
from appraisal_explainer.explanation import build_plan, realize_template
from appraisal_explainer.pipeline import load_engine_data, run_pipeline
from appraisal_explainer.registry import Dimension
from appraisal_explainer.runlog import RunLog
from appraisal_explainer.salience import compute_salience
from appraisal_explainer.scoring import Candidate, Catalog, appraisal_vector, rank_candidates
from appraisal_explainer.serialize import plan_to_dict, write_ranking_json

_spec = importlib.util.spec_from_file_location("gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

KEYWORDS, SENTIMENT = gen.load_word_lists()
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
CATALOG_SIZE = 100

# The generator's own constraints and tags, and "no-<word>" / "<word>-free"
# for each word of its ingredients, mains and bases.
_WORDS = sorted({token for text in gen.INGREDIENTS + gen.MAINS + gen.BASES for token in tokenize(text)})
CONSTRAINTS = st.one_of(
    st.sampled_from(sorted({c for mix in gen.CONSTRAINT_MIX for c in mix} | set(gen.TAGS))),
    st.sampled_from(_WORDS).map("no-{}".format),
    st.sampled_from(_WORDS).map("{}-free".format),
)


def _catalog(rng):
    return [Candidate.from_dict(doc) for doc in gen.catalog(rng, CATALOG_SIZE, KEYWORDS, SENTIMENT)]


def _profile(rng, constraints):
    return UserProfile.from_dict(gen.profile(rng, "u", constraints, KEYWORDS, SENTIMENT))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, constraints=st.lists(CONSTRAINTS, max_size=2), added=CONSTRAINTS)
def test_adding_a_dietary_constraint_never_readmits_an_excluded_candidate(
    seed, constraints, added, registry, lexicons
):
    rng = random.Random(seed)
    catalog = _catalog(rng)
    profile = gen.profile(rng, "u", constraints, KEYWORDS, SENTIMENT)
    query = Query(gen.query(rng, KEYWORDS, SENTIMENT, rng.random() < 0.5))

    def excluded(constraints):
        record = {**profile, "dietary_constraints": constraints}
        context = build_unified_context(UserProfile.from_dict(record), query, registry, lexicons)
        ranked = rank_candidates(catalog, context, compute_salience(context, registry), lexicons=lexicons)
        return {exclusion.candidate_id for exclusion in ranked.excluded}

    assert excluded(constraints) <= excluded([*constraints, added])


LIMITS = st.one_of(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=1440))


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS, limits=st.lists(LIMITS, min_size=2, max_size=2, unique=True).map(sorted),
    form=st.sampled_from(["I have {} minutes", "ready in {} min", "a {}-minute meal"]),
)
def test_raising_the_time_limit_never_lowers_urgency(seed, limits, form, registry, lexicons):
    rng = random.Random(seed)
    catalog, profile = _catalog(rng), _profile(rng, rng.choice(gen.CONSTRAINT_MIX))
    text = gen.query(rng, KEYWORDS, SENTIMENT, False)
    urgency = []
    for limit in limits:
        context = build_unified_context(profile, Query(f"{text} {form.format(limit)}."), registry, lexicons)
        assert context.time_constraint_minutes == limit
        vectors = [appraisal_vector(candidate, context, lexicons) for candidate in catalog]
        urgency.append([vector.scores[Dimension.URGENCY] for vector in vectors])
    shorter, longer = urgency
    assert all(low <= high for low, high in zip(shorter, longer))


# Phrasings of one duration, the plain number of minutes first.
SYNONYMOUS_DURATIONS = (
    ("30 minutes", "half an hour", "0.5 hours"),
    ("90 minutes", "1.5 hours", "an hour and a half", "1 hour 30 minutes"),
    ("75 min", "1 hour and 15 min"),
    ("125 minutes", "2 hours 5 minutes"),
)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, durations=st.sampled_from(SYNONYMOUS_DURATIONS))
def test_synonymous_durations_give_the_same_context(seed, durations, registry, lexicons):
    rng = random.Random(seed)
    profile = _profile(rng, rng.choice(gen.CONSTRAINT_MIX))
    text = gen.query(rng, KEYWORDS, SENTIMENT, False)
    derived = []
    for duration in durations:
        context = build_unified_context(profile, Query(f"{text} Ready in {duration}."), registry, lexicons)
        salience = compute_salience(context, registry)
        derived.append((context.time_constraint_minutes, context.sentiment, context.keyword_hits, salience))
    assert derived[0][0] == int(durations[0].split()[0])
    assert all(other == derived[0] for other in derived[1:])


def _limit_and_salience(profile, text, registry, lexicons):
    context = build_unified_context(profile, Query(text), registry, lexicons)
    return context.time_constraint_minutes, compute_salience(context, registry)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_repeating_a_query_word_leaves_the_limit_and_weights(seed, registry, lexicons):
    rng = random.Random(seed)
    profile = _profile(rng, rng.choice(gen.CONSTRAINT_MIX))
    text = gen.query(rng, KEYWORDS, SENTIMENT, rng.random() < 0.5)
    repeated = f"{text} {rng.choice(tokenize(text))}"  # after the query's final period
    assert _limit_and_salience(profile, repeated, registry, lexicons) == _limit_and_salience(
        profile, text, registry, lexicons
    )


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_changing_case_and_spacing_leaves_the_limit_and_weights(seed, registry, lexicons):
    rng = random.Random(seed)
    profile = _profile(rng, rng.choice(gen.CONSTRAINT_MIX))
    text = gen.query(rng, KEYWORDS, SENTIMENT, rng.random() < 0.5)
    recased = "".join(char.upper() if rng.random() < 0.5 else char.lower() for char in text)

    def space():
        return "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))

    respaced = space() + "".join(space() if char == " " else char for char in recased) + space()
    assert _limit_and_salience(profile, respaced, registry, lexicons) == _limit_and_salience(
        profile, text, registry, lexicons
    )


def _situation(rng, registry, lexicons):
    """A generated profile and query's context and salience."""
    profile = _profile(rng, rng.choice(gen.CONSTRAINT_MIX))
    query = Query(gen.query(rng, KEYWORDS, SENTIMENT, rng.random() < 0.5))
    context = build_unified_context(profile, query, registry, lexicons)
    return context, compute_salience(context, registry)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS)
def test_shuffling_the_catalog_leaves_the_plan_and_the_appraisal_text(seed, registry, lexicons):
    rng = random.Random(seed)
    documents = gen.catalog(rng, CATALOG_SIZE, KEYWORDS, SENTIMENT)
    context, salience = _situation(rng, registry, lexicons)
    shuffled = rng.sample(documents, len(documents))
    explained = []
    for catalog in (documents, shuffled):  # new records each time, so no kept part is shared
        ranked = rank_candidates(list(map(Candidate.from_dict, catalog)), context, salience, lexicons=lexicons)
        if not ranked.entries:
            explained.append(None)
            continue
        plan = build_plan(ranked, salience, context, registry)
        explained.append((json.dumps(plan_to_dict(plan), indent=2, ensure_ascii=False), realize_template(plan)))
    assert explained[0] == explained[1]


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS)
def test_removing_a_candidate_other_than_the_winner_leaves_the_winner(seed, registry, lexicons):
    rng = random.Random(seed)
    catalog = _catalog(rng)
    context, salience = _situation(rng, registry, lexicons)

    def winner(catalog):
        ranked = rank_candidates(catalog, context, salience, lexicons=lexicons)
        return ranked.entries[0].candidate_id if ranked.entries else None

    first = winner(catalog)
    removed = rng.choice([candidate for candidate in catalog if candidate.id != first])
    assert winner([candidate for candidate in catalog if candidate is not removed]) == first


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS)
def test_a_catalogs_answers_do_not_depend_on_its_history(seed):
    # One catalog answers the pairs in order and another in reverse order, so
    # each answer follows another history of kept splits and parts; a list of
    # new records keeps nothing between pairs.
    rng = random.Random(seed)
    documents = gen.catalog(rng, CATALOG_SIZE, KEYWORDS, SENTIMENT)
    profiles = [UserProfile.from_dict(doc) for doc in gen.profile_mix(rng, 10, KEYWORDS, SENTIMENT)]
    queries = [Query(text) for text in gen.query_mix(rng, 4, KEYWORDS, SENTIMENT)]
    pairs = [(rng.choice(profiles), rng.choice(queries)) for _ in range(8)]
    cfg = RunConfig()
    data = load_engine_data(cfg)

    def answer(candidates, profile, query):
        result = run_pipeline(profile, query, candidates, data, cfg, RunLog(), want_compare=True)
        ranking = io.StringIO()
        write_ranking_json(result.ranked, ranking)
        return ranking.getvalue(), plan_to_dict(result.plan), result.explanation, result.baseline

    fresh = [answer(list(map(Candidate.from_dict, documents)), *pair) for pair in pairs]
    for order in (range(len(pairs)), reversed(range(len(pairs)))):
        catalog = Catalog(map(Candidate.from_dict, documents))
        for index in order:
            assert answer(catalog, *pairs[index]) == fresh[index]
