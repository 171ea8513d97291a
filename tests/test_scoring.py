import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from appraisal_explainer import scoring
from appraisal_explainer.config import RunConfig, load_candidates
from appraisal_explainer.context import Query, UserProfile, build_unified_context, tokenize
from appraisal_explainer.errors import DuplicateCandidate, NoCandidates
from appraisal_explainer.explanation import build_plan, realize_template
from appraisal_explainer.lexicons import load_lexicons
from appraisal_explainer.pipeline import load_engine_data, run_pipeline
from appraisal_explainer.registry import Dimension
from appraisal_explainer.runlog import RunLog
from appraisal_explainer.salience import SalienceProfile, compute_salience, normalize
from appraisal_explainer.scoring import (
    Against,
    AppraisalVector,
    Candidate,
    Neutral,
    appraisal_vector,
    rank_candidates,
    rank_vectors,
)
from appraisal_explainer.serialize import write_ranking_json

DIMS = list(Dimension)


def _salience(values):
    weights = dict(zip(DIMS, values))
    ordered = tuple(sorted(DIMS, key=lambda d: (-weights[d], d.order)))
    return SalienceProfile(weights=weights, dominant=ordered[:3], scorer_id="test")


def _context(registry, lexicons, profile, text):
    return build_unified_context(profile, Query(text=text), registry, lexicons)


def _rebuilt(candidate, **changes):
    """A new candidate with ``candidate``'s fields and ``changes``: nothing derived or kept yet."""
    fields = {name: getattr(candidate, name) for name in inspect.signature(Candidate).parameters}
    return Candidate(**{**fields, **changes})


def test_urgency_formula_example(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner in 15 minutes")
    candidate = Candidate(
        id="c", name="Bowl", description="a quick dinner", prep_time_minutes=12
    )
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.URGENCY], vector.evidence[Dimension.URGENCY]
    assert score == pytest.approx(0.7 * 1.0 + 0.3 * 0.5)
    assert any("within the 15 minutes" in hint for hint in evidence)
    assert any("quick" in hint for hint in evidence)


def test_urgency_overshoot_clamps(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner in 15 minutes")
    candidate = Candidate(id="c", name="Roast", prep_time_minutes=180)
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.URGENCY], vector.evidence[Dimension.URGENCY]
    assert score == 0.0
    assert any("exceeds the 15 minutes" in hint for hint in evidence)


def test_goal_relevance_half_match(registry, lexicons):
    profile = UserProfile(user_id="u", goals=("healthy", "nutritious"))
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Salad", description="a healthy green salad")
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.GOAL_RELEVANCE], vector.evidence[Dimension.GOAL_RELEVANCE]
    assert score == 0.5
    assert evidence == ("matches your goals: healthy",)


def test_goal_relevance_matches_multi_word_goals(registry, lexicons):
    # A goal matches when each of its tokens is among the candidate's terms;
    # "high fiber" lacks "fiber", and a goal with no tokens never matches.
    goals = ("High Protein", "low-carb", "high fiber", "!!!")
    profile = UserProfile(user_id="u", goals=goals)
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="High Protein Bowl", tags=("protein", "low carb"))
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.GOAL_RELEVANCE], vector.evidence[Dimension.GOAL_RELEVANCE]
    assert score == 0.5
    assert evidence == ("matches your goals: high protein, low-carb",)


def test_valence_neutral_description(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Plain", description="some food on a plate")
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.VALENCE], vector.evidence[Dimension.VALENCE]
    assert score == 0.5
    assert evidence == ("description sentiment: neutral (no lexicon matches)",)


def test_valence_negative_description(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Sad", description="bland, soggy and boring")
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.VALENCE], vector.evidence[Dimension.VALENCE]
    assert score == 0.0
    assert "3 negative" in evidence[0]


def test_predictability_jaccard(registry, lexicons):
    profile = UserProfile(user_id="u", familiar_items=("rice", "eggs"))
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Fried rice", ingredients=("rice", "peas"), tags=("wok",))
    vector = appraisal_vector(candidate, context, lexicons)
    score = vector.scores[Dimension.PREDICTABILITY_SURPRISE]
    evidence = vector.evidence[Dimension.PREDICTABILITY_SURPRISE]
    # shared {rice}; union {rice, peas, wok, eggs}
    assert score == pytest.approx(1 / 4)
    assert evidence == ("shares familiar items: rice",)


def test_agency_saturation(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(
        id="c", name="Bar", tags=("customizable",), customization_options=4
    )
    vector = appraisal_vector(candidate, context, lexicons)
    score, evidence = vector.scores[Dimension.AGENCY], vector.evidence[Dimension.AGENCY]
    assert score == 1.0
    assert "4 documented customization options" in evidence[0]


def test_normative_violation_names_constraint(registry, lexicons):
    profile = UserProfile(user_id="u", dietary_constraints=("vegetarian", "no-peanuts"))
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(
        id="c",
        name="Satay",
        ingredients=("chicken", "peanuts"),
        tags=("grilled",),
    )
    vector = appraisal_vector(candidate, context, lexicons)
    score = vector.scores[Dimension.NORMATIVE_SIGNIFICANCE]
    evidence = vector.evidence[Dimension.NORMATIVE_SIGNIFICANCE]
    assert score == 0.0
    assert "violates 'vegetarian': not tagged vegetarian" in evidence
    assert "violates 'no-peanuts': contains peanuts" in evidence


def test_normative_no_constraints_is_one(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Anything")
    vector = appraisal_vector(candidate, context, lexicons)
    score = vector.scores[Dimension.NORMATIVE_SIGNIFICANCE]
    evidence = vector.evidence[Dimension.NORMATIVE_SIGNIFICANCE]
    assert score == 1.0
    assert evidence == ("no dietary constraints apply",)


def _vector(candidate_id, values):
    scores = dict(zip(DIMS, values))
    evidence = {
        dim: (f"synthetic evidence {dim.value}",) if scores[dim] > 0 else ()
        for dim in DIMS
    }
    return AppraisalVector(candidate_id=candidate_id, scores=scores, evidence=evidence)


def _candidates(vectors):
    return [Candidate(id=vector.candidate_id, name=vector.candidate_id) for vector in vectors]


def _composite(vector, salience):
    """The composite ``rank_vectors`` gives ``vector`` under ``salience``."""
    [entry] = rank_vectors([vector], _candidates([vector]), salience).entries
    return entry.composite


def test_composite_uniform_all_ones():
    salience = _salience([1 / 6] * 6)
    assert _composite(_vector("c", [1.0] * 6), salience) == pytest.approx(1.0)


def test_composite_one_hot_projection():
    values = [0.0] * 6
    values[DIMS.index(Dimension.URGENCY)] = 1.0
    salience = _salience(values)
    scores = [0.2, 0.4, 0.6, 0.85, 0.1, 0.3]
    assert _composite(_vector("c", scores), salience) == pytest.approx(0.85)


def test_composite_matches_manual_dot_product():
    weights = [0.4, 0.3, 0.1, 0.1, 0.05, 0.05]
    scores = [0.25, 0.5, 0.75, 1.0, 0.0, 0.6]
    expected = 0.0
    for w, s in zip(weights, scores):
        expected += w * s
    assert _composite(_vector("c", scores), _salience(weights)) == expected


def test_composite_sums_left_to_right_without_compensation():
    # A compensated sum (math.fsum, or sum() of floats from Python 3.12 on)
    # gives 0.5833333333333334 here.
    weights = normalize(dict(zip(DIMS, [3, 3, 0, 2, 4, 3])))
    salience = _salience([weights[dim] for dim in DIMS])
    vector = _vector("c", [0.6, 0.45, 0.75, 0.55, 0.9, 0.3])
    assert _composite(vector, salience) == 0.5833333333333333


def test_composite_of_negative_zero_products_is_positive_zero():
    # A sum from 0.0 gives +0.0 here; the expression's first product is -0.0, so the clamp decides.
    vector = _vector("c", [0.0] * 6)
    salience = _salience([-0.0] * 6)
    assert math.copysign(1.0, _composite(vector, salience)) == 1.0


@given(
    raw=st.lists(st.floats(min_value=0, max_value=1e6), min_size=6, max_size=6),
    scores=st.lists(st.floats(min_value=0, max_value=1), min_size=6, max_size=6),
)
@example(raw=[4, 2, 3, 1, 0, 0], scores=[1.0] * 6)  # sums to 1.0000000000000002 unclamped
def test_composite_within_unit_interval(raw, scores):
    weights = normalize(dict(zip(DIMS, raw)))
    salience = _salience([weights[dim] for dim in DIMS])
    assert 0.0 <= _composite(_vector("c", scores), salience) <= 1.0


def test_rank_single_candidate(sarah_context, lexicons):
    candidate = Candidate(id="only", name="Only dish", prep_time_minutes=10)
    salience = _salience([1 / 6] * 6)
    ranked = rank_candidates([candidate], sarah_context, salience, lexicons=lexicons)
    assert [entry.candidate_id for entry in ranked.entries] == ["only"]
    assert ranked.entries[0].candidate == candidate


def test_rank_sarah_fixture_winner(sarah, sarah_context, registry, lexicons):
    salience = compute_salience(sarah_context, registry)
    ranked = rank_candidates(
        list(sarah.candidates), sarah_context, salience, lexicons=lexicons
    )
    assert [entry.candidate_id for entry in ranked.entries] == [
        "veggie-stir-fry",
        "grain-bowl",
        "short-ribs",
    ]
    assert ranked.entries[0].composite == pytest.approx(0.8125)


def test_rank_tie_breaks_by_id():
    salience = _salience([1 / 6] * 6)
    vectors = [_vector("zeta", [0.5] * 6), _vector("alpha", [0.5] * 6)]
    ranked = rank_vectors(vectors, _candidates(vectors), salience)
    assert [entry.candidate_id for entry in ranked.entries] == ["alpha", "zeta"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rank_order_is_descending_composite_then_id_on_tie_heavy_vectors(data):
    # Few score and weight values make equal composites common, and ids come
    # in shuffled order, so input order cannot pass for the id tie-break.
    level = st.sampled_from([0.0, 0.5, 1.0])
    count = data.draw(st.integers(min_value=1, max_value=12))
    ids = data.draw(st.permutations([f"c{index:02d}" for index in range(count)]))
    vectors = [_vector(id, data.draw(st.lists(level, min_size=6, max_size=6))) for id in ids]
    salience = _salience(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=6, max_size=6)))
    ranked = rank_vectors(vectors, _candidates(vectors), salience)
    assert sorted(entry.candidate_id for entry in ranked.entries) == sorted(ids)
    assert list(ranked.entries) == sorted(ranked.entries, key=lambda e: (-e.composite, e.candidate_id))


def test_rank_empty_rejected(sarah_context, lexicons):
    with pytest.raises(NoCandidates):
        rank_candidates([], sarah_context, _salience([1 / 6] * 6), lexicons=lexicons)


def test_duplicate_ids_rejected_at_load(tmp_path):
    # Ids are checked once, where a catalog enters; ranking does not check them again.
    catalog = tmp_path / "candidates.json"
    catalog.write_text(json.dumps([
        {"id": "dup", "name": "A", "prep_time_minutes": 1},
        {"id": "dup", "name": "B", "prep_time_minutes": 1},
    ]))
    with pytest.raises(DuplicateCandidate, match="^duplicate candidate id: 'dup'$"):
        load_candidates(catalog)


def test_filter_excludes_violators(alex, alex_context, registry, lexicons):
    salience = compute_salience(alex_context, registry)
    ranked = rank_candidates(
        list(alex.candidates), alex_context, salience, lexicons=lexicons
    )
    assert [x.candidate_id for x in ranked.excluded] == ["pepperoni-pizza"]
    assert "vegetarian" in ranked.excluded[0].reason
    entry_ids = {entry.candidate_id for entry in ranked.entries}
    assert not entry_ids & {"pepperoni-pizza"}


def test_filter_off_keeps_violators(alex, alex_context, registry, lexicons):
    salience = compute_salience(alex_context, registry)
    ranked = rank_candidates(
        list(alex.candidates),
        alex_context,
        salience,
        lexicons=lexicons,
        filter_normative=False,
    )
    assert not ranked.excluded
    by_id = {entry.candidate_id: entry for entry in ranked.entries}
    assert by_id["pepperoni-pizza"].vector.scores[Dimension.NORMATIVE_SIGNIFICANCE] == 0.0


def test_all_excluded_leaves_entries_empty(registry, lexicons):
    profile = UserProfile(user_id="u", dietary_constraints=("vegan",))
    context = build_unified_context(profile, Query(text="dinner"), registry, lexicons)
    candidates = [Candidate(id="meat", name="Steak", tags=("beef",))]
    ranked = rank_candidates(candidates, context, _salience([1 / 6] * 6), lexicons=lexicons)
    assert not ranked.entries
    assert ranked.excluded[0].candidate_id == "meat"


WORD_POOL = [
    "quick", "fast", "healthy", "nutritious", "rich", "bland", "customizable",
    "classic", "stew", "bowl", "salad", "noodles", "beans", "fresh", "boring",
    "spicy", "roast", "greens", "tofu", "herbs",
]


@st.composite
def random_candidates(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    candidates = []
    for index in range(count):
        words = draw(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=6))
        candidates.append(
            Candidate(
                id=f"cand-{index}",
                name=" ".join(words[:2]),
                description=" ".join(words),
                prep_time_minutes=draw(st.integers(min_value=1, max_value=240)),
                ingredients=tuple(draw(st.lists(st.sampled_from(WORD_POOL), max_size=4))),
                tags=tuple(draw(st.lists(st.sampled_from(WORD_POOL), max_size=3))),
                customization_options=draw(st.integers(min_value=0, max_value=5)),
            )
        )
    return candidates


@settings(max_examples=60, deadline=None)
@given(candidates=random_candidates(), data=st.data())
def test_all_scores_in_unit_interval(candidates, data, registry, lexicons):
    goals = tuple(data.draw(st.lists(st.sampled_from(WORD_POOL), max_size=3)))
    profile = UserProfile(user_id="u", goals=goals, familiar_items=("beans", "salad"))
    query = data.draw(
        st.sampled_from(["feed me", "dinner in 20 minutes", "something fresh asap"])
    )
    context = build_unified_context(profile, Query(text=query), registry, lexicons)
    for candidate in candidates:
        for dim in DIMS:
            vector = appraisal_vector(candidate, context, lexicons)
            score, evidence = vector.scores[dim], vector.evidence[dim]
            assert 0.0 <= score <= 1.0
            if score > 0.0:
                assert evidence, f"nonzero {dim} score without evidence"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raising_a_score_never_lowers_rank(data):
    count = data.draw(st.integers(min_value=2, max_value=8))
    vectors = [
        _vector(
            f"c{index:02d}",
            [data.draw(st.floats(min_value=0, max_value=1)) for _ in range(6)],
        )
        for index in range(count)
    ]
    raw = [data.draw(st.floats(min_value=0, max_value=1)) for _ in range(6)]
    total = sum(raw) or 1.0
    salience = _salience([value / total for value in raw])
    target = data.draw(st.integers(min_value=0, max_value=count - 1))
    dim = data.draw(st.sampled_from(DIMS))
    bump = data.draw(st.floats(min_value=0.01, max_value=1.0))

    before = rank_vectors(vectors, _candidates(vectors), salience)
    target_id = vectors[target].candidate_id
    rank_before = [e.candidate_id for e in before.entries].index(target_id)

    new_scores = dict(vectors[target].scores)
    new_scores[dim] = min(1.0, new_scores[dim] + bump)
    vectors[target] = AppraisalVector(
        candidate_id=target_id,
        scores=new_scores,
        evidence=vectors[target].evidence,
    )
    after = rank_vectors(vectors, _candidates(vectors), salience)
    rank_after = [e.candidate_id for e in after.entries].index(target_id)
    assert rank_after <= rank_before


@settings(max_examples=40, deadline=None)
@given(data=st.data(), scale=st.floats(min_value=0.1, max_value=10))
def test_composite_order_invariant_under_weight_scaling(data, scale):
    # Scaling raw weights and renormalizing is a no-op on the L1-normalized
    # profile, so the ranking cannot change.
    raw = {dim: data.draw(st.floats(min_value=0, max_value=5)) for dim in DIMS}
    vectors = [
        _vector(f"c{i}", [data.draw(st.floats(min_value=0, max_value=1)) for _ in range(6)])
        for i in range(4)
    ]
    base_weights = normalize(raw)
    scaled_weights = normalize({dim: value * scale for dim, value in raw.items()})
    candidates = _candidates(vectors)
    base = rank_vectors(vectors, candidates, _salience([base_weights[d] for d in DIMS]))
    scaled = rank_vectors(vectors, candidates, _salience([scaled_weights[d] for d in DIMS]))
    assert [e.candidate_id for e in base.entries] == [e.candidate_id for e in scaled.entries]


@st.composite
def random_profiles(draw):
    word = st.sampled_from(WORD_POOL)
    constraint = st.one_of(word, word.map("no-{}".format), word.map("{}-free".format))
    return UserProfile(
        user_id="u",
        goals=tuple(draw(st.lists(word, max_size=3))),
        dietary_constraints=tuple(draw(st.lists(constraint, max_size=2))),
        familiar_items=tuple(draw(st.lists(word, max_size=3))),
    )


QUERIES = st.sampled_from(
    ["feed me", "dinner in 20 minutes", "something fresh asap", "a quick healthy bowl in an hour"]
)


@settings(max_examples=60, deadline=None)
@given(
    candidates=random_candidates(), first=random_profiles(), second=random_profiles(),
    queries=st.tuples(QUERIES, QUERIES),
)
def test_cached_features_score_like_a_fresh_candidate(candidates, first, second, queries, registry, lexicons):
    warm = _context(registry, lexicons, first, queries[0])
    context = _context(registry, lexicons, second, queries[1])
    for candidate in candidates:
        appraisal_vector(candidate, warm, lexicons)  # builds and keeps the parts
        fresh = _rebuilt(candidate)
        assert candidate._parts is not None and fresh._parts is None
        assert appraisal_vector(candidate, context, lexicons) == appraisal_vector(fresh, context, lexicons)


# Queries from the fixed list, and free word sequences that hit several dimensions at once.
SALIENCE_QUERIES = st.one_of(
    QUERIES, st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=8).map(" ".join)
)


@settings(max_examples=100, deadline=None)
@given(profile=random_profiles(), query=SALIENCE_QUERIES)
def test_salience_weights_are_complete_and_sum_to_one(profile, query, registry, lexicons):
    # The composite reads all six weights with no fallback.
    weights = compute_salience(_context(registry, lexicons, profile, query), registry).weights
    assert weights.keys() == set(DIMS)
    assert all(math.isfinite(weight) and 0.0 <= weight <= 1.0 for weight in weights.values())
    assert abs(math.fsum(weights.values()) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    candidates=random_candidates(), profile=random_profiles(), query=SALIENCE_QUERIES,
    filter_normative=st.booleans(),
)
def test_ranked_records_are_complete(candidates, profile, query, filter_normative, registry, lexicons):
    # rank_vectors and build_plan index the scores and evidence with no fallback.
    context = _context(registry, lexicons, profile, query)
    salience = compute_salience(context, registry)
    ranked = rank_candidates(candidates, context, salience, lexicons=lexicons, filter_normative=filter_normative)
    for entry in ranked.entries:
        assert entry.vector.scores.keys() == entry.vector.evidence.keys() == set(DIMS)
        assert all(0.0 <= score <= 1.0 for score in entry.vector.scores.values())
    assert all(exclusion.reason for exclusion in ranked.excluded)


@settings(max_examples=80, deadline=None)
@given(candidates=random_candidates(), profile=random_profiles(), query=QUERIES)
@example(  # two violations in one reason
    candidates=[Candidate(id="c", name="Stew", ingredients=("beans",)), Candidate(id="d", name="Tofu")],
    profile=UserProfile(user_id="u", dietary_constraints=("vegan", "no-beans")), query="feed me",
)
def test_exclusion_before_appraisal_matches_the_normative_score(candidates, profile, query, registry, lexicons):
    # The rule the constraint check replaced: appraise every candidate, then
    # exclude each whose Normative Significance is 0.0, its evidence the reason.
    context = _context(registry, lexicons, profile, query)
    salience = compute_salience(context, registry)
    everyone = rank_candidates(candidates, context, salience, lexicons=lexicons, filter_normative=False)
    violations = {
        entry.candidate_id: entry.vector.evidence[Dimension.NORMATIVE_SIGNIFICANCE]
        for entry in everyone.entries if entry.vector.scores[Dimension.NORMATIVE_SIGNIFICANCE] == 0.0
    }
    fresh = [_rebuilt(candidate) for candidate in candidates]
    ranked = rank_candidates(fresh, context, salience, lexicons=lexicons)
    assert ranked.entries == tuple(entry for entry in everyone.entries if entry.candidate_id not in violations)
    assert ranked.excluded == tuple(
        (candidate.id, "; ".join(violations[candidate.id])) for candidate in candidates
        if candidate.id in violations
    )
    # An excluded candidate was never tokenized; appraised ones rank the same whether kept parts were warm.
    assert all(candidate._parts is None for candidate in fresh if candidate.id in violations)
    assert rank_candidates(candidates, context, salience, lexicons=lexicons) == ranked


@settings(max_examples=60, deadline=None)
@given(candidates=random_candidates(), profile=random_profiles(), query=QUERIES, data=st.data())
def test_ranking_ignores_input_order(candidates, profile, query, data, registry, lexicons):
    context = _context(registry, lexicons, profile, query)
    salience = compute_salience(context, registry)
    shuffled = data.draw(st.permutations(candidates))
    ranked = rank_candidates(candidates, context, salience, lexicons=lexicons)
    reranked = rank_candidates(shuffled, context, salience, lexicons=lexicons)
    assert ranked.entries == reranked.entries
    by_id = attrgetter("candidate_id")
    assert sorted(ranked.excluded, key=by_id) == sorted(reranked.excluded, key=by_id)


@settings(max_examples=60, deadline=None)
@given(
    candidates=random_candidates(), profile=random_profiles(), query=QUERIES,
    filter_normative=st.booleans(),
)
def test_ranked_composites_are_the_composite_score_in_rank_order(
    candidates, profile, query, filter_normative, registry, lexicons
):
    context = _context(registry, lexicons, profile, query)
    salience = compute_salience(context, registry)
    ranked = rank_candidates(candidates, context, salience, lexicons=lexicons, filter_normative=filter_normative)
    for entry in ranked.entries:
        assert entry.composite == _composite(entry.vector, salience)
    keys = [(-entry.composite, entry.candidate_id) for entry in ranked.entries]
    assert keys == sorted(keys)


@settings(max_examples=80, deadline=None)
@given(candidates=random_candidates(), profile=random_profiles(), query=QUERIES)
def test_evidence_stance_agrees_with_the_scores(candidates, profile, query, registry, lexicons):
    context = _context(registry, lexicons, profile, query)
    limit = context.time_constraint_minutes
    for candidate in candidates:
        vector = appraisal_vector(candidate, context, lexicons)
        for dim in DIMS:
            marks = {type(fact) for fact in vector.evidence[dim]}
            assert marks <= {str, scoring.Against, scoring.Neutral}
            if str in marks:
                assert vector.scores[dim] > 0.0, f"{dim} scores 0 with evidence for it"
        valence, midpoint = vector.scores[Dimension.VALENCE], scoring.VALENCE_MIDPOINT
        (valence_mark,) = map(type, vector.evidence[Dimension.VALENCE])
        assert valence_mark is (
            str if valence > midpoint else scoring.Neutral if valence == midpoint else scoring.Against
        )
        time_mark = type(vector.evidence[Dimension.URGENCY][0])
        assert (time_mark is scoring.Against) == (limit is not None and candidate.prep_time_minutes > limit)
        assert (time_mark is scoring.Neutral) == (limit is None)


@settings(max_examples=80, deadline=None)
@given(candidates=random_candidates(), profile=random_profiles(), query=QUERIES, data=st.data())
def test_template_words_each_finding_from_its_marks_alone(candidates, profile, query, data, registry, lexicons):
    context = _context(registry, lexicons, profile, query)
    salience = compute_salience(context, registry)
    ranked = rank_candidates(candidates, context, salience, lexicons=lexicons, filter_normative=False)
    plan = build_plan(ranked, salience, context, registry)
    text = realize_template(plan)
    for finding, line in zip(plan.dominant, text.splitlines()[1:]):
        assert all(fact in line for fact in finding.evidence)
        reasons = [fact for fact in finding.evidence if type(fact) is str]
        _, favored, rest = line.partition("favored because ")
        if not reasons:
            assert not favored
            continue
        for wording in ("; neither favors nor counts against this choice: ", "; counts against this choice: "):
            rest = rest.partition(wording)[0]
        assert rest.removesuffix(".") == "; ".join(reasons)
    # Realization reads the marks, not the scores, of findings with evidence.
    rescored = tuple(
        finding._replace(score=data.draw(st.floats(min_value=0, max_value=1))) if finding.evidence else finding
        for finding in plan.dominant
    )
    assert realize_template(plan._replace(dominant=rescored)) == text


# Moves the words the kept parts read: the sentiment, urgency and agency lists.
LEXICON_OVERRIDE = {
    "dimensions": {"Urgency": ["stew", "bowl", "roast"], "Agency": ["spicy", "greens", "tofu"]},
    "sentiment": {"positive": ["beans", "herbs", "salad", "boring"]},
}


@settings(max_examples=60, deadline=None)
@given(
    candidates=random_candidates(), profile=random_profiles(),
    queries=st.lists(QUERIES, min_size=2, max_size=5),
)
@example(
    candidates=[Candidate(
        id="c", name="Stew", description="quick beans stew, boring", tags=("customizable", "spicy"),
    )],
    profile=UserProfile(user_id="u"), queries=["feed me", "feed me", "feed me"],
)
def test_warm_candidate_scores_like_a_fresh_record(candidates, profile, queries, registry, lexicons):
    # Queries alternate the bundled lexicons and an override, so parts kept
    # for the other lexicons would show as a difference.
    both = (lexicons, load_lexicons(LEXICON_OVERRIDE))
    for index, query in enumerate(queries):
        lex = both[index % 2]
        context = _context(registry, lex, profile, query)
        for candidate in candidates:
            fresh = _rebuilt(candidate)
            assert appraisal_vector(candidate, context, lex) == appraisal_vector(fresh, context, lex)


def test_kept_parts_follow_the_lexicons(registry, lexicons):
    candidate = Candidate(id="c", name="Stew", description="beans stew", tags=("spicy",))
    override = load_lexicons(LEXICON_OVERRIDE)
    context = _context(registry, lexicons, UserProfile(user_id="u"), "feed me")
    bundled = appraisal_vector(candidate, context, lexicons)
    overridden = appraisal_vector(candidate, context, override)
    assert bundled.evidence[Dimension.VALENCE] == ("description sentiment: neutral (no lexicon matches)",)
    assert overridden.evidence[Dimension.VALENCE] == ("description sentiment: 1 positive, 0 negative (beans)",)
    assert overridden.evidence[Dimension.URGENCY][1:] == ("urgency keywords matched: stew",)
    assert overridden.evidence[Dimension.AGENCY] == ("customization tags matched: spicy",)
    assert appraisal_vector(candidate, context, lexicons) == bundled


# Run in a fresh interpreter: whether a late attribute costs a private dict
# depends on the keys earlier instances of the class have shared.
_KEPT_PARTS_PROBE = """
import json, tracemalloc
from appraisal_explainer.context import Query, UserProfile, build_unified_context
from appraisal_explainer.lexicons import load_lexicons
from appraisal_explainer.registry import load_registry
from appraisal_explainer.scoring import Candidate, appraisal_vector
lexicons = load_lexicons()
context = build_unified_context(UserProfile(user_id="u"), Query(text="dinner"), load_registry(), lexicons)
candidates = [Candidate(id=f"c{index}", name="Plain dish") for index in range(2000)]
keys = [list(vars(candidate)) for candidate in candidates]
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
for candidate in candidates:
    appraisal_vector(candidate, context, lexicons)
retained = (tracemalloc.get_traced_memory()[0] - before) / len(candidates)
print(json.dumps({"retained": retained, "same_keys": keys == [list(vars(c)) for c in candidates]}))
"""


def test_kept_parts_retain_little_memory():
    # Everything a plain candidate keeps after its first appraisal: the kept
    # tuple, its terms, one evidence tuple and a float, about 260 bytes. An
    # attribute that ``__init__`` does not set would add a private dict of
    # about 400 bytes.
    done = subprocess.run(
        [sys.executable, "-c", _KEPT_PARTS_PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(scoring.__file__).parents[1])},
    )
    probe = json.loads(done.stdout)
    assert probe["same_keys"]
    assert probe["retained"] <= 288


@settings(max_examples=60, deadline=None)
@given(
    candidates=random_candidates(), extra=random_candidates(), profile=random_profiles(),
    query=QUERIES, filter_normative=st.booleans(),
)
def test_adding_a_candidate_never_reorders_the_others(
    candidates, extra, profile, query, filter_normative, registry, lexicons
):
    context = _context(registry, lexicons, profile, query)
    salience = compute_salience(context, registry)
    added = _rebuilt(extra[0], id="added")

    def ranked_ids(catalog):
        ranked = rank_candidates(
            catalog, context, salience, lexicons=lexicons, filter_normative=filter_normative
        )
        entries = [entry.candidate_id for entry in ranked.entries]
        return entries, [exclusion.candidate_id for exclusion in ranked.excluded]

    entries, excluded = ranked_ids(candidates)
    more_entries, more_excluded = ranked_ids([*candidates, added])
    assert [cid for cid in more_entries if cid != "added"] == entries
    assert [cid for cid in more_excluded if cid != "added"] == excluded


def test_run_pipeline_scores_through_the_module_global(monkeypatch, alex):
    # Callers that rebind scoring.appraisal_vector, such as a tracer, see every
    # call: one per candidate with the normative filter off, and with it on
    # one per candidate that is not excluded, which is never appraised.
    scored = []
    original = scoring.appraisal_vector

    def counted(candidate, *args, **kwargs):
        scored.append(candidate.id)
        return original(candidate, *args, **kwargs)

    monkeypatch.setattr(scoring, "appraisal_vector", counted)
    ids = [candidate.id for candidate in alex.candidates]
    for filter_normative, excluded in ((True, ["pepperoni-pizza"]), (False, [])):
        cfg = RunConfig(filter_normative=filter_normative)
        scored.clear()
        result = run_pipeline(
            alex.profile, alex.query, list(alex.candidates), load_engine_data(cfg), cfg, RunLog()
        )
        assert [exclusion.candidate_id for exclusion in result.ranked.excluded] == excluded
        assert scored == [id for id in ids if id not in excluded]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_admitted_candidate_is_diet_checked_once(monkeypatch, seed, registry, lexicons):
    # With the filter on, ranking checks each candidate's diet once and hands
    # an admitted candidate's verdict to its appraisal, which must then score
    # as if it had checked the diet itself. No rules, no check.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen

    keywords, sentiment = gen.load_word_lists()
    rng = random.Random(seed)
    catalog = [Candidate.from_dict(doc) for doc in gen.catalog(rng, 200, keywords, sentiment)]
    checked, check = [], scoring._Situation.normative

    def counted(situation, tags, tokens):
        checked.append(tags)
        return check(situation, tags, tokens)

    for record in gen.profile_mix(rng, len(gen.CONSTRAINT_MIX), keywords, sentiment):
        profile = UserProfile.from_dict(record)
        for query in gen.query_mix(rng, 2, keywords, sentiment):
            context = _context(registry, lexicons, profile, query)
            salience = compute_salience(context, registry)
            checked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(scoring._Situation, "normative", counted)
                ranked = rank_candidates(catalog, context, salience, lexicons=lexicons)
            assert len(checked) == (len(catalog) if profile.dietary_constraints else 0)
            assert len(ranked.entries) + len(ranked.excluded) == len(catalog)
            for entry in ranked.entries:
                assert entry.vector == appraisal_vector(entry.candidate, context, lexicons)


def _unique_tokens(texts):
    return tuple(dict.fromkeys(token for text in texts for token in tokenize(text)))


def _terms(candidate):
    return _unique_tokens((candidate.name, candidate.description, *candidate.tags))


# Each field tokenized on its own, item by item: the derivation the kept
# token tuples (terms, items, tags_lower, item_tokens) must reproduce.
def _reference_tokens(candidate):
    tags, values = candidate.tags, candidate.tags + candidate.ingredients
    cleaned = (value.strip().lower() for value in values)
    return (
        _terms(candidate),
        tuple(dict.fromkeys(value for value in cleaned if value)),
        tuple(dict.fromkeys(tag.strip().lower() for tag in tags)),
        _unique_tokens(values),
    )


def _kept_tokens(candidate, lexicons):
    return scoring._candidate_parts(candidate, lexicons)[1:5]


# Hyphens, punctuation and whitespace split tokens; U+0130 and the Kelvin sign
# lower-case to ASCII ("i" plus a combining dot, and "k").
FIELD_TEXT = st.one_of(
    st.sampled_from(["", " ", "   ", "gluten-free", "no-nuts", "İ", "\u212a", "İK-\u212a"]),
    st.text(st.one_of(st.sampled_from("aZ09 -_,.'!\t\nİ\u212aσΣ"), st.characters()), max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(
    name=FIELD_TEXT, description=FIELD_TEXT,
    tags=st.lists(FIELD_TEXT, max_size=4), ingredients=st.lists(FIELD_TEXT, max_size=4),
)
@example(name="", description="", tags=["gluten-free", "no-nuts"], ingredients=["\u0130", "\u212a", " "])
def test_features_match_a_per_item_derivation(name, description, tags, ingredients, lexicons):
    candidate = Candidate(
        id="c", name=name, description=description, tags=tuple(tags), ingredients=tuple(ingredients)
    )
    kept = _kept_tokens(candidate, lexicons)
    assert kept == _reference_tokens(candidate)
    # An equal, new string interns to the very string the candidate keeps.
    assert all(sys.intern((value + ".")[:-1]) is value for field in kept for value in field)


def test_features_retain_little_memory(lexicons):
    rng = random.Random(7)
    candidates = [
        Candidate(
            id=f"c{index}",
            name=" ".join(rng.sample(WORD_POOL, 2)),
            description=" ".join(rng.choices(WORD_POOL, k=12)),
            ingredients=tuple(rng.sample(WORD_POOL, 4)),
            tags=tuple(rng.sample(WORD_POOL, 3)),
        )
        for index in range(2000)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for candidate in candidates:
            scoring._candidate_parts(candidate, lexicons)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(candidates) <= 1536


def test_item_memos_stay_within_their_bound(registry, lexicons):
    # Distinct tags, tag lists, ingredients, option counts and prep times,
    # more of each than the bound: every memo in the module misses more often
    # than it may hold.
    memos = [value for value in vars(scoring).values() if hasattr(value, "cache_info")]
    assert len(memos) >= 5
    for memo in memos:
        memo.cache_clear()
    overflow = scoring.ITEM_MEMO_SIZE + 10
    context = _context(registry, lexicons, UserProfile(user_id="u"), "dinner in 20 minutes")
    for index in range(overflow):
        appraisal_vector(Candidate(
            id=f"c{index}", name="Dish", prep_time_minutes=index + 1, tags=(f"tag {index}",),
            ingredients=(f"ingredient {index}",), customization_options=index + 1,
        ), context, lexicons)
    for memo in memos:
        info = memo.cache_info()
        assert info.misses >= overflow and info.currsize <= scoring.ITEM_MEMO_SIZE, memo.__name__


def test_candidates_with_equal_tags_share_their_tag_tuples(lexicons):
    # Equal tags built as distinct string objects, on candidates that differ otherwise.
    first, second = (
        Candidate(
            id=f"c{index}", name=f"Dish {index}", ingredients=(f"bean {index}",),
            tags=tuple("".join(parts) for parts in (("Gluten", "-free"), (" Quick", " meal"))),
        )
        for index in range(2)
    )
    assert first.tags == second.tags and first.tags[0] is not second.tags[0]
    (_, _, first_tags, first_tokens), (_, _, second_tags, second_tokens) = (
        _kept_tokens(candidate, lexicons) for candidate in (first, second)
    )
    assert first_tags is second_tags
    assert first_tokens != second_tokens


# Each dimension's scorer derived afresh for each candidate from the
# candidate's and profile's own fields, nothing kept per candidate, per
# context or per catalog: the results, and each evidence string's stance,
# that the compiled checks and the memos must reproduce.
def _reference_valence(candidate, context, lexicons):
    words = tokenize(candidate.description)
    positive = [word for word in words if word in lexicons.positive]
    negative = [word for word in words if word in lexicons.negative and word not in lexicons.positive]
    pos, neg = len(positive), len(negative)
    score = scoring.VALENCE_MIDPOINT + 0.5 * (pos - neg) / max(1, pos + neg)
    if not positive and not negative:
        return score, (Neutral("description sentiment: neutral (no lexicon matches)"),)
    stance = str if pos > neg else Neutral if pos == neg else Against
    matched = ", ".join(positive + negative)
    return score, (stance(f"description sentiment: {pos} positive, {neg} negative ({matched})"),)


def _reference_agency(candidate, context, lexicons):
    hits = sorted(lexicons.dimension_words[Dimension.AGENCY].intersection(_unique_tokens(candidate.tags)))
    options = candidate.customization_options
    score = scoring._clamp01(min(1.0, (options + len(hits)) / scoring.AGENCY_SATURATION))
    evidence = []
    if options > 0:
        evidence.append(f"{options} documented customization option" + ("" if options == 1 else "s"))
    if hits:
        evidence.append("customization tags matched: " + ", ".join(hits))
    return score, tuple(evidence)


def _reference_urgency(candidate, context, lexicons):
    hits = sorted(lexicons.dimension_words[Dimension.URGENCY].intersection(_terms(candidate)))
    keyword_part = min(1.0, len(hits) / scoring.URGENCY_KEYWORD_SATURATION)
    keyword_evidence = "urgency keywords matched: " + ", ".join(hits) if hits else None
    limit = context.time_constraint_minutes
    prep = candidate.prep_time_minutes
    if limit is None:
        time_fit = 1.0
        time_evidence = Neutral(f"no time limit given; prep time {prep} min")
    else:
        time_fit = scoring._clamp01(1.0 - max(0, prep - limit) / limit)
        available = "1 minute" if limit == 1 else f"{limit} minutes"
        if prep <= limit:
            time_evidence = f"prep time {prep} min is within the {available} available"
        else:
            time_evidence = Against(f"prep time {prep} min exceeds the {available} available")
    score = scoring._clamp01(
        scoring.URGENCY_TIME_WEIGHT * time_fit + scoring.URGENCY_KEYWORD_WEIGHT * keyword_part
    )
    if keyword_evidence is None:
        return score, (time_evidence,)
    return score, (time_evidence, keyword_evidence)


def _reference_goal_relevance(candidate, context, lexicons):
    goals = context.profile.goals
    if not goals:
        return 0.0, ()
    terms = _terms(candidate)
    matched = sorted(
        goal for goal in goals if tokenize(goal) and all(token in terms for token in tokenize(goal))
    )
    score = scoring._clamp01(len(matched) / max(1, len(goals)))
    if not matched:
        return score, ()
    return score, ("matches your goals: " + ", ".join(matched),)


def _reference_predictability(candidate, context, lexicons):
    items = _reference_tokens(candidate)[1]
    familiar = frozenset(context.profile.familiar_items)
    shared = sorted(familiar.intersection(items))
    union = len(items) + len(familiar) - len(shared)
    if not union:
        return 0.0, ()
    score = scoring._clamp01(len(shared) / union)
    if not shared:
        return score, ()
    return score, ("shares familiar items: " + ", ".join(shared),)


def _reference_constraint_satisfied(constraint, candidate):
    _, _, tags_lower, item_tokens = _reference_tokens(candidate)
    if constraint in tags_lower:
        return True, ""
    banned = None
    if constraint.startswith("no-"):
        banned = constraint[3:]
    elif constraint.endswith("-free"):
        banned = constraint[: -len("-free")]
    if banned:
        if banned in item_tokens:
            return False, f"contains {banned}"
        return True, ""
    return False, f"not tagged {constraint}"


def _reference_normative(candidate, context, lexicons):
    constraints = context.profile.dietary_constraints
    if not constraints:
        return 1.0, ("no dietary constraints apply",)
    violations = []
    for constraint in constraints:
        ok, detail = _reference_constraint_satisfied(constraint, candidate)
        if not ok:
            violations.append(Against(f"violates '{constraint}': {detail}"))
    if violations:
        return 0.0, tuple(violations)
    return 1.0, ("satisfies dietary constraints: " + ", ".join(constraints),)


REFERENCE_SCORERS = {
    Dimension.VALENCE: _reference_valence,
    Dimension.AGENCY: _reference_agency,
    Dimension.URGENCY: _reference_urgency,
    Dimension.GOAL_RELEVANCE: _reference_goal_relevance,
    Dimension.PREDICTABILITY_SURPRISE: _reference_predictability,
    Dimension.NORMATIVE_SIGNIFICANCE: _reference_normative,
}

SITUATIONAL_DIMENSIONS = (
    Dimension.URGENCY, Dimension.GOAL_RELEVANCE, Dimension.PREDICTABILITY_SURPRISE,
    Dimension.NORMATIVE_SIGNIFICANCE,
)

# Tags and constraints that exercise each rule: a verbatim tag, "no-" and
# "-free" with and without a banned word, and a banned word that is one
# token of a hyphenated item ("gluten-free" holds "gluten").
RULE_WORDS = ["vegetarian", "gluten-free", "no-nuts", "no-", "-free", "no--free", "nuts", "gluten"]
SITUATIONAL_WORD = st.sampled_from(WORD_POOL + RULE_WORDS)
# Tags that hold Agency words: one, two, hyphenated, unnormalized, or one that only contains a word.
AGENCY_TAG = st.sampled_from(["swap", "choose options", "Customize-your-own", " ADJUST ", "controlled"])


@st.composite
def situational_candidates(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    return [
        Candidate(
            id=f"cand-{index}",
            name=draw(SITUATIONAL_WORD),
            description=" ".join(draw(st.lists(SITUATIONAL_WORD, max_size=5))),
            prep_time_minutes=draw(st.integers(min_value=1, max_value=240)),
            ingredients=tuple(draw(st.lists(SITUATIONAL_WORD, max_size=4))),
            tags=tuple(draw(st.lists(st.one_of(SITUATIONAL_WORD, AGENCY_TAG), max_size=3))),
            customization_options=draw(st.integers(min_value=0, max_value=4)),
        )
        for index in range(count)
    ]


@st.composite
def situational_profiles(draw):
    word = st.sampled_from(WORD_POOL)
    constraint = st.one_of(
        SITUATIONAL_WORD, word.map("no-{}".format), word.map("{}-free".format),
    )
    goal = st.one_of(
        word,
        st.lists(word, min_size=2, max_size=3).map(" ".join),  # multi-word
        st.sampled_from(["!!", "-", "quick-fresh", "QUICK "]),  # tokenless, hyphenated, unnormalized
    )
    return UserProfile(
        user_id="u",
        goals=tuple(draw(st.lists(goal, max_size=4))),
        dietary_constraints=tuple(draw(st.lists(constraint, max_size=4))),
        familiar_items=tuple(draw(st.lists(st.one_of(word, SITUATIONAL_WORD), max_size=3))),
    )


# No time limit, and limits that the drawn prep times fall under and over.
TIMED_QUERIES = st.sampled_from(["feed me", "dinner in 20 minutes", "in 1 min", "an hour", "ready in 3 hours"])


@settings(max_examples=150, deadline=None)
@given(candidates=situational_candidates(), profile=situational_profiles(), query=TIMED_QUERIES)
@example(
    candidates=[
        Candidate(id="a", name="Stew", prep_time_minutes=20, tags=("no-", "vegetarian"), ingredients=("nuts",)),
        Candidate(id="b", name="Quick fresh salad", prep_time_minutes=21, ingredients=("gluten", "beans")),
    ],
    profile=UserProfile(
        user_id="u", goals=("quick fresh", "!!", "stew", "stew"),
        dietary_constraints=("no-", "-free", "vegetarian", "no-nuts", "gluten-free", "no-nuts"),
    ),
    query="dinner in 20 minutes",
)
@example(  # a goal's second token is a term and its first is not; ingredients are not terms
    candidates=[Candidate(id="a", name="Stew", ingredients=("fresh",))],
    profile=UserProfile(user_id="u", goals=("salad stew", "fresh")),
    query="feed me",
)
@example(  # a tokenless goal matches nothing but still counts toward the goals
    candidates=[Candidate(id="a", name="Salad"), Candidate(id="b", name="Beans")],
    profile=UserProfile(user_id="u", goals=("!!", "salad")),
    query="feed me",
)
def test_compiled_situational_checks_score_like_the_per_candidate_scorers(
    candidates, profile, query, registry, lexicons
):
    context = _context(registry, lexicons, profile, query)
    for candidate in candidates:
        for dim, reference in REFERENCE_SCORERS.items():
            vector = appraisal_vector(candidate, context, lexicons)
            assert _exactly(vector.scores[dim], vector.evidence[dim]) == _exactly(
                *reference(candidate, context, lexicons)
            )


def _exactly(score, evidence):
    """The score to the bit, and each evidence string with its stance: ``Against("x") == "x"``."""
    return score.hex(), [(type(fact), fact) for fact in evidence]


def test_alternating_contexts_keep_their_own_compiled_checks(registry, lexicons):
    # Each context differs from the other on all four situational checks.
    first = _context(registry, lexicons, UserProfile(
        user_id="u", goals=("quick",), dietary_constraints=("no-beans",), familiar_items=("beans",),
    ), "dinner in 10 minutes")
    second = _context(registry, lexicons, UserProfile(
        user_id="v", goals=("fresh", "herbs"), dietary_constraints=("vegan",), familiar_items=("herbs",),
    ), "feed me")
    candidates = [
        Candidate(id="a", name="Quick beans", prep_time_minutes=15, ingredients=("beans",), tags=("vegan",)),
        Candidate(id="b", name="Fresh herbs", prep_time_minutes=30, ingredients=("herbs",)),
    ]
    seen = {}
    for context in (first, second, first, second):
        for candidate in candidates:
            vector = appraisal_vector(candidate, context, lexicons)
            fresh = _context(registry, lexicons, context.profile, context.query.text)
            assert vector == appraisal_vector(candidate, fresh, lexicons)
            seen.setdefault(candidate.id, []).append(vector)
    for first_vector, second_vector, *_ in seen.values():
        assert all(first_vector.scores[dim] != second_vector.scores[dim] for dim in SITUATIONAL_DIMENSIONS)


@settings(max_examples=60, deadline=None)
@given(
    candidates=random_candidates(), filter_normative=st.booleans(),
    situations=st.lists(st.tuples(random_profiles(), QUERIES), min_size=2, max_size=3),
)
def test_realization_is_deterministic(candidates, situations, filter_normative, registry, lexicons):
    # Warm: candidates and the last context already appraised, by other
    # profiles and queries and by a first ranking; fresh: new records and a
    # new context.
    def explained(catalog, context):
        salience = compute_salience(context, registry)
        ranked = rank_candidates(
            catalog, context, salience, lexicons=lexicons, filter_normative=filter_normative
        )
        out = io.StringIO()
        write_ranking_json(ranked, out)
        if not ranked.entries:
            return out.getvalue(), None
        return out.getvalue(), realize_template(build_plan(ranked, salience, context, registry)).encode("utf-8")

    contexts = [_context(registry, lexicons, profile, query) for profile, query in situations]
    for context in contexts:
        explained(candidates, context)
    warm = explained(candidates, contexts[-1])
    fresh_candidates = [_rebuilt(candidate) for candidate in candidates]
    fresh = explained(fresh_candidates, _context(registry, lexicons, *situations[-1]))
    assert warm == fresh
