import dataclasses
import random
import sys
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from appraisal_explainer import (
    AppraisalVector,
    Candidate,
    Dimension,
    Query,
    SalienceProfile,
    UserProfile,
    appraisal_vector,
    build_unified_context,
    composite_score,
    compute_salience,
    rank_candidates,
    rank_vectors,
    score_dimension,
    tokenize,
)
from appraisal_explainer import scoring
from appraisal_explainer.config import RunConfig
from appraisal_explainer.errors import (
    DuplicateCandidate,
    IncompleteVector,
    NoCandidates,
)
from appraisal_explainer.pipeline import load_engine_data, run_pipeline
from appraisal_explainer.runlog import RunLog

DIMS = list(Dimension)


def _salience(values):
    weights = dict(zip(DIMS, values))
    ordered = tuple(sorted(DIMS, key=lambda d: (-weights[d], d.order)))
    return SalienceProfile(weights=weights, dominant=ordered[:3], scorer_id="test")


def _context(registry, lexicons, profile, text):
    return build_unified_context(profile, Query(text=text), registry, lexicons)


def test_urgency_formula_example(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner in 15 minutes")
    candidate = Candidate(
        id="c", name="Bowl", description="a quick dinner", prep_time_minutes=12
    )
    score, evidence = score_dimension(candidate, Dimension.URGENCY, context, lexicons)
    assert score == pytest.approx(0.7 * 1.0 + 0.3 * 0.5)
    assert any("within the 15 minutes" in hint for hint in evidence)
    assert any("quick" in hint for hint in evidence)


def test_urgency_overshoot_clamps(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner in 15 minutes")
    candidate = Candidate(id="c", name="Roast", prep_time_minutes=180)
    score, evidence = score_dimension(candidate, Dimension.URGENCY, context, lexicons)
    assert score == 0.0
    assert any("exceeds the 15 minutes" in hint for hint in evidence)


def test_goal_relevance_half_match(registry, lexicons):
    profile = UserProfile(user_id="u", goals=("healthy", "nutritious"))
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Salad", description="a healthy green salad")
    score, evidence = score_dimension(candidate, Dimension.GOAL_RELEVANCE, context, lexicons)
    assert score == 0.5
    assert evidence == ("matches your goals: healthy",)


def test_goal_relevance_matches_multi_word_goals(registry, lexicons):
    # A goal matches when each of its tokens is among the candidate's terms;
    # "high fiber" lacks "fiber", and a goal with no tokens never matches.
    goals = ("High Protein", "low-carb", "high fiber", "!!!")
    profile = UserProfile(user_id="u", goals=goals)
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="High Protein Bowl", tags=("protein", "low carb"))
    score, evidence = score_dimension(candidate, Dimension.GOAL_RELEVANCE, context, lexicons)
    assert score == 0.5
    assert evidence == ("matches your goals: high protein, low-carb",)


def test_valence_neutral_description(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Plain", description="some food on a plate")
    score, evidence = score_dimension(candidate, Dimension.VALENCE, context, lexicons)
    assert score == 0.5
    assert evidence == ("description sentiment: neutral (no lexicon matches)",)


def test_valence_negative_description(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Sad", description="bland, soggy and boring")
    score, evidence = score_dimension(candidate, Dimension.VALENCE, context, lexicons)
    assert score == 0.0
    assert "3 negative" in evidence[0]


def test_predictability_jaccard(registry, lexicons):
    profile = UserProfile(user_id="u", familiar_items=("rice", "eggs"))
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Fried rice", ingredients=("rice", "peas"), tags=("wok",))
    score, evidence = score_dimension(
        candidate, Dimension.PREDICTABILITY_SURPRISE, context, lexicons
    )
    # shared {rice}; union {rice, peas, wok, eggs}
    assert score == pytest.approx(1 / 4)
    assert evidence == ("shares familiar items: rice",)


def test_agency_saturation(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(
        id="c", name="Bar", tags=("customizable",), customization_options=4
    )
    score, evidence = score_dimension(candidate, Dimension.AGENCY, context, lexicons)
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
    score, evidence = score_dimension(
        candidate, Dimension.NORMATIVE_SIGNIFICANCE, context, lexicons
    )
    assert score == 0.0
    assert "violates 'vegetarian': not tagged vegetarian" in evidence
    assert "violates 'no-peanuts': contains peanuts" in evidence


def test_normative_no_constraints_is_one(registry, lexicons):
    profile = UserProfile(user_id="u")
    context = _context(registry, lexicons, profile, "dinner")
    candidate = Candidate(id="c", name="Anything")
    score, evidence = score_dimension(
        candidate, Dimension.NORMATIVE_SIGNIFICANCE, context, lexicons
    )
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


def test_composite_uniform_all_ones():
    salience = _salience([1 / 6] * 6)
    assert composite_score(_vector("c", [1.0] * 6), salience) == pytest.approx(1.0)


def test_composite_one_hot_projection():
    values = [0.0] * 6
    values[DIMS.index(Dimension.URGENCY)] = 1.0
    salience = _salience(values)
    scores = [0.2, 0.4, 0.6, 0.85, 0.1, 0.3]
    assert composite_score(_vector("c", scores), salience) == pytest.approx(0.85)


def test_composite_matches_manual_dot_product():
    weights = [0.4, 0.3, 0.1, 0.1, 0.05, 0.05]
    scores = [0.25, 0.5, 0.75, 1.0, 0.0, 0.6]
    expected = 0.0
    for w, s in zip(weights, scores):
        expected += w * s
    assert composite_score(_vector("c", scores), _salience(weights)) == expected


@given(
    raw=st.lists(st.floats(min_value=0, max_value=1e6), min_size=6, max_size=6),
    scores=st.lists(st.floats(min_value=0, max_value=1), min_size=6, max_size=6),
)
@example(raw=[4, 2, 3, 1, 0, 0], scores=[1.0] * 6)  # sums to 1.0000000000000002 unclamped
def test_composite_within_unit_interval(raw, scores):
    from appraisal_explainer import normalize

    weights = normalize(dict(zip(DIMS, raw)))
    salience = _salience([weights[dim] for dim in DIMS])
    assert 0.0 <= composite_score(_vector("c", scores), salience) <= 1.0


def test_composite_missing_dimension_rejected():
    salience = _salience([1 / 6] * 6)
    scores = {dim: 0.5 for dim in DIMS[:5]}
    vector = AppraisalVector(candidate_id="c", scores=scores, evidence={})
    with pytest.raises(IncompleteVector):
        composite_score(vector, salience)


def test_rank_single_candidate(sarah_context, lexicons):
    candidate = Candidate(id="only", name="Only dish", prep_time_minutes=10)
    salience = _salience([1 / 6] * 6)
    ranked = rank_candidates([candidate], sarah_context, salience, lexicons=lexicons)
    assert [entry.candidate_id for entry in ranked.entries] == ["only"]
    assert ranked.entries[0].candidate == candidate


def test_rank_sarah_fixture_winner(sarah, sarah_context, registry, lexicons):
    from appraisal_explainer import compute_salience

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


def test_rank_empty_rejected(sarah_context, lexicons):
    with pytest.raises(NoCandidates):
        rank_candidates([], sarah_context, _salience([1 / 6] * 6), lexicons=lexicons)


def test_rank_duplicate_ids_rejected(sarah_context, lexicons):
    candidates = [Candidate(id="dup", name="A"), Candidate(id="dup", name="B")]
    with pytest.raises(DuplicateCandidate):
        rank_candidates(candidates, sarah_context, _salience([1 / 6] * 6), lexicons=lexicons)


def test_filter_excludes_violators(alex, alex_context, registry, lexicons):
    from appraisal_explainer import compute_salience

    salience = compute_salience(alex_context, registry)
    ranked = rank_candidates(
        list(alex.candidates), alex_context, salience, lexicons=lexicons
    )
    assert [x.candidate_id for x in ranked.excluded] == ["pepperoni-pizza"]
    assert "vegetarian" in ranked.excluded[0].reason
    entry_ids = {entry.candidate_id for entry in ranked.entries}
    assert not entry_ids & {"pepperoni-pizza"}


def test_filter_off_keeps_violators(alex, alex_context, registry, lexicons):
    from appraisal_explainer import compute_salience

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
            score, evidence = score_dimension(candidate, dim, context, lexicons)
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

    before = rank_vectors(vectors, _candidates(vectors), salience, filter_normative=False)
    target_id = vectors[target].candidate_id
    rank_before = [e.candidate_id for e in before.entries].index(target_id)

    new_scores = dict(vectors[target].scores)
    new_scores[dim] = min(1.0, new_scores[dim] + bump)
    vectors[target] = AppraisalVector(
        candidate_id=target_id,
        scores=new_scores,
        evidence=vectors[target].evidence,
    )
    after = rank_vectors(vectors, _candidates(vectors), salience, filter_normative=False)
    rank_after = [e.candidate_id for e in after.entries].index(target_id)
    assert rank_after <= rank_before


@settings(max_examples=40, deadline=None)
@given(data=st.data(), scale=st.floats(min_value=0.1, max_value=10))
def test_composite_order_invariant_under_weight_scaling(data, scale):
    # Scaling raw weights and renormalizing is a no-op on the L1-normalized
    # profile, so the ranking cannot change.
    from appraisal_explainer import normalize

    raw = {dim: data.draw(st.floats(min_value=0, max_value=5)) for dim in DIMS}
    vectors = [
        _vector(f"c{i}", [data.draw(st.floats(min_value=0, max_value=1)) for _ in range(6)])
        for i in range(4)
    ]
    base_weights = normalize(raw)
    scaled_weights = normalize({dim: value * scale for dim, value in raw.items()})
    candidates = _candidates(vectors)
    base = rank_vectors(
        vectors, candidates, _salience([base_weights[d] for d in DIMS]), filter_normative=False
    )
    scaled = rank_vectors(
        vectors, candidates, _salience([scaled_weights[d] for d in DIMS]), filter_normative=False
    )
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
        appraisal_vector(candidate, warm, lexicons)  # builds and keeps the features
        fresh = dataclasses.replace(candidate)
        assert "features" in vars(candidate) and "features" not in vars(fresh)
        assert appraisal_vector(candidate, context, lexicons) == appraisal_vector(fresh, context, lexicons)


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


def test_run_pipeline_scores_through_the_module_global(monkeypatch, alex):
    # Callers that rebind scoring.appraisal_vector, such as a tracer, see every call.
    scored = []
    original = scoring.appraisal_vector

    def counted(candidate, *args, **kwargs):
        scored.append(candidate.id)
        return original(candidate, *args, **kwargs)

    monkeypatch.setattr(scoring, "appraisal_vector", counted)
    cfg = RunConfig()
    run_pipeline(alex.profile, alex.query, list(alex.candidates), load_engine_data(cfg), cfg, RunLog())
    assert scored == [candidate.id for candidate in alex.candidates]


# Each field tokenized on its own, item by item: the derivation the
# single-pass features must reproduce.
def _reference_features(candidate):
    def unique_tokens(texts):
        return tuple(dict.fromkeys(token for text in texts for token in tokenize(text)))

    tags, values = candidate.tags, candidate.tags + candidate.ingredients
    cleaned = (value.strip().lower() for value in values)
    return scoring.CandidateFeatures(
        terms=unique_tokens((candidate.name, candidate.description, *tags)),
        tag_tokens=unique_tokens(tags),
        item_tokens=unique_tokens(values),
        items=tuple(dict.fromkeys(value for value in cleaned if value)),
        tags_lower=tuple(dict.fromkeys(tag.strip().lower() for tag in tags)),
        description_tokens=tuple(tokenize(candidate.description)),
    )


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
def test_features_match_a_per_item_derivation(name, description, tags, ingredients):
    candidate = Candidate(
        id="c", name=name, description=description, tags=tuple(tags), ingredients=tuple(ingredients)
    )
    features = candidate.features
    assert features == _reference_features(candidate)
    # An equal, new string interns to the very string the features keep.
    assert all(sys.intern((value + ".")[:-1]) is value for field in features for value in field)


def test_features_retain_little_memory():
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
            candidate.features
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(candidates) <= 1536
