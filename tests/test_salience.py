import math

import pytest
from hypothesis import assume, example, given, strategies as st

from appraisal_explainer.context import Query, UserProfile, build_unified_context
from appraisal_explainer.errors import ConfigError, ScorerUnavailable
from appraisal_explainer.registry import Dimension
from appraisal_explainer.salience import (
    compute_salience,
    dominant_dimensions,
    lexical_salience,
    normalize,
)

SARAH_QUERY = "I'm hungry and in a hurry, can you make something in 15 minutes?"


def _context(registry, lexicons, profile, text):
    return build_unified_context(profile, Query(text=text), registry, lexicons)


def test_lexical_formula_reduced_profile(registry, lexicons):
    # goals only, no preference keywords: Urgency = 2*1 (query "hurry") + 2
    # (time bonus) = 4; GoalRelevance = 1*2 (profile hits) + 1 (goals bonus) = 3.
    profile = UserProfile(user_id="u", goals=("healthy", "nutritious"))
    raw = lexical_salience(_context(registry, lexicons, profile, SARAH_QUERY))
    assert raw[Dimension.URGENCY] == 4.0
    assert raw[Dimension.GOAL_RELEVANCE] == 3.0


def test_lexical_formula_sarah_fixture(sarah_context):
    # The bundled profile adds the "quick" preference, an extra Urgency
    # profile hit on top of the reduced-profile numbers.
    raw = lexical_salience(sarah_context)
    assert raw[Dimension.URGENCY] == 5.0
    assert raw[Dimension.GOAL_RELEVANCE] == 3.0
    for dim in (
        Dimension.PREDICTABILITY_SURPRISE,
        Dimension.VALENCE,
        Dimension.AGENCY,
        Dimension.NORMATIVE_SIGNIFICANCE,
    ):
        assert raw[dim] == 0.0


def test_lexical_zero_signal(registry, lexicons):
    profile = UserProfile(user_id="u")
    raw = lexical_salience(_context(registry, lexicons, profile, "feed me"))
    assert all(value == 0.0 for value in raw.values())


def test_adding_urgency_keyword_raises_only_urgency(registry, lexicons):
    profile = UserProfile(user_id="u", goals=("healthy",))
    base = lexical_salience(_context(registry, lexicons, profile, "dinner ideas"))
    bumped = lexical_salience(_context(registry, lexicons, profile, "dinner ideas asap"))
    for dim in Dimension:
        expected_delta = 2.0 if dim == Dimension.URGENCY else 0.0
        assert bumped[dim] - base[dim] == expected_delta


def test_normalize_arithmetic():
    raw = dict(zip(Dimension, [4.0, 3.0, 1.0, 1.0, 1.0, 0.0]))
    weights = normalize(raw)
    assert weights == dict(zip(Dimension, [0.4, 0.3, 0.1, 0.1, 0.1, 0.0]))


def test_normalize_all_zero_uniform():
    weights = normalize({dim: 0.0 for dim in Dimension})
    assert weights == {dim: 1.0 / 6.0 for dim in Dimension}


def test_normalize_single_nonzero():
    raw = {dim: 0.0 for dim in Dimension}
    raw[Dimension.AGENCY] = 7.5
    weights = normalize(raw)
    assert weights[Dimension.AGENCY] == 1.0
    assert sum(weights.values()) == 1.0


@given(
    st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
def test_normalize_sums_to_one(values):
    weights = normalize(dict(zip(Dimension, values)))
    assert abs(math.fsum(weights.values()) - 1.0) <= 1e-9


@given(
    st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=6,
        max_size=6,
    ),
    st.floats(min_value=0.01, max_value=50),
)
@example(values=[0.0, 0.0, 0.0, 0.0, 0.0, 5e-324], scale=0.5)
@example(values=[0.0, 0.0, 1.6655454417974767, 91.03125, 99.99999999999999, 100.0], scale=9.5)
def test_scaling_raw_scores_keeps_ranking(values, scale):
    raw = dict(zip(Dimension, values))
    scaled = {dim: value * scale for dim, value in raw.items()}
    # The property holds only where floating point loses no order: scaling can
    # underflow a subnormal to 0.0 (5e-324 * 0.5 leaves an all-zero map), and
    # scaling or normalizing can round two close values to one.
    assume(all((value == 0.0) == (scaled[dim] == 0.0) for dim, value in raw.items()))
    assume(_keeps_strict_order(raw, scaled))
    weights, scaled_weights = normalize(raw), normalize(scaled)
    assume(_keeps_strict_order(raw, weights) and _keeps_strict_order(scaled, scaled_weights))
    assert dominant_dimensions(weights, k=6) == dominant_dimensions(scaled_weights, k=6)


def _keeps_strict_order(before, after):
    return all(after[a] < after[b] for a in Dimension for b in Dimension if before[a] < before[b])


def test_dominant_sarah(sarah_context):
    weights = normalize(lexical_salience(sarah_context))
    # The other four weigh 0: top_k is a cap, so two are dominant.
    assert dominant_dimensions(weights, k=3) == (Dimension.URGENCY, Dimension.GOAL_RELEVANCE)


def test_dominant_uniform_uses_enum_order():
    weights = {dim: 1.0 / 6.0 for dim in Dimension}
    assert dominant_dimensions(weights, k=3) == (
        Dimension.PREDICTABILITY_SURPRISE,
        Dimension.GOAL_RELEVANCE,
        Dimension.VALENCE,
    )


@given(
    raw=st.lists(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 2.0]), min_size=6, max_size=6),
    k=st.integers(min_value=0, max_value=6),
)
def test_dominant_is_capped_and_never_zero_weight(raw, k):
    weights = dict(zip(Dimension, raw))
    dominant = dominant_dimensions(weights, k=k)
    positive = [dim for dim in Dimension if weights[dim] > 0]
    assert len(dominant) == min(k, len(positive))
    assert all(weights[dim] > 0 for dim in dominant)
    # The heaviest first; a left-out dimension weighs no more than any chosen one.
    assert [weights[dim] for dim in dominant] == sorted((weights[dim] for dim in dominant), reverse=True)
    if dominant:
        assert all(weights[dim] <= weights[dominant[-1]] for dim in positive if dim not in dominant)


def test_dominant_k6_sorted_by_weight_then_order():
    weights = dict(zip(Dimension, [0.1, 0.3, 0.1, 0.3, 0.1, 0.1]))
    dominant = dominant_dimensions(weights, k=6)
    assert dominant == (
        Dimension.GOAL_RELEVANCE,
        Dimension.URGENCY,
        Dimension.PREDICTABILITY_SURPRISE,
        Dimension.VALENCE,
        Dimension.AGENCY,
        Dimension.NORMATIVE_SIGNIFICANCE,
    )


def test_compute_salience_profile_shape(sarah_context, registry):
    profile = compute_salience(sarah_context, registry, k=3)
    assert profile.scorer_id == "lexical"
    assert abs(sum(profile.weights.values()) - 1.0) <= 1e-9
    assert len(profile.dominant) == 2  # only two dimensions weigh more than 0


def test_compute_salience_remote_without_endpoint_raises(sarah_context, registry, monkeypatch):
    monkeypatch.delenv("APPRAISAL_NLI_URL", raising=False)
    with pytest.raises(ScorerUnavailable):
        compute_salience(sarah_context, registry, scorer="remote")


def test_compute_salience_takes_only_lexical_or_remote(sarah_context, registry):
    # "remote-entailment" names the remote scorer in outputs, not in inputs.
    with pytest.raises(ConfigError, match="unknown scorer 'remote-entailment'"):
        compute_salience(sarah_context, registry, scorer="remote-entailment")
