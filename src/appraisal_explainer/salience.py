"""Dimension salience: raw scoring, L1 normalization, dominant selection.

Two scorers share one contract (raw non-negative score per dimension): a
deterministic lexical scorer over keyword hits and structural bonuses, and a
remote entailment scorer that treats the composite context text as a premise
against each dimension's canonical statement.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .context import UnifiedContext
from .errors import ConfigError, ScorerUnavailable
from .registry import Dimension, Registry
from .remote import EntailmentEndpoint, request_entailment_scores

UNIFORM_WEIGHT = 1.0 / 6.0

SCORER_LEXICAL = "lexical"
SCORER_REMOTE = "remote-entailment"
SCORER_FALLBACK = "lexical (fallback from remote-entailment)"


# Constants of the lexical scorer; query hits outweigh profile hits.
QUERY_HIT = 2.0
PROFILE_HIT = 1.0
TIME_CONSTRAINT_BONUS = 2.0
SENTIMENT_BONUS = 1.0
GOALS_BONUS = 1.0
CONSTRAINTS_BONUS = 1.0


class SalienceProfile(NamedTuple):
    """Normalized per-dimension weights plus the ordered dominant dimensions."""

    weights: dict[Dimension, float]
    dominant: tuple[Dimension, ...]
    scorer_id: str


def lexical_salience(context: UnifiedContext) -> dict[Dimension, float]:
    """Raw salience per dimension from keyword hits and structural bonuses.

    raw(d) = QUERY_HIT * |query hits for d| + PROFILE_HIT * |profile hits for d|
    plus: time bonus on Urgency when a time constraint parsed, sentiment bonus
    on Valence when the query tallied any sentiment word, goals bonus on
    GoalRelevance when the profile has goals, and constraints bonus on
    NormativeSignificance when the profile has dietary constraints.
    """
    raw: dict[Dimension, float] = {}
    for dim in Dimension:
        hits = context.keyword_hits[dim]
        raw[dim] = QUERY_HIT * len(hits.query) + PROFILE_HIT * len(hits.profile)
    if context.time_constraint_minutes is not None:
        raw[Dimension.URGENCY] += TIME_CONSTRAINT_BONUS
    if context.sentiment.total > 0:
        raw[Dimension.VALENCE] += SENTIMENT_BONUS
    if context.profile.goals:
        raw[Dimension.GOAL_RELEVANCE] += GOALS_BONUS
    if context.profile.dietary_constraints:
        raw[Dimension.NORMATIVE_SIGNIFICANCE] += CONSTRAINTS_BONUS
    return raw


def remote_entailment_salience(
    context: UnifiedContext,
    registry: Registry,
    endpoint: EntailmentEndpoint,
) -> dict[Dimension, float]:
    """Entailment confidence per dimension from the remote scorer.

    The composite context text is the premise; each dimension's canonical
    statement is a hypothesis. The response must cover exactly the six
    dimensions or the call fails with ProtocolError.
    """
    hypotheses = [
        (info.id.value, info.canonical_statement) for info in registry.dimensions
    ]
    keyed = request_entailment_scores(endpoint, context.composite_text, hypotheses)
    return {dim: keyed[dim.value] for dim in Dimension}


def normalize(raw: dict[Dimension, float]) -> dict[Dimension, float]:
    """L1-normalize a raw score map; an all-zero map becomes exactly uniform.

    Each scorer gives a finite, non-negative score per dimension, so none is checked again.
    """
    total = math.fsum(raw[dim] for dim in Dimension)
    if total == 0.0:
        return {dim: UNIFORM_WEIGHT for dim in Dimension}
    return {dim: raw[dim] / total for dim in Dimension}


def dominant_dimensions(weights: dict[Dimension, float], k: int = 3) -> tuple[Dimension, ...]:
    """Up to k dimensions by weight, ties broken by the fixed dimension order.

    ``k`` is a cap, not a quota: a dimension with zero weight is never dominant.
    """
    weighted = (dim for dim in Dimension if weights[dim] > 0)
    ordered = sorted(weighted, key=lambda dim: (-weights[dim], dim.order))
    return tuple(ordered[: max(0, k)])


def compute_salience(
    context: UnifiedContext,
    registry: Registry,
    scorer: str = SCORER_LEXICAL,
    *,
    k: int = 3,
    fallback: bool = False,
) -> SalienceProfile:
    """Run the selected scorer, normalize, and pick dominant dimensions.

    The remote scorer reads its endpoint from ``APPRAISAL_NLI_URL``. With
    ``fallback`` enabled, a remote scorer that fails in any way ``remote``
    lists degrades to the lexical scorer and the scorer_id records that it did.
    """
    if scorer == SCORER_LEXICAL:
        raw = lexical_salience(context)
        scorer_id = SCORER_LEXICAL
    elif scorer == "remote":
        try:
            raw = remote_entailment_salience(context, registry, EntailmentEndpoint.from_env())
            scorer_id = SCORER_REMOTE
        except ScorerUnavailable:
            if not fallback:
                raise
            raw = lexical_salience(context)
            scorer_id = SCORER_FALLBACK
    else:
        raise ConfigError(f"unknown scorer {scorer!r} (expected 'lexical' or 'remote')")
    weights = normalize(raw)
    dominant = dominant_dimensions(weights, k=k)
    return SalienceProfile(weights=weights, dominant=dominant, scorer_id=scorer_id)
