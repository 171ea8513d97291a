"""JSON-facing views of the engine's result objects.

Dictionaries are built in the fixed dimension order so serialized output is
byte-stable for identical inputs.
"""

from __future__ import annotations

from .explanation import ComparisonReport, ExplanationPlan, MentionReport
from .registry import DIMENSIONS
from .salience import SalienceProfile
from .scoring import Candidate, RankedList

# Each dimension with its JSON key; reading ``Dimension.value`` is a property
# call, too slow to repeat twelve times per ranked entry.
_DIMENSION_KEYS = tuple((dim, dim.value) for dim in DIMENSIONS)


def salience_to_dict(profile: SalienceProfile) -> dict:
    return {
        "scorer_id": profile.scorer_id,
        "weights": {key: profile.weights[dim] for dim, key in _DIMENSION_KEYS},
        "dominant": [dim.value for dim in profile.dominant],
    }


def ranking_to_dict(ranked: RankedList) -> dict:
    return {
        "entries": [
            {
                "candidate_id": entry.candidate_id,
                "composite": entry.composite,
                "scores": {key: entry.vector.scores[dim] for dim, key in _DIMENSION_KEYS},
                "evidence": {
                    key: list(entry.vector.evidence.get(dim, ()))
                    for dim, key in _DIMENSION_KEYS
                },
            }
            for entry in ranked.entries
        ],
        "excluded": [
            {"candidate_id": exclusion.candidate_id, "reason": exclusion.reason}
            for exclusion in ranked.excluded
        ],
    }


def _candidate_to_dict(candidate: Candidate) -> dict:
    return {
        "id": candidate.id,
        "name": candidate.name,
        "description": candidate.description,
        "prep_time_minutes": candidate.prep_time_minutes,
        "ingredients": list(candidate.ingredients),
        "tags": list(candidate.tags),
        "customization_options": candidate.customization_options,
    }


def _finding_to_dict(finding) -> dict:
    return {
        "dimension": finding.dimension.value,
        "display_name": finding.display_name,
        "weight": finding.weight,
        "score": finding.score,
        "evidence": list(finding.evidence),
    }


def plan_to_dict(plan: ExplanationPlan) -> dict:
    return {
        "candidate": _candidate_to_dict(plan.candidate),
        "dominant": [_finding_to_dict(f) for f in plan.dominant],
        "per_dimension": [_finding_to_dict(f) for f in plan.per_dimension],
        "context_summary": plan.context_summary,
        "composite": plan.composite,
    }


def _mentions_to_dict(report: MentionReport) -> dict:
    return {
        "dimensions": list(report.dimensions),
        "evidence": list(report.evidence),
        "length": report.length,
    }


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {
        "appraisal": _mentions_to_dict(report.appraisal),
        "baseline": _mentions_to_dict(report.baseline),
    }
