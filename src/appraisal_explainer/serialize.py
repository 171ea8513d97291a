"""JSON-facing views of the engine's result objects.

Dictionaries are built in the fixed dimension order so serialized output is
byte-stable for identical inputs.

``write_ranking_json`` is the one JSON serializer of a ranking: it writes the
document straight to a stream, byte for byte what ``json.dumps`` makes of
``ranking_to_dict`` with ``indent=2, ensure_ascii=False``, and a newline.
``ranking_to_dict`` stays as the dict view that text output renders and as
the oracle the writer is tested against.
"""

from __future__ import annotations

from itertools import islice
from json.encoder import encode_basestring as _quote  # json's string encoder when ensure_ascii=False

from .explanation import ComparisonReport, ExplanationPlan, MentionReport
from .registry import DIMENSIONS
from .salience import SalienceProfile
from .scoring import RankedList

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


# The fixed text of one ranked entry around its id, composite and six scores,
# at the depth json's indent=2 puts it, and each evidence list's key.
_ENTRY_HEAD = (
    '    {\n      "candidate_id": %s,\n      "composite": %s,\n      "scores": {\n'
    + ",\n".join(f"        {_quote(key)}: %s" for _, key in _DIMENSION_KEYS)
    + '\n      },\n      "evidence": {\n'
)
_EVIDENCE_KEYS = tuple((dim, f"        {_quote(key)}: ") for dim, key in _DIMENSION_KEYS)
_ENTRY_TAIL = "\n      }\n    }"
_BLOCK_CHUNKS = 1024


def _evidence_list(strings) -> str:
    if not strings:
        return "[]"
    return "[\n          " + ",\n          ".join(map(_quote, strings)) + "\n        ]"


def _entry_json(entry) -> str:
    scores, evidence = entry.vector.scores, entry.vector.evidence
    head = _ENTRY_HEAD % (
        _quote(entry.candidate_id),
        float.__repr__(entry.composite),
        *[float.__repr__(scores[dim]) for dim, _ in _DIMENSION_KEYS],
    )
    lists = ",\n".join(
        prefix + _evidence_list(evidence.get(dim, ())) for dim, prefix in _EVIDENCE_KEYS
    )
    return head + lists + _ENTRY_TAIL


def _exclusion_json(exclusion) -> str:
    return (
        f'    {{\n      "candidate_id": {_quote(exclusion.candidate_id)},\n'
        f'      "reason": {_quote(exclusion.reason)}\n    }}'
    )


def _array(items):
    """The JSON array of ``items``, already indented as members of a top-level key."""
    opener = "[\n"
    for item in items:
        yield opener + item
        opener = ",\n"
    yield "[]" if opener == "[\n" else "\n  ]"


def _ranking_chunks(ranked: RankedList):
    yield '{\n  "entries": '
    yield from _array(map(_entry_json, ranked.entries))
    yield ',\n  "excluded": '
    yield from _array(map(_exclusion_json, ranked.excluded))
    yield "\n}\n"


def write_ranking_json(ranked: RankedList, stream) -> None:
    """Write ``ranked`` to ``stream`` as indented JSON and a newline, about 1k entries a write.

    The bytes are those of ``json.dumps(ranking_to_dict(ranked), indent=2,
    ensure_ascii=False) + "\\n"``, without building the dict or holding the
    document as one string. Scores and composites are finite floats, as the
    scorers and ``rank_vectors`` make them, so ``float.__repr__`` writes
    each as ``json`` does.
    """
    chunks = _ranking_chunks(ranked)
    while block := "".join(islice(chunks, _BLOCK_CHUNKS)):
        stream.write(block)


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
        "candidate": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in plan.candidate.fields().items()
        },
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
