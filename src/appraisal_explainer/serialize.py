"""JSON-facing views of the engine's result objects.

Dictionaries are built in the fixed dimension order so serialized output is
byte-stable for identical inputs.

``write_ranking_json`` is the one JSON serializer of a ranking: it writes the
document straight to a stream, byte for byte what ``json.dumps`` makes of
``ranking_to_dict`` with ``indent=2, ensure_ascii=False``, and a newline.
``ranking_to_dict`` stays as the dict view that text output renders and as
the oracle the writer is tested against.

Each call of the writer memoizes, for that call only, the text of each
evidence list, keyed by the tuple, and of each composite-and-scores block,
keyed by its floats' bytes: as dict keys ``0.0`` and ``-0.0`` are one, but
they print differently. 15,000 ranked entries of a 20,000-candidate catalog
hold about 11,000 distinct evidence lists of 91,000 and 1,200 score blocks.

The plan and comparison documents are their records' fields as declared: the
candidate's ``fields()`` and each finding's and mention report's
``_asdict()``, in constructor order. Their bytes are those of lists and
plain strings because ``json`` writes a tuple as an array and a ``str``
subclass (``Dimension``, ``Against``, ``Neutral``) as its text.
"""

from __future__ import annotations

from itertools import islice
from json.encoder import encode_basestring as _quote  # json's string encoder when ensure_ascii=False
from operator import itemgetter
from struct import Struct

from .explanation import ComparisonReport, ExplanationPlan
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


# An entry's text around its id, score block and six evidence lists, and the score
# block's around the composite and six scores, at the depth json's indent=2 puts them.
_MEMBERS = ",\n".join(f"        {_quote(key)}: %s" for _, key in _DIMENSION_KEYS)
_ENTRY = '    {\n      "candidate_id": %s,\n%s' + _MEMBERS + "\n      }\n    }"
_SCORES = '      "composite": %s,\n      "scores": {\n' + _MEMBERS + '\n      },\n      "evidence": {\n'
_BLOCK_CHUNKS = 1024
# An entry's six scores in dimension order, and the evidence of a dimension it has none for.
_scores = itemgetter(*DIMENSIONS)
_NO_EVIDENCE = ((),) * len(DIMENSIONS)
_pack = Struct(f"{1 + len(DIMENSIONS)}d")  # a composite and six scores


class _Memo(dict):
    """Each key's text, made by ``text`` on first use."""

    def __init__(self, text):
        self.text = text

    def __missing__(self, key):
        text = self[key] = self.text(key)
        return text


def _scores_json(packed: bytes) -> str:
    return _SCORES % tuple(map(float.__repr__, _pack.unpack(packed)))


def _evidence_list(strings) -> str:
    if not strings:
        return "[]"
    return "[\n          " + ",\n          ".join(map(_quote, strings)) + "\n        ]"


def _entries_json(entries):
    """Each ranked entry's JSON text; the score-block and evidence-list memos last for one call."""
    scores_json, evidence_list = _Memo(_scores_json).__getitem__, _Memo(_evidence_list).__getitem__
    for candidate_id, composite, (_, scores, evidence), _ in entries:
        yield _ENTRY % (
            _quote(candidate_id), scores_json(_pack.pack(composite, *_scores(scores))),
            *map(evidence_list, map(evidence.get, DIMENSIONS, _NO_EVIDENCE)),
        )


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
    yield from _array(_entries_json(ranked.entries))
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


def plan_to_dict(plan: ExplanationPlan) -> dict:
    return {
        "candidate": plan.candidate.fields(),
        "dominant": [finding._asdict() for finding in plan.dominant],
        "per_dimension": [finding._asdict() for finding in plan.per_dimension],
        "context_summary": plan.context_summary,
        "composite": plan.composite,
    }


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {side: mentions._asdict() for side, mentions in report._asdict().items()}
