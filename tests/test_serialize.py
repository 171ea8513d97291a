import io
import json

from hypothesis import example, given, settings, strategies as st

from appraisal_explainer.context import build_unified_context
from appraisal_explainer.registry import DIMENSIONS, Dimension
from appraisal_explainer.salience import compute_salience
from appraisal_explainer.scoring import (
    Against,
    AppraisalVector,
    Candidate,
    Exclusion,
    Neutral,
    RankedEntry,
    RankedList,
    rank_candidates,
)
from appraisal_explainer.serialize import ranking_to_dict, write_ranking_json

# Characters json escapes or passes through unescaped with ensure_ascii=False:
# quote, backslash, control characters, DEL, the line and paragraph
# separators, non-ASCII and astral text.
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\u2029 aé€\U0001f600'), st.characters()),
    max_size=12,
)
SCORE = st.floats(allow_nan=False, allow_infinity=False)
# Evidence as the scorers write it: plain text is for, the marks against or neutral.
EVIDENCE = st.one_of(TEXT, TEXT.map(Against), TEXT.map(Neutral))


def _oracle(ranked: RankedList) -> str:
    return json.dumps(ranking_to_dict(ranked), indent=2, ensure_ascii=False) + "\n"


def _written(ranked: RankedList) -> str:
    stream = io.StringIO()
    write_ranking_json(ranked, stream)
    return stream.getvalue()


@st.composite
def entries(draw):
    candidate_id = draw(TEXT)
    with_evidence = draw(st.sets(st.sampled_from(list(Dimension))))
    vector = AppraisalVector(
        candidate_id=candidate_id,
        scores={dim: draw(SCORE) for dim in Dimension},
        evidence={dim: tuple(draw(st.lists(EVIDENCE, max_size=3))) for dim in with_evidence},
    )
    return RankedEntry(candidate_id, draw(SCORE), vector, Candidate(id=candidate_id, name="n"))


RANKINGS = st.builds(
    RankedList,
    st.lists(entries(), max_size=4).map(tuple),
    st.lists(st.builds(Exclusion, TEXT, TEXT), max_size=3).map(tuple),
)


def _entry(candidate_id, composite, scores, evidence=None):
    vector = AppraisalVector(candidate_id, dict(zip(DIMENSIONS, scores)), evidence or {})
    return RankedEntry(candidate_id, composite, vector, Candidate(id=candidate_id, name="n"))


def _text(*parts):
    """Equal text as a new string object each call."""
    return "".join(parts)


@settings(max_examples=100, deadline=None)
@given(RANKINGS)
@example(RankedList((), ()))
@example(RankedList((), (Exclusion("x", "violates 'vegan': not tagged vegan"),)))
@example(RankedList((  # 0.0 and -0.0 are one dict key but print differently; each comes first once
    _entry("a", 0.0, (0.0, -0.0, 0.5, -0.0, 0.0, 1.0)),
    _entry("b", -0.0, (-0.0, 0.0, 0.5, 0.0, -0.0, 1.0)),
), ()))
@example(RankedList(tuple(  # equal evidence lists as separate objects, plain and marked
    _entry(candidate_id, 0.5, (0.5,) * 6, {
        Dimension.VALENCE: (mark(_text("description sentiment: ", "neutral")),),
        Dimension.URGENCY: (mark(_text("prep time ", "20 min")), _text("urgency ", "\"keywords\"")),
        Dimension.AGENCY: (),
    })
    for candidate_id, mark in (("a", str), ("b", Neutral), ("c", Against), ("d", str))
), ()))
def test_writer_matches_json_dumps_of_the_dict_view(ranked):
    assert _written(ranked) == _oracle(ranked)


@settings(max_examples=100, deadline=None)
@given(EVIDENCE)
def test_marked_evidence_encodes_as_its_text(fact):
    plain = str.__str__(fact)
    assert type(plain) is str
    assert json.encoder.encode_basestring(fact) == json.encoder.encode_basestring(plain)
    for indent in (None, 2):  # the C encoder, then the pure-Python one
        dumped = [json.dumps([text], indent=indent, ensure_ascii=False) for text in (fact, plain)]
        assert dumped[0] == dumped[1]


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(TEXT, max_size=6), filter_normative=st.booleans())
def test_writer_matches_json_dumps_on_scored_rankings(texts, filter_normative, alex, registry, lexicons):
    # alex asks for vegetarian dishes, so the filter excludes some candidates
    # and --no-normative-filter ranks them with their violations.
    candidates = list(alex.candidates) + [
        Candidate(id=f"g{index}{text}", name=text, description=text, tags=(text,), ingredients=(text,))
        for index, text in enumerate(texts)
    ]
    context = build_unified_context(alex.profile, alex.query, registry, lexicons)
    ranked = rank_candidates(
        candidates, context, compute_salience(context, registry),
        lexicons=lexicons, filter_normative=filter_normative,
    )
    assert _written(ranked) == _oracle(ranked)


def test_writer_writes_in_blocks():
    vector = AppraisalVector("c", {dim: 0.5 for dim in Dimension}, {})
    entry = RankedEntry("c", 0.5, vector, Candidate(id="c", name="n"))
    ranked = RankedList((entry,) * 2500, ())
    writes = []

    class Stream:
        def write(self, text):
            writes.append(text)

    write_ranking_json(ranked, Stream())
    assert 3 <= len(writes) < 2500
    assert "".join(writes) == _oracle(ranked)
