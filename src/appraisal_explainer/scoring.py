"""Per-dimension candidate scoring, composite ranking, constraint filtering.

Every dimension score lands in [0, 1] and every nonzero score carries at
least one human-readable evidence string; the explanation stage quotes the
evidence verbatim. A composite is one left-to-right expression,
``w0 * s0 + ... + w5 * s5`` in the fixed dimension order, computed in the
ranking loop from the six weights read once per ranking, so results are
bit-reproducible. It is not a compensated sum (``math.fsum``, or ``sum()`` of
floats from Python 3.12 on): that can change a composite's last bit, and so a
ranking's order and bytes, from one supported Python to the next. Exclusion
is decided before appraisal: with the normative filter on, a candidate whose
tags and ingredients violate a dietary constraint is never appraised, and an
admitted candidate carries that verdict into its appraisal, so each
candidate's diet is checked once per ranking. Candidate ids are checked once,
where a catalog is loaded (``config.load_candidates``), not per ranking.

Each evidence string carries its stance, decided here and nowhere else: a
plain ``str`` counts for the candidate; an ``Against`` counts against it (a
violated diet, a prep time over the limit, a mostly negative description);
a ``Neutral`` does neither (no time limit given, a description with no or
balanced sentiment). The marks are ``str`` subclasses: they serialize as text.

The checks split as in Scherer's component process model:

- Intrinsic checks depend only on the candidate and the lexicons, never on
  the profile or the query: Valence (description sentiment), Agency
  (customization options and tags) and Urgency's keyword part.
- Situational checks read the profile or the query: Urgency's time fit, Goal
  Relevance, Predictability and Normative Significance.

Each side keeps one cache, in a slot its record's ``__init__`` sets to None.
A candidate's ``_parts`` is filled for its first appraisal with one flat
tuple: the tokens the situational checks read and the three intrinsic
results. The tuple is keyed by the identity of the ``Lexicons`` object;
other lexicons rebuild and replace it. The description's and tags' tokens
are read while it is built and not kept. A context's first use fills its
``_situational`` with the compiled checks: the goals' tokens, the familiar
items, each dietary constraint's rule and violation text, the evidence of a
satisfied diet, and by prep minutes the time fit and the Urgency of a
candidate with no urgency keyword. Records are immutable, so neither goes
stale; the profile itself keeps nothing derived.

A catalog repeats its tags, ingredients and option counts, so memos keep
each tag's and ingredient's tokens and lower-cased form by the string, each
tag list's derived tuples by the list, its Agency hits and evidence by its
tokens and the Agency words, and the options evidence by the count. These
and the time-fit memo are ``lru_cache``s bounded by ``ITEM_MEMO_SIZE`` (4,096)
entries. Kept tokens are interned strings, and every candidate that shares a
tag list shares its lower-cased tags and its Agency tag evidence.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .context import Immutable, UnifiedContext, minutes_text, tally_sentiment_tokens, tokenize
from .errors import NoCandidates
from .lexicons import Lexicons
from .registry import DIMENSIONS, Dimension
from .salience import SalienceProfile


# Constants of the per-dimension scoring formulas.
URGENCY_TIME_WEIGHT = 0.7
URGENCY_KEYWORD_WEIGHT = 0.3
URGENCY_KEYWORD_SATURATION = 2.0
AGENCY_SATURATION = 3.0
# A description with no sentiment, or as much negative as positive, scores this.
VALENCE_MIDPOINT = 0.5


class Against(str):
    """Evidence that counts against the candidate."""
    __slots__ = ()


class Neutral(str):
    """Evidence that neither favors the candidate nor counts against it."""
    __slots__ = ()


# One shared object: a marked copy per candidate would cost each about 50 bytes.
_NO_SENTIMENT = Neutral("description sentiment: neutral (no lexicon matches)")


def _interned(values) -> tuple[str, ...]:
    return tuple(map(sys.intern, values))


# The bound of each memo below, not a setting: 20,000 generated candidates have 15
# distinct tags, 39 distinct ingredients and about 3,300 tag lists, each an Agency memo key.
ITEM_MEMO_SIZE = 4096


@lru_cache(maxsize=ITEM_MEMO_SIZE)
def _item_parts(value: str) -> tuple[tuple[str, ...], str]:
    """One tag's or ingredient's tokens, and its stripped, lower-cased form, interned."""
    return _interned(tokenize(value)), sys.intern(value.strip().lower())


@lru_cache(maxsize=ITEM_MEMO_SIZE)
def _tag_parts(tags: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """A tag list's unique tokens, its unique lower-cased tags, and those that are not empty."""
    parts = [_item_parts(tag) for tag in tags]
    tags_lower = tuple(dict.fromkeys(lower for _, lower in parts))
    return (
        tuple(dict.fromkeys(token for tokens, _ in parts for token in tokens)),
        tags_lower,
        tuple(filter(None, tags_lower)),
    )


class Candidate(Immutable):
    """One recommendable item, e.g. a recipe."""

    def __init__(
        self,
        id: str,
        name: str,
        description: str = "",
        prep_time_minutes: int = 1,
        ingredients: tuple[str, ...] = (),
        tags: tuple[str, ...] = (),
        customization_options: int = 0,
    ):
        # The same keys in the same order for every candidate, so all
        # candidates share one table of keys. ``_parts`` is where
        # ``_candidate_parts`` keeps its cache. JSON Schema counts 2.0 as an
        # integer, and a JSON array loads as a list.
        fields = self.__dict__
        fields["id"] = id
        fields["name"] = name
        fields["description"] = description
        fields["prep_time_minutes"] = int(prep_time_minutes)
        fields["ingredients"] = tuple(ingredients)
        fields["tags"] = tuple(tags)
        fields["customization_options"] = int(customization_options)
        fields["_parts"] = None

    @classmethod
    def from_dict(cls, record: dict) -> "Candidate":
        """The candidate ``record`` holds, which ``CANDIDATE_SCHEMA`` has accepted."""
        return cls(**record)


class AppraisalVector(NamedTuple):
    """A candidate's per-dimension alignment scores with supporting evidence."""

    candidate_id: str
    scores: dict[Dimension, float]
    evidence: dict[Dimension, tuple[str, ...]]


class RankedEntry(NamedTuple):
    candidate_id: str
    composite: float
    vector: AppraisalVector
    candidate: Candidate


class Exclusion(NamedTuple):
    candidate_id: str
    reason: str


class RankedList(NamedTuple):
    entries: tuple[RankedEntry, ...]
    excluded: tuple[Exclusion, ...]


def _clamp01(value: float) -> float:
    # <=, so -0.0 clamps to 0.0: the composite's sum starts at its first product, not at 0.0.
    return 0.0 if value <= 0.0 else 1.0 if value > 1.0 else value


def _urgency_keywords(terms, lexicons):
    """Urgency's query-independent part: the keyword share and its evidence, or None."""
    words = lexicons.dimension_words[Dimension.URGENCY]
    if words.isdisjoint(terms):  # most candidates
        return 0.0, None
    hits = sorted(words.intersection(terms))
    return min(1.0, len(hits) / URGENCY_KEYWORD_SATURATION), "urgency keywords matched: " + ", ".join(hits)


def _score_valence(description_tokens, lexicons):
    tally = tally_sentiment_tokens(description_tokens, lexicons)
    pos, neg = tally.positive_hits, tally.negative_hits
    score = VALENCE_MIDPOINT + 0.5 * (pos - neg) / max(1, pos + neg)
    if tally.total == 0:
        evidence = _NO_SENTIMENT
    else:
        # The score is above, at or below the midpoint exactly as pos is above, at or below neg.
        stance = str if pos > neg else Neutral if pos == neg else Against
        words = ", ".join(tally.matched_words)
        evidence = stance(f"description sentiment: {pos} positive, {neg} negative ({words})")
    return score, (evidence,)


@lru_cache(maxsize=ITEM_MEMO_SIZE)
def _agency_tags(tag_tokens: tuple[str, ...], words: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    """How many Agency words a tag list's tokens hold, and their evidence."""
    hits = sorted(words.intersection(tag_tokens))
    return len(hits), ("customization tags matched: " + ", ".join(hits),) if hits else ()


@lru_cache(maxsize=ITEM_MEMO_SIZE)
def _options_text(options: int) -> str:
    return f"{options} documented customization option{'' if options == 1 else 's'}"


def _score_agency(options, tag_tokens, lexicons):
    hits, evidence = _agency_tags(tag_tokens, lexicons.dimension_words[Dimension.AGENCY])
    score = _clamp01((options + hits) / AGENCY_SATURATION)
    return score, ((_options_text(options), *evidence) if options > 0 else evidence)


def _item_fields(candidate: Candidate) -> tuple:
    """(tag tokens, tags_lower, items, item_tokens) of the candidate's tags and ingredients.

    Items are the unique stripped, lower-cased, non-empty tags and ingredients,
    from the ``_item_parts`` and ``_tag_parts`` memos, and item tokens their unique tokens.
    """
    tag_tokens, tags_lower, tag_items = _tag_parts(candidate.tags)
    items, item_tokens = [*tag_items], [*tag_tokens]
    for tokens, lower in map(_item_parts, candidate.ingredients):
        if lower:
            items.append(lower)
        item_tokens += tokens
    return tag_tokens, tags_lower, tuple(dict.fromkeys(items)), tuple(dict.fromkeys(item_tokens))


def _candidate_parts(candidate: Candidate, lexicons: Lexicons, fields: tuple | None = None) -> tuple:
    """What the checks read of the candidate, built for its first appraisal with ``lexicons`` and kept.

    One flat tuple: (lexicons, terms, items, tags_lower, item_tokens,
    urgency keyword part, its evidence or None, valence score, valence
    evidence, agency score, agency evidence). The terms are the unique tokens
    of the name, description and tags; ``fields`` are the candidate's
    ``_item_fields``, if the caller has them. The tuple holds the lexicons
    themselves, so the identity test cannot match a new object that reuses a
    freed one's id.
    """
    parts = candidate._parts
    if parts is None or parts[0] is not lexicons:
        tag_tokens, tags_lower, items, item_tokens = fields or _item_fields(candidate)
        description = tokenize(candidate.description)
        terms = _interned(dict.fromkeys(chain(tokenize(candidate.name), description, tag_tokens)))
        parts = (
            lexicons, terms, items, tags_lower, item_tokens,
            *_urgency_keywords(terms, lexicons),
            *_score_valence(description, lexicons),
            *_score_agency(candidate.customization_options, tag_tokens, lexicons),
        )
        object.__setattr__(candidate, "_parts", parts)
    return parts


# Shared by contexts: marked strings are collector-tracked, and new ones per query slowed a query stream.
@lru_cache(maxsize=ITEM_MEMO_SIZE)
def _time_fit(limit: int | None, prep: int) -> tuple[float, tuple[str]]:
    """Urgency's time fit for ``prep`` minutes, and its evidence."""
    if limit is None:
        return 1.0, (Neutral(f"no time limit given; prep time {prep} min"),)
    fit = _clamp01(1.0 - max(0, prep - limit) / limit)
    if prep <= limit:
        return fit, (f"prep time {prep} min is within the {minutes_text(limit)} available",)
    return fit, (Against(f"prep time {prep} min exceeds the {minutes_text(limit)} available"),)


def _urgency(fit: float, keyword_part: float) -> float:
    return _clamp01(URGENCY_TIME_WEIGHT * fit + URGENCY_KEYWORD_WEIGHT * keyword_part)


def _constraint_rule(constraint: str) -> tuple[str, str | None, str]:
    """(constraint, banned word or None, violation evidence) of one dietary constraint.

    The constraint is satisfied when it appears verbatim among the
    candidate's tags; otherwise a "no-<word>" or "<word>-free" constraint is
    satisfied when <word> appears nowhere in the tag and ingredient tokens;
    any other untagged constraint, an empty <word> included, is a violation.
    """
    banned = None
    if constraint.startswith("no-"):
        banned = constraint[3:]
    elif constraint.endswith("-free"):
        banned = constraint[: -len("-free")]
    if banned:
        return constraint, banned, Against(f"violates '{constraint}': contains {banned}")
    return constraint, None, Against(f"violates '{constraint}': not tagged {constraint}")


_NO_FINDING = (0.0, ())


class _Situation:
    """One context's situational checks, compiled on its first appraisal.

    Urgency's time fit, Goal Relevance, Predictability and Normative
    Significance read the profile and the query. Whatever of them does not
    depend on the candidate is derived here once per context, not once per
    candidate; each method scores one candidate on one dimension.
    """

    __slots__ = (
        "limit", "times", "goal_tokens", "goal_firsts", "goal_count", "familiar", "rules", "satisfied",
    )

    def __init__(self, context: UnifiedContext):
        profile = context.profile
        constraints = profile.dietary_constraints
        self.limit = context.time_constraint_minutes
        # prep minutes -> (time fit, evidence, Urgency of a candidate with no urgency keyword)
        self.times: dict[int, tuple[float, tuple[str], float]] = {}
        # (goal, first token, other tokens) of each goal that has tokens, sorted
        # by goal, so the goals a candidate matches come out sorted.
        split = ((goal, tokenize(goal)) for goal in profile.goals)
        self.goal_tokens = tuple(sorted(
            (goal, tokens[0], tuple(tokens[1:])) for goal, tokens in split if tokens
        ))
        self.goal_firsts = frozenset(first for _, first, _ in self.goal_tokens)
        self.goal_count = len(profile.goals)
        self.familiar = frozenset(profile.familiar_items)
        self.rules = tuple(map(_constraint_rule, constraints))
        if constraints:
            self.satisfied = 1.0, ("satisfies dietary constraints: " + ", ".join(constraints),)
        else:
            self.satisfied = 1.0, ("no dietary constraints apply",)

    def goal_relevance(self, terms):
        """Called only for terms that hold some goal's first token."""
        # A goal matches when each of its tokens is a term; most goals are one word.
        matched = [
            goal for goal, first, rest in self.goal_tokens
            if first in terms and (not rest or all(token in terms for token in rest))
        ]
        if not matched:
            return _NO_FINDING
        return len(matched) / self.goal_count, ("matches your goals: " + ", ".join(matched),)

    def predictability(self, items):
        """Called only for items that share a familiar item."""
        familiar = self.familiar
        shared = sorted(familiar.intersection(items))
        union = len(items) + len(familiar) - len(shared)
        return len(shared) / union, ("shares familiar items: " + ", ".join(shared),)

    def normative(self, tags, tokens):
        violations = ()
        for constraint, banned, violation in self.rules:
            if constraint not in tags and (banned is None or banned in tokens):
                violations += (violation,)
        return (0.0, violations) if violations else self.satisfied


def _situation(context: UnifiedContext) -> _Situation:
    """The context's compiled checks, built on first use and kept in its ``_situational``."""
    if context._situational is None:
        object.__setattr__(context, "_situational", _Situation(context))
    return context._situational


_PREDICTABILITY, _GOAL, _VALENCE, _URGENCY, _AGENCY, _NORMATIVE = DIMENSIONS
# Hot-loop records are built with tuple.__new__, which skips the generated __new__: 250 against 590 ns.
_new = tuple.__new__


def appraisal_vector(
    candidate: Candidate,
    context: UnifiedContext,
    lexicons: Lexicons,
    verdict: tuple[float, tuple[str, ...]] | None = None,
) -> AppraisalVector:
    """All six dimension scores for one candidate.

    ``verdict`` is the candidate's Normative Significance (score, evidence)
    when the caller has already checked its diet, as ``rank_candidates`` has
    for a candidate it admits; otherwise it is checked here.
    """
    parts = candidate._parts
    if parts is None or parts[0] is not lexicons:
        parts = _candidate_parts(candidate, lexicons)
    (
        _, terms, items, tags_lower, item_tokens, keyword_part, keyword_evidence,
        valence, valence_evidence, agency, agency_evidence,
    ) = parts
    situation = context._situational or _situation(context)
    prep = candidate.prep_time_minutes
    try:
        fit, urgency_evidence, urgency = situation.times[prep]
    except KeyError:
        fit, urgency_evidence = _time_fit(situation.limit, prep)
        urgency = _urgency(fit, 0.0)
        situation.times[prep] = fit, urgency_evidence, urgency
    if keyword_evidence is not None:
        urgency = _urgency(fit, keyword_part)
        urgency_evidence = (*urgency_evidence, keyword_evidence)
    # Most candidates share no familiar item and match no goal's first token.
    if situation.familiar.isdisjoint(items):
        predictability, predictability_evidence = _NO_FINDING
    else:
        predictability, predictability_evidence = situation.predictability(items)
    if situation.goal_firsts.isdisjoint(terms):
        goal, goal_evidence = _NO_FINDING
    else:
        goal, goal_evidence = situation.goal_relevance(terms)
    normative, normative_evidence = verdict or situation.normative(tags_lower, item_tokens)
    return _new(AppraisalVector, (
        candidate.id,
        {
            _PREDICTABILITY: predictability, _GOAL: goal, _VALENCE: valence,
            _URGENCY: urgency, _AGENCY: agency, _NORMATIVE: normative,
        },
        {
            _PREDICTABILITY: predictability_evidence, _GOAL: goal_evidence,
            _VALENCE: valence_evidence, _URGENCY: urgency_evidence,
            _AGENCY: agency_evidence, _NORMATIVE: normative_evidence,
        },
    ))


def rank_vectors(
    vectors: list[AppraisalVector],
    candidates: list[Candidate],
    salience: SalienceProfile,
) -> RankedList:
    """Rank precomputed vectors by composite; the excluded list is empty.

    ``candidates[i]`` is the candidate ``vectors[i]`` scores. A composite is
    clamped to [0, 1]: weights that sum to 1 can add up to just above it
    (0.4 + 0.2 + 0.3 + 0.1 is 1.0000000000000002). Entries sort by composite
    descending, ties by candidate id: a sort by id, then a stable reverse sort.
    """
    w0, w1, w2, w3, w4, w5 = [salience.weights[dim] for dim in DIMENSIONS]
    entries: list[RankedEntry] = []
    for vector, candidate in zip(vectors, candidates, strict=True):
        scores = vector[1]
        composite = _clamp01(
            w0 * scores[_PREDICTABILITY] + w1 * scores[_GOAL] + w2 * scores[_VALENCE]
            + w3 * scores[_URGENCY] + w4 * scores[_AGENCY] + w5 * scores[_NORMATIVE]
        )
        entries.append(_new(RankedEntry, (vector[0], composite, vector, candidate)))
    entries.sort(key=itemgetter(0))
    entries.sort(key=itemgetter(1), reverse=True)
    return RankedList(entries=tuple(entries), excluded=())


def rank_candidates(
    candidates: list[Candidate],
    context: UnifiedContext,
    salience: SalienceProfile,
    *,
    lexicons: Lexicons,
    filter_normative: bool = True,
) -> RankedList:
    """Score and rank a candidate set against the context and salience profile.

    With ``filter_normative``, a candidate whose tags and ingredients violate
    a dietary constraint becomes an ``Exclusion``, in input order, and is
    never appraised, so its name and description are never tokenized. An
    admitted candidate is appraised with that verdict, the context's
    satisfied finding, so its diet is not checked again; with no dietary
    constraint, no candidate is checked. Ids are not checked here: a catalog
    is checked for duplicates where it is loaded.
    """
    if not candidates:
        raise NoCandidates("candidate set is empty")
    appraised, excluded, verdict = candidates, [], None
    if filter_normative:
        situation = _situation(context)
        verdict = situation.satisfied  # an admitted candidate's Normative Significance
        if situation.rules:  # with none, every candidate is admitted
            normative, appraised = situation.normative, []
            for candidate in candidates:
                parts = candidate._parts
                fields = _item_fields(candidate) if parts is None else None
                score, evidence = normative(fields[1], fields[3]) if fields else normative(parts[3], parts[4])
                if score == 0.0:
                    excluded.append(_new(Exclusion, (candidate.id, "; ".join(evidence))))
                    continue
                if fields:  # kept for its appraisal, so the fields are derived once
                    _candidate_parts(candidate, lexicons, fields)
                appraised.append(candidate)
    vectors = [appraisal_vector(candidate, context, lexicons, verdict) for candidate in appraised]
    return RankedList(rank_vectors(vectors, appraised, salience).entries, tuple(excluded))
