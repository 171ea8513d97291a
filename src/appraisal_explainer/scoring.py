"""Per-dimension candidate scoring, composite ranking, constraint filtering.

Every dimension score lands in [0, 1] and every nonzero score carries at
least one human-readable evidence string; the explanation stage quotes the
evidence verbatim. A composite is one left-to-right expression,
``w0 * s0 + ... + w5 * s5`` in the fixed dimension order, compiled once per
ranking with the six weights read once, so results are bit-reproducible. It
is not a compensated sum (``math.fsum``, or ``sum()`` of floats from Python
3.12 on): that can change a composite's last bit, and so a ranking's order
and bytes, from one supported Python to the next.

Each evidence string carries its stance, decided here and nowhere else: a
plain ``str`` counts for the candidate; an ``Against`` counts against it (a
violated diet, a prep time over the limit, a mostly negative description);
a ``Neutral`` does neither (no time limit given, a description with no or
balanced sentiment). The marks are ``str`` subclasses: they serialize as text.

The checks split as in Scherer's component process model:

- Intrinsic checks depend only on the candidate and the lexicons, never on
  the profile or the query: Valence (description sentiment), Agency
  (customization options and tags) and Urgency's keyword part. They are
  computed on a candidate's first appraisal and kept on the candidate, keyed
  by the identity of the ``Lexicons`` object, and reused by every later query
  with the same lexicons; other lexicons recompute and replace them.
- Situational checks read the profile or the query: Urgency's time fit, Goal
  Relevance, Predictability and Normative Significance. What they need of
  the situation (the goal tokens, the familiar items, each dietary
  constraint's rule and violation text, the shared evidence of a satisfied
  diet) is compiled on a context's first appraisal and kept on that
  ``UnifiedContext``, which is immutable, so it never goes stale and is
  never shared with another context. It also memoizes the time fit and its
  evidence, keyed by prep minutes, from a memo that contexts with the same
  limit share. The candidate-dependent part is scored on every appraisal.

A candidate's features (its tokens) are built once and kept on it. A catalog
repeats its tags and ingredients, so each tag's and ingredient's tokens and
lower-cased form come from a memo keyed by the string, and each tag list's
derived tuples from a memo keyed by the list; these and the time-fit memo are
``lru_cache``s bounded by ``ITEM_MEMO_SIZE`` (4,096) entries. Tag tuples hold
interned strings, and every candidate that shares a tag list shares them.
"""

from __future__ import annotations

import sys
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

from .context import Immutable, UnifiedContext, minutes_text, tally_sentiment_tokens, tokenize
from .errors import DuplicateCandidate, IncompleteVector, NoCandidates
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


# The bound of each memo below, not a setting: 20,000 generated candidates
# have 15 distinct tags, 39 distinct ingredients and about 3,300 tag lists.
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


class CandidateFeatures(NamedTuple):
    """The query-independent tokens the scorers read, derived once per candidate.

    Tuples of interned strings, not sets: a catalog shares most of its
    vocabulary, so each candidate keeps only the tuples' pointers.
    """

    terms: tuple[str, ...]  # unique tokens of name, description and tags
    tag_tokens: tuple[str, ...]  # unique tokens of the tags
    item_tokens: tuple[str, ...]  # unique tokens of the tags and ingredients
    items: tuple[str, ...]  # unique stripped, lower-cased, non-empty tags and ingredients
    tags_lower: tuple[str, ...]  # unique stripped, lower-cased tags
    description_tokens: tuple[str, ...]  # tokens of the description, in order


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
        # Stored straight into the instance dict, the same keys in the same
        # order for every candidate, so all candidates share one table of
        # keys, which ``features`` joins on first use. ``_intrinsic`` is where
        # ``_intrinsic_parts`` keeps its cache: stored here, it shares that
        # table; stored after ``features``, it would cost each candidate a
        # private dict of about 400 bytes.
        fields = self.__dict__
        fields["id"] = id
        fields["name"] = name
        fields["description"] = description
        fields["prep_time_minutes"] = prep_time_minutes
        fields["ingredients"] = ingredients
        fields["tags"] = tags
        fields["customization_options"] = customization_options
        fields["_intrinsic"] = None

    def _key(self) -> tuple:
        return (
            self.id, self.name, self.description, self.prep_time_minutes, self.ingredients,
            self.tags, self.customization_options,
        )

    @classmethod
    def from_dict(cls, record: dict) -> "Candidate":
        """The candidate ``record`` holds, which ``CANDIDATE_SCHEMA`` has accepted."""
        return cls(
            id=record["id"],
            name=record["name"],
            description=record.get("description", ""),
            prep_time_minutes=int(record["prep_time_minutes"]),
            ingredients=tuple(record.get("ingredients", ())),
            tags=tuple(record.get("tags", ())),
            customization_options=int(record.get("customization_options", 0)),
        )

    @cached_property
    def features(self) -> CandidateFeatures:
        """Built on first use and kept: the candidate is immutable, so they never go stale.

        The name and description are tokenized here. Each tag and ingredient
        comes from the ``_item_parts`` memo, and the tag-derived tuples from
        the ``_tag_parts`` memo, so candidates with equal tags share them.
        """
        tag_tokens, tags_lower, tag_items = _tag_parts(self.tags)
        ingredients = list(map(_item_parts, self.ingredients))
        description = _interned(tokenize(self.description))
        return CandidateFeatures(
            terms=tuple(dict.fromkeys(chain(_interned(tokenize(self.name)), description, tag_tokens))),
            tag_tokens=tag_tokens,
            item_tokens=tuple(dict.fromkeys(chain(tag_tokens, *[tokens for tokens, _ in ingredients]))),
            items=tuple(dict.fromkeys(chain(tag_items, filter(None, [lower for _, lower in ingredients])))),
            tags_lower=tags_lower,
            description_tokens=description,
        )


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


def _urgency_keywords(candidate, lexicons):
    """Urgency's query-independent part: the keyword share and its evidence, or None."""
    hits = sorted(lexicons.words_for(Dimension.URGENCY).intersection(candidate.features.terms))
    if not hits:
        return 0.0, None
    return min(1.0, len(hits) / URGENCY_KEYWORD_SATURATION), "urgency keywords matched: " + ", ".join(hits)


def _score_valence(candidate, lexicons):
    tally = tally_sentiment_tokens(candidate.features.description_tokens, lexicons)
    pos, neg = tally.positive_hits, tally.negative_hits
    score = _clamp01(VALENCE_MIDPOINT + 0.5 * (pos - neg) / max(1, pos + neg))
    if tally.total == 0:
        evidence = _NO_SENTIMENT
    else:
        # The score is above, at or below the midpoint exactly as pos is above, at or below neg.
        stance = str if pos > neg else Neutral if pos == neg else Against
        words = ", ".join(tally.matched_words)
        evidence = stance(f"description sentiment: {pos} positive, {neg} negative ({words})")
    return score, (evidence,)


def _score_agency(candidate, lexicons):
    hits = sorted(lexicons.words_for(Dimension.AGENCY).intersection(candidate.features.tag_tokens))
    total = candidate.customization_options + len(hits)
    score = min(1.0, total / AGENCY_SATURATION)
    evidence: list[str] = []
    if candidate.customization_options > 0:
        plural = "" if candidate.customization_options == 1 else "s"
        evidence.append(f"{candidate.customization_options} documented customization option{plural}")
    if hits:
        evidence.append("customization tags matched: " + ", ".join(hits))
    return _clamp01(score), tuple(evidence)


def _intrinsic_parts(candidate: Candidate, lexicons: Lexicons) -> tuple:
    """The candidate's lexicon-only parts, computed once per ``lexicons`` and kept.

    One flat tuple: (lexicons, urgency keyword part, its evidence or None,
    valence score, valence evidence, agency score, agency evidence). It holds
    the lexicons themselves, so the identity test cannot match a new object
    that reuses a freed one's id.
    """
    cached = candidate._intrinsic
    if cached is None or cached[0] is not lexicons:
        cached = (
            lexicons,
            *_urgency_keywords(candidate, lexicons),
            *_score_valence(candidate, lexicons),
            *_score_agency(candidate, lexicons),
        )
        object.__setattr__(candidate, "_intrinsic", cached)
    return cached


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
        constraints = profile.unique_constraints
        self.limit = context.time_constraint_minutes
        self.times: dict[int, tuple[float, tuple[str]]] = {}  # prep minutes -> time fit, evidence
        # Sorted by goal, so the goals a candidate matches come out sorted.
        self.goal_tokens = tuple(sorted(profile.goal_tokens))
        self.goal_firsts = frozenset(first for _, first, _ in self.goal_tokens)
        self.goal_count = len(profile.unique_goals)
        self.familiar = profile.familiar_set
        self.rules = tuple(map(_constraint_rule, constraints))
        if constraints:
            self.satisfied = 1.0, ("satisfies dietary constraints: " + ", ".join(constraints),)
        else:
            self.satisfied = 1.0, ("no dietary constraints apply",)

    def urgency(self, prep, keyword_part, keyword_evidence):
        try:
            fit, evidence = self.times[prep]
        except KeyError:
            fit, evidence = self.times[prep] = _time_fit(self.limit, prep)
        score = _clamp01(URGENCY_TIME_WEIGHT * fit + URGENCY_KEYWORD_WEIGHT * keyword_part)
        if keyword_evidence is None:
            return score, evidence
        return score, (*evidence, keyword_evidence)

    def goal_relevance(self, terms):
        # A goal matches when each of its tokens is a term; most goals are one word.
        if self.goal_firsts.isdisjoint(terms):
            return _NO_FINDING
        matched = [
            goal for goal, first, rest in self.goal_tokens
            if first in terms and (not rest or all(token in terms for token in rest))
        ]
        if not matched:
            return _NO_FINDING
        return _clamp01(len(matched) / self.goal_count), ("matches your goals: " + ", ".join(matched),)

    def predictability(self, items):
        familiar = self.familiar
        if familiar.isdisjoint(items):
            return _NO_FINDING
        shared = sorted(familiar.intersection(items))
        union = len(items) + len(familiar) - len(shared)
        return _clamp01(len(shared) / union), ("shares familiar items: " + ", ".join(shared),)

    def normative(self, features):
        tags, tokens = features.tags_lower, features.item_tokens
        violations = ()
        for constraint, banned, violation in self.rules:
            if constraint not in tags and (banned is None or banned in tokens):
                violations += (violation,)
        return (0.0, violations) if violations else self.satisfied


_PREDICTABILITY, _GOAL, _VALENCE, _URGENCY, _AGENCY, _NORMATIVE = DIMENSIONS
# Hot-loop records are built with tuple.__new__, which skips the generated __new__: 250 against 590 ns.
_new = tuple.__new__


def appraisal_vector(
    candidate: Candidate,
    context: UnifiedContext,
    lexicons: Lexicons,
) -> AppraisalVector:
    """All six dimension scores for one candidate."""
    _, keyword_part, keyword_evidence, valence, valence_evidence, agency, agency_evidence = (
        _intrinsic_parts(candidate, lexicons)
    )
    situation = context._situational
    if situation is None:
        situation = _Situation(context)
        object.__setattr__(context, "_situational", situation)
    features = candidate.features
    urgency, urgency_evidence = situation.urgency(
        candidate.prep_time_minutes, keyword_part, keyword_evidence
    )
    predictability, predictability_evidence = situation.predictability(features.items)
    goal, goal_evidence = situation.goal_relevance(features.terms)
    normative, normative_evidence = situation.normative(features)
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


def _incomplete(scores, weights) -> IncompleteVector:
    missing = [dim.value for dim in DIMENSIONS if dim not in scores or dim not in weights]
    return IncompleteVector(f"missing dimensions: {missing}")


def _composite(salience: SalienceProfile):
    """The composite of a scores dict: the one definition ``composite_score`` and ``rank_vectors`` share.

    Reads the six weights once and returns the function that weighs a scores
    dict by them, in one left-to-right sum in ``DIMENSIONS`` order, clamped.
    """
    weights = salience.weights
    if any(dim not in weights for dim in DIMENSIONS):
        def composite(scores):
            raise _incomplete(scores, weights)
        return composite
    w0, w1, w2, w3, w4, w5 = [weights[dim] for dim in DIMENSIONS]

    def composite(scores):
        try:
            total = (
                w0 * scores[_PREDICTABILITY] + w1 * scores[_GOAL] + w2 * scores[_VALENCE]
                + w3 * scores[_URGENCY] + w4 * scores[_AGENCY] + w5 * scores[_NORMATIVE]
            )
        except KeyError:
            raise _incomplete(scores, weights) from None
        return _clamp01(total)

    return composite


def composite_score(vector: AppraisalVector, salience: SalienceProfile) -> float:
    """Salience-weighted sum of the vector's scores, in fixed dimension order.

    Clamped to [0, 1]: weights that sum to 1 can add up to just above it in
    floating point (0.4 + 0.2 + 0.3 + 0.1 is 1.0000000000000002).
    """
    return _composite(salience)(vector.scores)


def rank_vectors(
    vectors: list[AppraisalVector],
    candidates: list[Candidate],
    salience: SalienceProfile,
    filter_normative: bool = True,
) -> RankedList:
    """Rank precomputed vectors: filter normative violations, sort by composite.

    ``candidates[i]`` is the candidate ``vectors[i]`` scores. Entries sort by
    composite descending with candidate id as the tie-break; the excluded
    list keeps input order.
    """
    composite = _composite(salience)
    entries: list[RankedEntry] = []
    excluded: list[Exclusion] = []
    for vector, candidate in zip(vectors, candidates, strict=True):
        candidate_id, scores, evidence = vector
        if filter_normative and scores.get(_NORMATIVE) == 0.0:
            reason = "; ".join(evidence.get(_NORMATIVE, ()))
            excluded.append(_new(Exclusion, (candidate_id, reason or "normative violation")))
            continue
        entries.append(_new(RankedEntry, (candidate_id, composite(scores), vector, candidate)))
    entries.sort(key=lambda entry: (-entry.composite, entry.candidate_id))
    return RankedList(entries=tuple(entries), excluded=tuple(excluded))


def rank_candidates(
    candidates: list[Candidate],
    context: UnifiedContext,
    salience: SalienceProfile,
    *,
    lexicons: Lexicons,
    filter_normative: bool = True,
) -> RankedList:
    """Score and rank a candidate set against the context and salience profile."""
    if not candidates:
        raise NoCandidates("candidate set is empty")
    ids = [candidate.id for candidate in candidates]
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for id in ids:
            if id in seen:
                raise DuplicateCandidate(f"duplicate candidate id: {id!r}")
            seen.add(id)
    vectors = [appraisal_vector(candidate, context, lexicons) for candidate in candidates]
    return rank_vectors(vectors, candidates, salience, filter_normative=filter_normative)
