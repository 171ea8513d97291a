"""An executable reference for ranking: each dimension's scorer, the composite, exclusion and the order.

It keeps no cache and does nothing clever. ``rank_candidates``, with its
compiled checks, memos and kept splits, must equal it to the bit.
"""

from functools import reduce
from operator import add

from appraisal_explainer import scoring
from appraisal_explainer.context import tokenize
from appraisal_explainer.registry import DIMENSIONS, Dimension
from appraisal_explainer.scoring import Against, Neutral


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


def reference_rank(candidates, context, salience, lexicons, filter_normative=True):
    """(entries, exclusions) of ``candidates``: what ``rank_candidates`` must return.

    With ``filter_normative``, a candidate whose Normative Significance is 0.0
    is excluded, in input order, with its violations joined by "; ". Each
    other candidate is an entry (id, composite, scores, evidence); its
    composite is weight times score summed left to right in ``DIMENSIONS``
    order and clamped to [0, 1]. Entries go by composite descending, then id.
    """
    entries, exclusions = [], []
    for candidate in candidates:
        normative, violations = _reference_normative(candidate, context, lexicons)
        if filter_normative and normative == 0.0:
            exclusions.append((candidate.id, "; ".join(violations)))
            continue
        found = {dim: REFERENCE_SCORERS[dim](candidate, context, lexicons) for dim in DIMENSIONS}
        total = reduce(add, [salience.weights[dim] * found[dim][0] for dim in DIMENSIONS])
        entries.append((
            candidate.id,
            min(1.0, max(0.0, total)),
            {dim: score for dim, (score, _) in found.items()},
            {dim: evidence for dim, (_, evidence) in found.items()},
        ))
    entries.sort(key=lambda entry: (-entry[1], entry[0]))
    return entries, exclusions
