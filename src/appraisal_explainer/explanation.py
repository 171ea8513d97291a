"""Explanation planning, template realization, prompt assembly, and comparison.

The plan is a value object assembled entirely from pipeline outputs; the
realizers only render it. The template realizer is byte-deterministic so the
full pipeline can be golden-tested offline; the chat realizer sends one
request and records the exchange in the run log.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .context import UnifiedContext, minutes_text
from .errors import ConfigError, NothingToExplain
from .registry import Dimension, Registry
from .remote import ChatEndpoint, request_chat_completion
from .runlog import RunLog, utc_timestamp
from .salience import SalienceProfile
from .schemas import PROMPTS_SCHEMA, bundled_text, load_document
from .scoring import Against, Candidate, Neutral, RankedList

MODE_APPRAISAL = "appraisal"
MODE_BASELINE = "baseline"

# Qualitative labels for normalized weights, used in prompts.
WEIGHT_HIGH = 0.25
WEIGHT_MEDIUM = 0.10


def weight_label(weight: float) -> str:
    if weight >= WEIGHT_HIGH:
        return "high"
    if weight >= WEIGHT_MEDIUM:
        return "medium"
    return "low"


class DimensionFinding(NamedTuple):
    """One dimension's weight, candidate score, and evidence, ready to render."""

    dimension: Dimension
    display_name: str
    weight: float
    score: float
    evidence: tuple[str, ...]


class ExplanationPlan(NamedTuple):
    """Structured justification for the top-ranked candidate."""

    candidate: Candidate
    dominant: tuple[DimensionFinding, ...]
    per_dimension: tuple[DimensionFinding, ...]
    context_summary: str
    composite: float
    context: UnifiedContext


def summarize_context(context: UnifiedContext) -> str:
    """Short deterministic digest: goals, time constraint, query keywords."""
    parts = []
    if context.profile.goals:
        parts.append("goals: " + ", ".join(context.profile.goals))
    if context.time_constraint_minutes is not None:
        parts.append("time limit: " + minutes_text(context.time_constraint_minutes))
    query_words: list[str] = []
    for dim in Dimension:
        query_words.extend(w for w in context.keyword_hits[dim].query if w not in query_words)
    if query_words:
        parts.append("query signals: " + ", ".join(query_words))
    return "; ".join(parts) if parts else "no strong signals detected"


def build_plan(
    ranked: RankedList,
    salience: SalienceProfile,
    context: UnifiedContext,
    registry: Registry,
) -> ExplanationPlan:
    """Plan for the top entry of ``ranked``.

    ``per_dimension`` covers all six dimensions sorted by salience weight
    descending (fixed dimension order on ties); ``dominant`` mirrors the
    salience profile's ordered dominant list.
    """
    if not ranked.entries:
        raise NothingToExplain("ranked list has no entries to explain")
    top = ranked.entries[0]
    findings = {
        dim: DimensionFinding(
            dimension=dim,
            display_name=registry.display_name(dim),
            weight=salience.weights[dim],
            score=top.vector.scores[dim],
            evidence=top.vector.evidence[dim],
        )
        for dim in Dimension
    }
    per_dimension = tuple(
        sorted(findings.values(), key=lambda f: (-f.weight, f.dimension.order))
    )
    dominant = tuple(findings[dim] for dim in salience.dominant)
    return ExplanationPlan(
        candidate=top.candidate,
        dominant=dominant,
        per_dimension=per_dimension,
        context_summary=summarize_context(context),
        composite=top.composite,
        context=context,
    )


# The clause that quotes each stance's evidence, in order; a plain ``str`` is for.
_STANCE_CLAUSES = (
    (str, "favored because "),
    (Neutral, "neither favors nor counts against this choice: "),
    (Against, "counts against this choice: "),
)


def _stance_clauses(evidence: tuple[str, ...]) -> list[str]:
    """One clause per stance that has evidence, in ``_STANCE_CLAUSES`` order, quoting it verbatim."""
    return [
        wording + "; ".join(fact for fact in evidence if type(fact) is stance)
        for stance, wording in _STANCE_CLAUSES
        if stance in map(type, evidence)
    ]


def realize_template(plan: ExplanationPlan) -> str:
    """Deterministic text realization; identical plans yield identical bytes.

    One recommendation sentence; per dominant dimension, one sentence that
    quotes its evidence verbatim in a clause per stance the scorer marked,
    "favored because", then "neither favors nor counts against this choice",
    then "counts against this choice", joined by "; " (the score alone when it
    has no evidence); and, when the profile has dietary constraints, the
    winner's violations, or else each constraint once as satisfied.
    """
    lines = [f"Recommended: {plan.candidate.name} (composite match {plan.composite:.2f})."]
    for finding in plan.dominant:
        head = f"{finding.display_name} (weight {finding.weight:.2f}): "
        clauses = _stance_clauses(finding.evidence)
        if clauses:
            lines.append(head + "; ".join(clauses) + ".")
        else:
            lines.append(head + f"alignment score {finding.score:.2f}; no direct evidence recorded.")
    normative = next(f for f in plan.per_dimension if f.dimension is Dimension.NORMATIVE_SIGNIFICANCE)
    violations = [fact for fact in normative.evidence if type(fact) is Against]
    constraints = plan.context.profile.dietary_constraints
    if violations:
        lines.append("Dietary constraints not satisfied: " + "; ".join(violations) + ".")
    elif constraints:
        lines.append("Dietary constraints satisfied: " + ", ".join(constraints) + ".")
    return "\n".join(lines)


def realize_baseline_template(context: UnifiedContext, candidates: list[Candidate]) -> str:
    """Deterministic non-appraisal baseline: surface-level recommendation only.

    Mirrors a plain request-and-answer flow: it recommends the first listed
    candidate from its surface details, with no appraisal vocabulary.
    """
    first = candidates[0]
    return (
        f'Based on your request "{context.query.text}", try {first.name}: '
        f"{first.description} It is ready in about {minutes_text(first.prep_time_minutes)}."
    )


class PromptTemplates(NamedTuple):
    system_instruction: str
    section_labels: dict[str, str]
    appraisal_instruction: str
    baseline_instruction: str


def load_prompt_templates(source: str | Path | dict | None = None) -> PromptTemplates:
    """The bundled prompt templates, with overrides from ``source``.

    A source document, validated against ``PROMPTS_SCHEMA``, replaces the
    texts and section labels it names; everything else keeps the bundled text.
    The appraisal instruction must format with its two placeholders alone.
    """
    doc = json.loads(bundled_text("prompts.json"))
    if source is not None:
        for key, value in load_document(source, "prompts", PROMPTS_SCHEMA).items():
            if key == "section_labels":
                doc["section_labels"].update(value)
            else:
                doc[key] = value
    try:
        doc["appraisal_instruction"].format(candidate_name="", dominant_names="")
    except (KeyError, IndexError, ValueError, AttributeError) as exc:
        raise ConfigError(
            "prompts $.appraisal_instruction: the only placeholders are {candidate_name} "
            f"and {{dominant_names}} ({type(exc).__name__}: {exc})"
        ) from None
    return PromptTemplates(**doc)


class PromptBundle(NamedTuple):
    """Ordered, labeled prompt sections plus the system instruction."""

    mode: str
    system_instruction: str
    sections: tuple[tuple[str, str], ...]

    def user_message(self) -> str:
        return "\n\n".join(f"{label}:\n{body}" for label, body in self.sections)


def _render_profile(profile) -> str:
    def fmt(values) -> str:
        return ", ".join(values) if values else "(none)"

    return "\n".join(
        [
            f"User: {profile.user_id}",
            f"About: {profile.description or '(none)'}",
            f"Goals: {fmt(profile.goals)}",
            f"Preferences: {fmt(profile.preference_keywords)}",
            f"Dietary constraints: {fmt(profile.dietary_constraints)}",
            f"Familiar items: {fmt(profile.familiar_items)}",
        ]
    )


def _render_situation(context: UnifiedContext) -> str:
    lines = [f'Request: "{context.query.text}"']
    if context.time_constraint_minutes is not None:
        lines.append("Detected time limit: " + minutes_text(context.time_constraint_minutes))
    if context.sentiment.total > 0:
        lines.append(
            "Request sentiment cues: "
            f"{context.sentiment.positive_hits} positive, "
            f"{context.sentiment.negative_hits} negative"
        )
    return "\n".join(lines)


def _render_appraisals(plan: ExplanationPlan) -> str:
    """One line per dominant finding; its evidence is worded by stance as ``realize_template`` words it."""
    lines = []
    for finding in plan.dominant:
        evidence = "; ".join(_stance_clauses(finding.evidence)) or "no direct evidence"
        lines.append(
            f"- {finding.display_name}: weight {finding.weight:.3f} "
            f"({weight_label(finding.weight)}); candidate score {finding.score:.3f}; {evidence}"
        )
    return "\n".join(lines)


def _render_candidates(candidates) -> str:
    blocks = []
    for candidate in candidates:
        blocks.append(
            "\n".join(
                [
                    f"Name: {candidate.name}",
                    f"Description: {candidate.description}",
                    "Prep time: " + minutes_text(candidate.prep_time_minutes),
                    f"Ingredients: {', '.join(candidate.ingredients) or '(none)'}",
                    f"Tags: {', '.join(candidate.tags) or '(none)'}",
                    f"Customization options: {candidate.customization_options}",
                ]
            )
        )
    return "\n\n".join(blocks)


def build_prompt(
    context: UnifiedContext,
    candidates: list[Candidate],
    *,
    plan: ExplanationPlan | None = None,
    templates: PromptTemplates | None = None,
) -> PromptBundle:
    """Assemble the prompt bundle for one realization.

    The sections are the profile, the situation, the dominant appraisals when
    a ``plan`` is given, the candidates' details, and the output instruction:
    the appraisal one with a plan, in appraisal mode, and the baseline one
    without, in baseline mode.
    """
    templates = templates or load_prompt_templates()
    labels = templates.section_labels
    sections = [
        (labels["profile"], _render_profile(context.profile)),
        (labels["situation"], _render_situation(context)),
    ]
    if plan is None:
        instruction = templates.baseline_instruction
    else:
        sections.append((labels["appraisals"], _render_appraisals(plan)))
        instruction = templates.appraisal_instruction.format(
            candidate_name=plan.candidate.name,
            dominant_names=", ".join(f.display_name for f in plan.dominant),
        )
    sections += [(labels["candidates"], _render_candidates(candidates)), (labels["instruction"], instruction)]
    mode = MODE_BASELINE if plan is None else MODE_APPRAISAL
    return PromptBundle(mode, templates.system_instruction, tuple(sections))


def realize_llm(
    bundle: PromptBundle,
    endpoint: ChatEndpoint,
    runlog: RunLog | None = None,
) -> str:
    """Send the bundle as one chat request and return the completion verbatim.

    The full request/response pair is recorded in the run log.
    """
    started = utc_timestamp()
    text = request_chat_completion(endpoint, bundle.system_instruction, bundle.user_message())
    if runlog is not None:
        runlog.record(
            mode=bundle.mode,
            realizer="llm",
            response=text,
            prompt=bundle._asdict(),
            started_at=started,
        )
    return text


class MentionReport(NamedTuple):
    """Which dominant display names and evidence strings a text contains."""

    dimensions: tuple[str, ...]
    evidence: tuple[str, ...]
    length: int


class ComparisonReport(NamedTuple):
    appraisal: MentionReport
    baseline: MentionReport


def _mentions(text: str, plan: ExplanationPlan) -> MentionReport:
    lowered = text.lower()
    dimensions = []
    for finding in plan.dominant:
        if finding.display_name.lower() in lowered:
            dimensions.append(finding.display_name)
    evidence = []
    for finding in plan.dominant:
        for hint in finding.evidence:
            if hint.lower() in lowered and hint not in evidence:
                evidence.append(hint)
    return MentionReport(tuple(dimensions), tuple(evidence), len(text))


def compare(appraisal_text: str, baseline_text: str, plan: ExplanationPlan) -> ComparisonReport:
    """Structural comparison of the two texts; no quality judgment."""
    return ComparisonReport(
        appraisal=_mentions(appraisal_text, plan),
        baseline=_mentions(baseline_text, plan),
    )
