"""Explanation planning, template realization, prompt assembly, and comparison.

The plan is a value object assembled entirely from pipeline outputs; the
realizers only render it. The template realizer is byte-deterministic so the
full pipeline can be golden-tested offline; the chat realizer sends one
request and records the exchange in the run log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .context import UnifiedContext
from .errors import (
    ConfigError,
    EmptyCompletion,
    InputError,
    InvalidPromptRequest,
    NothingToExplain,
)
from .registry import Dimension, Registry
from .remote import ChatEndpoint, request_chat_completion
from .runlog import RunLog
from .salience import SalienceProfile
from .schemas import PROMPTS_SCHEMA, load_document
from .scoring import Candidate, RankedList

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


@dataclass(frozen=True)
class DimensionFinding:
    """One dimension's weight, candidate score, and evidence, ready to render."""

    dimension: Dimension
    display_name: str
    weight: float
    score: float
    evidence: tuple[str, ...]


@dataclass(frozen=True)
class ExplanationPlan:
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
        parts.append(f"time limit: {context.time_constraint_minutes} minutes")
    query_words: list[str] = []
    for dim in Dimension:
        hits = context.keyword_hits.get(dim)
        if hits is None:
            continue
        query_words.extend(w for w in hits.query if w not in query_words)
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
            evidence=tuple(top.vector.evidence.get(dim, ())),
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


def realize_template(plan: ExplanationPlan) -> str:
    """Deterministic text realization; identical plans yield identical bytes.

    Structure: one recommendation sentence, one sentence per dominant
    dimension quoting its evidence verbatim (score-only phrasing when a
    dimension carries no evidence), and, when the profile has dietary
    constraints, a closing sentence from the winner's NormativeSignificance
    finding: "satisfied" only when it scores 1.0, else its violations.
    """
    lines = [
        f"Recommended: {plan.candidate.name} (composite match {plan.composite:.2f})."
    ]
    for finding in plan.dominant:
        if finding.evidence:
            lines.append(
                f"{finding.display_name} (weight {finding.weight:.2f}): "
                f"favored because {'; '.join(finding.evidence)}."
            )
        else:
            lines.append(
                f"{finding.display_name} (weight {finding.weight:.2f}): "
                f"alignment score {finding.score:.2f}; no direct evidence recorded."
            )
    constraints = plan.context.profile.dietary_constraints
    normative = next(f for f in plan.per_dimension if f.dimension is Dimension.NORMATIVE_SIGNIFICANCE)
    if constraints and normative.score == 1.0:
        lines.append("Dietary constraints satisfied: " + ", ".join(constraints) + ".")
    elif constraints:
        lines.append("Dietary constraints not satisfied: " + "; ".join(normative.evidence) + ".")
    return "\n".join(lines)


def realize_baseline_template(context: UnifiedContext, candidates: list[Candidate]) -> str:
    """Deterministic non-appraisal baseline: surface-level recommendation only.

    Mirrors a plain request-and-answer flow: it recommends the first listed
    candidate from its surface details, with no appraisal vocabulary.
    """
    if not candidates:
        raise NothingToExplain("baseline needs at least one candidate")
    first = candidates[0]
    return (
        f'Based on your request "{context.query.text}", try {first.name}: '
        f"{first.description} It is ready in about {first.prep_time_minutes} minutes."
    )


@dataclass(frozen=True)
class PromptTemplates:
    system_instruction: str
    section_labels: dict[str, str]
    appraisal_instruction: str
    baseline_instruction: str


@lru_cache(maxsize=1)
def _bundled_prompts() -> str:
    return resources.files(__package__).joinpath("data/prompts.json").read_text("utf-8")


def load_prompt_templates(source: str | Path | dict | None = None) -> PromptTemplates:
    """The bundled prompt templates, with overrides from ``source``.

    A source document, validated against ``PROMPTS_SCHEMA``, replaces the
    texts and section labels it names; everything else keeps the bundled text.
    The appraisal instruction must format with its two placeholders alone.
    """
    doc = json.loads(_bundled_prompts())
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


@dataclass(frozen=True)
class PromptBundle:
    """Ordered, labeled prompt sections plus the system instruction."""

    system_instruction: str
    sections: tuple[tuple[str, str], ...]
    mode: str

    def user_message(self) -> str:
        return "\n\n".join(f"{label}:\n{body}" for label, body in self.sections)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "system_instruction": self.system_instruction,
            "sections": [[label, body] for label, body in self.sections],
        }


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
        lines.append(f"Detected time limit: {context.time_constraint_minutes} minutes")
    if context.sentiment.total > 0:
        lines.append(
            "Request sentiment cues: "
            f"{context.sentiment.positive_hits} positive, "
            f"{context.sentiment.negative_hits} negative"
        )
    return "\n".join(lines)


def _render_appraisals(plan: ExplanationPlan) -> str:
    lines = []
    for finding in plan.dominant:
        evidence = "; ".join(finding.evidence) if finding.evidence else "no direct evidence"
        lines.append(
            f"- {finding.display_name}: weight {finding.weight:.3f} "
            f"({weight_label(finding.weight)}); candidate score {finding.score:.3f}; "
            f"evidence: {evidence}"
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
                    f"Prep time: {candidate.prep_time_minutes} minutes",
                    f"Ingredients: {', '.join(candidate.ingredients) or '(none)'}",
                    f"Tags: {', '.join(candidate.tags) or '(none)'}",
                    f"Customization options: {candidate.customization_options}",
                ]
            )
        )
    return "\n\n".join(blocks)


def build_prompt(
    mode: str,
    *,
    plan: ExplanationPlan | None = None,
    context: UnifiedContext | None = None,
    candidates: list[Candidate] | None = None,
    templates: PromptTemplates | None = None,
) -> PromptBundle:
    """Assemble the prompt bundle for one realization.

    Appraisal mode requires a plan and renders five sections (profile,
    situation, dominant appraisals, recipe details, instruction); baseline
    mode requires the context plus a candidate list and renders the same
    sections minus the appraisal one, with its own instruction.
    """
    templates = templates or load_prompt_templates()
    labels = templates.section_labels
    if mode == MODE_APPRAISAL:
        if plan is None:
            raise InvalidPromptRequest("appraisal mode requires an explanation plan")
        dominant_names = ", ".join(f.display_name for f in plan.dominant)
        instruction = templates.appraisal_instruction.format(
            candidate_name=plan.candidate.name, dominant_names=dominant_names
        )
        sections = (
            (labels["profile"], _render_profile(plan.context.profile)),
            (labels["situation"], _render_situation(plan.context)),
            (labels["appraisals"], _render_appraisals(plan)),
            (labels["candidates"], _render_candidates([plan.candidate])),
            (labels["instruction"], instruction),
        )
    elif mode == MODE_BASELINE:
        if plan is not None or context is None or not candidates:
            raise InvalidPromptRequest(
                "baseline mode requires a context and candidate list, not a plan"
            )
        sections = (
            (labels["profile"], _render_profile(context.profile)),
            (labels["situation"], _render_situation(context)),
            (labels["candidates"], _render_candidates(candidates)),
            (labels["instruction"], templates.baseline_instruction),
        )
    else:
        raise InvalidPromptRequest(f"unknown prompt mode {mode!r}")
    return PromptBundle(
        system_instruction=templates.system_instruction, sections=sections, mode=mode
    )


def realize_llm(
    bundle: PromptBundle,
    endpoint: ChatEndpoint,
    runlog: RunLog | None = None,
) -> str:
    """Send the bundle as one chat request and return the completion verbatim.

    The full request/response pair is recorded in the run log.
    """
    started = datetime.now(timezone.utc).isoformat()
    text = request_chat_completion(endpoint, bundle.system_instruction, bundle.user_message())
    finished = datetime.now(timezone.utc).isoformat()
    if not text.strip():
        raise EmptyCompletion("chat realizer returned an empty completion")
    if runlog is not None:
        runlog.record(
            mode=bundle.mode,
            realizer="llm",
            response=text,
            prompt=bundle.to_dict(),
            started_at=started,
            finished_at=finished,
        )
    return text


@dataclass(frozen=True)
class MentionReport:
    """Which dominant display names and evidence strings a text contains."""

    dimensions: tuple[str, ...]
    evidence: tuple[str, ...]
    length: int


@dataclass(frozen=True)
class ComparisonReport:
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
    if not appraisal_text or not baseline_text:
        raise InputError("compare requires two non-empty texts")
    return ComparisonReport(
        appraisal=_mentions(appraisal_text, plan),
        baseline=_mentions(baseline_text, plan),
    )
