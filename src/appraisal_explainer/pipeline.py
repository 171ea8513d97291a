"""End-to-end orchestration shared by the CLI, the scenario runner, and scripts."""

from __future__ import annotations

from typing import NamedTuple

from .config import RunConfig
from .context import Query, UnifiedContext, UserProfile, build_unified_context
from .errors import RealizerUnavailable
from .explanation import (
    MODE_APPRAISAL,
    MODE_BASELINE,
    ComparisonReport,
    ExplanationPlan,
    PromptTemplates,
    build_plan,
    build_prompt,
    compare,
    load_prompt_templates,
    realize_baseline_template,
    realize_llm,
    realize_template,
)
from .lexicons import Lexicons, load_lexicons
from .registry import Registry, load_registry
from .remote import ChatEndpoint
from .runlog import RunLog
from .salience import SalienceProfile, compute_salience
from .scoring import Candidate, RankedList, rank_candidates


class EngineData(NamedTuple):
    """The three data bundles commands load once per invocation."""

    registry: Registry
    lexicons: Lexicons
    prompts: PromptTemplates


def load_engine_data(cfg: RunConfig) -> EngineData:
    return EngineData(
        registry=load_registry(cfg.registry_path),
        lexicons=load_lexicons(cfg.lexicons_path),
        prompts=load_prompt_templates(cfg.prompts_path),
    )


class PipelineResult(NamedTuple):
    context: UnifiedContext
    salience: SalienceProfile
    ranked: RankedList | None = None
    plan: ExplanationPlan | None = None
    explanation: str | None = None
    baseline: str | None = None
    comparison: ComparisonReport | None = None


def salience_stage(
    profile: UserProfile,
    query: Query,
    data: EngineData,
    cfg: RunConfig,
) -> tuple[UnifiedContext, SalienceProfile]:
    context = build_unified_context(profile, query, data.registry, data.lexicons)
    salience = compute_salience(
        context, data.registry, scorer=cfg.scorer, k=cfg.top_k, fallback=cfg.fallback
    )
    return context, salience


def _realize(mode: str, render, data: EngineData, cfg: RunConfig, runlog: RunLog, **prompt_args) -> str:
    """Realize one text with the configured realizer; ``render`` is its template.

    The llm realizer degrades to the template when it fails and fallback
    is enabled; the run log flags the degraded record and keeps its prompt.
    """
    bundle = None
    if cfg.realizer != "template":
        bundle = build_prompt(templates=data.prompts, **prompt_args)
        try:
            return realize_llm(bundle, ChatEndpoint.from_env(), runlog=runlog)
        except RealizerUnavailable:
            if not cfg.fallback:
                raise
    text = render()
    prompt = None if bundle is None else bundle._asdict()
    runlog.record(mode=mode, realizer="template", response=text, prompt=prompt, fallback=bundle is not None)
    return text


def realize_appraisal(plan: ExplanationPlan, data: EngineData, cfg: RunConfig, runlog: RunLog) -> str:
    """Realize the appraisal explanation with the configured realizer."""
    return _realize(
        MODE_APPRAISAL, lambda: realize_template(plan), data, cfg, runlog,
        context=plan.context, candidates=[plan.candidate], plan=plan,
    )


def realize_baseline(
    context: UnifiedContext,
    candidates: list[Candidate],
    data: EngineData,
    cfg: RunConfig,
    runlog: RunLog,
) -> str:
    """Realize the non-appraisal baseline with the configured realizer."""
    return _realize(
        MODE_BASELINE, lambda: realize_baseline_template(context, candidates),
        data, cfg, runlog, context=context, candidates=candidates,
    )


def run_pipeline(
    profile: UserProfile,
    query: Query,
    candidates: list[Candidate],
    data: EngineData,
    cfg: RunConfig,
    runlog: RunLog,
    *,
    want_appraisal: bool = True,
    want_baseline: bool = False,
    want_compare: bool = False,
) -> PipelineResult:
    """Run context, salience, ranking, and the requested realizations."""
    context, salience = salience_stage(profile, query, data, cfg)
    ranked = rank_candidates(
        candidates,
        context,
        salience,
        lexicons=data.lexicons,
        filter_normative=cfg.filter_normative,
    )
    plan = explanation = baseline = comparison = None
    if want_appraisal or want_compare:
        plan = build_plan(ranked, salience, context, data.registry)
        explanation = realize_appraisal(plan, data, cfg, runlog)
    if want_baseline or want_compare:
        baseline = realize_baseline(context, candidates, data, cfg, runlog)
    if want_compare:
        comparison = compare(explanation, baseline, plan)
    return PipelineResult(context, salience, ranked, plan, explanation, baseline, comparison)
