import copy

import pytest

from appraisal_explainer import scoring
from appraisal_explainer.context import Query, UserProfile, build_unified_context
from appraisal_explainer.errors import NothingToExplain
from appraisal_explainer.explanation import (
    MODE_APPRAISAL,
    MODE_BASELINE,
    build_plan,
    build_prompt,
    compare,
    load_prompt_templates,
    realize_baseline_template,
    realize_template,
    summarize_context,
    weight_label,
)
from appraisal_explainer.registry import Dimension
from appraisal_explainer.salience import SalienceProfile, compute_salience
from appraisal_explainer.scoring import Candidate, RankedList, appraisal_vector, rank_candidates


@pytest.fixture
def sarah_plan(sarah, sarah_context, registry, lexicons):
    salience = compute_salience(sarah_context, registry)
    ranked = rank_candidates(
        list(sarah.candidates), sarah_context, salience, lexicons=lexicons
    )
    return build_plan(ranked, salience, sarah_context, registry)


@pytest.fixture
def alex_plan(alex, alex_context, registry, lexicons):
    salience = compute_salience(alex_context, registry)
    ranked = rank_candidates(
        list(alex.candidates), alex_context, salience, lexicons=lexicons
    )
    return build_plan(ranked, salience, alex_context, registry)


def test_sarah_plan_dominant_set(sarah_plan):
    assert [f.dimension for f in sarah_plan.dominant] == [Dimension.URGENCY, Dimension.GOAL_RELEVANCE]
    assert sarah_plan.candidate.id == "veggie-stir-fry"
    assert "time limit: 15 minutes" in sarah_plan.context_summary


def test_plan_per_dimension_covers_all_six(sarah_plan):
    assert len(sarah_plan.per_dimension) == 6
    weights = [f.weight for f in sarah_plan.per_dimension]
    assert weights == sorted(weights, reverse=True)


def test_uniform_salience_lists_enum_order(sarah, sarah_context, registry, lexicons):
    weights = {dim: 1.0 / 6.0 for dim in Dimension}
    salience = SalienceProfile(
        weights=weights, dominant=tuple(Dimension), scorer_id="test"
    )
    ranked = rank_candidates(
        [sarah.candidates[0]], sarah_context, salience, lexicons=lexicons
    )
    plan = build_plan(ranked, salience, sarah_context, registry)
    assert [f.dimension for f in plan.per_dimension] == list(Dimension)


def test_empty_entries_rejected(sarah_context, registry):
    weights = {dim: 1.0 / 6.0 for dim in Dimension}
    salience = SalienceProfile(weights=weights, dominant=tuple(Dimension)[:3], scorer_id="t")
    ranked = RankedList(entries=(), excluded=())
    with pytest.raises(NothingToExplain):
        build_plan(ranked, salience, sarah_context, registry)


def test_template_mentions_dominants_and_evidence(sarah_plan):
    text = realize_template(sarah_plan)
    assert "15 minutes" in text
    for finding in sarah_plan.dominant:
        assert finding.display_name in text
    for hint in sarah_plan.dominant[0].evidence:
        assert hint in text


def test_template_deterministic(sarah_plan):
    assert realize_template(sarah_plan) == realize_template(sarah_plan)


def test_template_score_only_fallback(alex_plan):
    text = realize_template(alex_plan)
    top = alex_plan.dominant[0]
    assert not top.evidence
    assert f"alignment score {top.score:.2f}; no direct evidence recorded" in text


def test_template_never_favors_a_zero_score(sarah_plan):
    # A dominant finding that scores 0 but carries evidence counts against the
    # choice: a 45-minute dish overruns 15 minutes, and the scorer marks it so.
    top = sarah_plan.dominant[0]
    fit, evidence = scoring._time_fit(15, 45)
    overshoot = top._replace(score=fit, evidence=evidence)
    text = realize_template(sarah_plan._replace(dominant=(overshoot,)))
    assert text.splitlines()[1] == (
        f"{top.display_name} (weight {top.weight:.2f}): counts against this choice: "
        "prep time 45 min exceeds the 15 minutes available."
    )


def test_template_writes_one_clause_per_stance_in_a_fixed_order(sarah_plan):
    top = sarah_plan.dominant[0]
    marked = top._replace(evidence=(
        scoring.Against("a1"), scoring.Neutral("n1"), "f1", scoring.Against("a2"), "f2",
    ))
    text = realize_template(sarah_plan._replace(dominant=(marked,)))
    assert text.splitlines()[1] == (
        f"{top.display_name} (weight {top.weight:.2f}): favored because f1; f2; "
        "neither favors nor counts against this choice: n1; counts against this choice: a1; a2."
    )


def test_template_closing_names_constraints(alex_plan):
    text = realize_template(alex_plan)
    assert "Dietary constraints satisfied: vegetarian." in text


def test_template_does_not_mutate_plan(sarah_plan):
    snapshot = copy.deepcopy(sarah_plan)
    realize_template(sarah_plan)
    assert sarah_plan == snapshot


def test_weight_labels():
    assert weight_label(0.3) == "high"
    assert weight_label(0.15) == "medium"
    assert weight_label(0.05) == "low"


def test_appraisal_prompt_has_five_sections(sarah_plan):
    bundle = build_prompt(sarah_plan.context, [sarah_plan.candidate], plan=sarah_plan)
    assert bundle.mode == MODE_APPRAISAL
    assert len(bundle.sections) == 5
    labels = [label for label, _ in bundle.sections]
    assert "Dominant appraisals" in labels
    appraisal_body = dict(bundle.sections)["Dominant appraisals"]
    assert appraisal_body.count("- ") == len(sarah_plan.dominant)
    assert "weight" in appraisal_body


def test_baseline_prompt_has_no_appraisal_section(sarah_context, sarah):
    bundle = build_prompt(sarah_context, list(sarah.candidates))
    assert bundle.mode == MODE_BASELINE
    assert len(bundle.sections) == 4
    labels = [label for label, _ in bundle.sections]
    assert "Dominant appraisals" not in labels


def test_prompt_diff_is_exactly_appraisals_and_instruction(sarah_plan):
    # Same context, and the baseline list holds exactly the selected
    # candidate: the two bundles must agree byte-for-byte everywhere except
    # the appraisal section and the output instruction.
    appraisal = build_prompt(sarah_plan.context, [sarah_plan.candidate], plan=sarah_plan)
    baseline = build_prompt(sarah_plan.context, [sarah_plan.candidate])
    appraisal_sections = dict(appraisal.sections)
    baseline_sections = dict(baseline.sections)
    assert set(appraisal_sections) - set(baseline_sections) == {"Dominant appraisals"}
    for label in baseline_sections:
        if label == "Output instruction":
            assert appraisal_sections[label] != baseline_sections[label]
        else:
            assert appraisal_sections[label] == baseline_sections[label]
    assert appraisal.system_instruction == baseline.system_instruction


def test_a_section_label_override_renames_only_its_section(sarah_plan):
    renamed = load_prompt_templates({"section_labels": {"profile": "About you"}})
    for plan in (sarah_plan, None):
        default = build_prompt(sarah_plan.context, [sarah_plan.candidate], plan=plan)
        bundle = build_prompt(sarah_plan.context, [sarah_plan.candidate], plan=plan, templates=renamed)
        assert bundle.sections == (("About you", default.sections[0][1]), *default.sections[1:])
        assert bundle.user_message().startswith("About you:\nUser: ")


def test_situation_section_counts_the_request_sentiment_cues(registry, lexicons):
    query = Query("something creamy and comforting, not bland, in 20 minutes")
    context = build_unified_context(UserProfile(user_id="u"), query, registry, lexicons)
    dish = Candidate(id="a", name="Soup", description="Soup.", prep_time_minutes=10)
    assert build_prompt(context, [dish]).sections[1] == ("Situational input", "\n".join([
        f'Request: "{query.text}"',
        "Detected time limit: 20 minutes",
        "Request sentiment cues: 2 positive, 1 negative",
    ]))


def test_compare_template_vs_baseline(sarah_plan, sarah):
    appraisal_text = realize_template(sarah_plan)
    baseline_text = realize_baseline_template(sarah_plan.context, list(sarah.candidates))
    report = compare(appraisal_text, baseline_text, sarah_plan)
    assert len(report.appraisal.dimensions) >= len(sarah_plan.dominant)
    assert report.appraisal.evidence
    assert report.appraisal.length == len(appraisal_text)
    assert report.baseline.dimensions == ()


def test_compare_reflexive(sarah_plan):
    text = realize_template(sarah_plan)
    report = compare(text, text, sarah_plan)
    assert report.appraisal == report.baseline


def test_compare_misses_everything(sarah_plan):
    report = compare(realize_template(sarah_plan), "eat whatever you like", sarah_plan)
    assert report.baseline.dimensions == ()
    assert report.baseline.evidence == ()


def test_baseline_template_uses_first_candidate(sarah_context):
    candidates = [
        Candidate(id="b", name="Second dish", description="Simple.", prep_time_minutes=9),
        Candidate(id="a", name="First dish", description="Plain.", prep_time_minutes=5),
    ]
    text = realize_baseline_template(sarah_context, candidates)
    assert "Second dish" in text
    assert "9 minutes" in text


@pytest.mark.parametrize(("minutes", "amount"), [(1, "1 minute"), (2, "2 minutes"), (45, "45 minutes")])
def test_an_amount_of_minutes_agrees_with_its_number(minutes, amount, registry, lexicons):
    context = build_unified_context(
        UserProfile(user_id="u"), Query(f"dinner in {minutes} minutes"), registry, lexicons
    )
    dish = Candidate(id="a", name="Rice", description="Rice.", prep_time_minutes=minutes)
    evidence = appraisal_vector(dish, context, lexicons).evidence[Dimension.URGENCY]
    assert evidence == (f"prep time {minutes} min is within the {amount} available",)
    assert summarize_context(context) == f"time limit: {amount}"
    assert realize_baseline_template(context, [dish]).endswith(f"It is ready in about {amount}.")
    prompt = build_prompt(context, [dish]).user_message()
    assert f"Detected time limit: {amount}\n" in prompt and f"Prep time: {amount}\n" in prompt


def test_prompt_and_premise_name_a_repeated_goal_and_constraint_once(registry, lexicons):
    profile = UserProfile.from_dict(
        {"user_id": "d", "goals": ["quick", "Quick"], "dietary_constraints": ["vegetarian", "Vegetarian"]}
    )
    context = build_unified_context(profile, Query("dinner in 20 minutes"), registry, lexicons)
    dish = Candidate(id="a", name="Veg Bowl", description="A bowl.", prep_time_minutes=10)
    profile_section = build_prompt(context, [dish]).sections[0][1]
    assert "\nGoals: quick\n" in profile_section
    assert "\nDietary constraints: vegetarian\n" in profile_section
    assert context.composite_text == "Goals: quick. dinner in 20 minutes"
