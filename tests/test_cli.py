import gc
import json
import os
import pstats
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from appraisal_explainer.cli import main
from appraisal_explainer.config import PATH_KEYS, RunConfig, load_candidates, load_profile, resolve_config
from appraisal_explainer.context import Query
from appraisal_explainer.pipeline import load_engine_data, run_pipeline
from appraisal_explainer.runlog import RunLog
from appraisal_explainer.schemas import CONFIG_SCHEMA, SCHEMAS
from appraisal_explainer.serialize import ranking_to_dict

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_salience_sarah_dominant_set(capsys, fixture_files):
    profile, query, _ = fixture_files("sarah")
    code, out, _ = _run(
        capsys,
        ["salience", "--profile", profile, "--query", query, "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["salience_output"])
    # PredictabilitySurprise has weight 0, so it is not dominant though top_k is 3.
    assert payload["dominant"] == ["Urgency", "GoalRelevance"]


def test_salience_zero_signal_uniform(capsys, tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"user_id": "nobody"}))
    code, out, _ = _run(
        capsys,
        ["salience", "--profile", str(profile), "--query", "give me dinner", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert all(abs(w - 1 / 6) < 1e-12 for w in payload["weights"].values())


def test_salience_query_with_a_huge_number_is_no_duration(capsys, tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"user_id": "nobody"}))
    outputs = []
    for query in ("1" * 5000 + " minutes", "minutes"):
        code, out, err = _run(
            capsys, ["salience", "--profile", str(profile), "--query", query, "--format", "json"]
        )
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_salience_missing_profile_path(capsys):
    code, out, err = _run(
        capsys,
        ["salience", "--profile", "/definitely/not/here.json", "--query", "hi"],
    )
    assert code == 2
    assert err.strip()
    assert not out.strip()


def test_salience_requires_query(capsys, fixture_files):
    profile, _, _ = fixture_files("sarah")
    code, _, err = _run(capsys, ["salience", "--profile", profile])
    assert code == 2
    assert "--query" in err


def test_rank_sarah_winner(capsys, fixture_files):
    profile, query, candidates = fixture_files("sarah")
    code, out, _ = _run(
        capsys,
        [
            "rank", "--profile", profile, "--query", query,
            "--candidates", candidates, "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["ranking_output"])
    assert [e["candidate_id"] for e in payload["entries"]] == [
        "veggie-stir-fry",
        "grain-bowl",
        "short-ribs",
    ]


def test_rank_no_normative_filter_keeps_violator(capsys, fixture_files):
    profile, query, candidates = fixture_files("alex")
    code, out, _ = _run(
        capsys,
        [
            "rank", "--profile", profile, "--query", query, "--candidates", candidates,
            "--no-normative-filter", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    by_id = {e["candidate_id"]: e for e in payload["entries"]}
    assert "pepperoni-pizza" in by_id
    assert by_id["pepperoni-pizza"]["scores"]["NormativeSignificance"] == 0.0
    assert payload["excluded"] == []


def test_rank_empty_candidates_file(capsys, fixture_files, tmp_path):
    profile, query, _ = fixture_files("sarah")
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, _, err = _run(
        capsys,
        ["rank", "--profile", profile, "--query", query, "--candidates", str(empty)],
    )
    assert code == 1
    assert "empty" in err


@pytest.mark.parametrize("name", ["sarah", "alex"])
def test_explain_template_matches_golden(capsys, fixture_files, name):
    profile, query, candidates = fixture_files(name)
    golden = (GOLDEN_DIR / f"{name}_explanation.txt").read_text("utf-8")
    outputs = []
    for _ in range(3):
        code, out, _ = _run(
            capsys,
            [
                "explain", "--profile", profile, "--query", query,
                "--candidates", candidates, "--realizer", "template",
                "--format", "text",
            ],
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2] == golden


def _with_steak(candidates, tmp_path):
    """The candidates file plus a beef dish that wins for alex without the normative filter."""
    steak = {
        "id": "quick-steak", "name": "Quick Steak", "description": "Seared beef steak.",
        "prep_time_minutes": 15, "ingredients": ["beef steak", "pasta"],
        "tags": ["customizable", "variety"], "customization_options": 5,
    }
    catalog = tmp_path / "with_steak.json"
    catalog.write_text(json.dumps([*json.loads(Path(candidates).read_text()), steak]))
    return str(catalog)


def test_explain_dietary_line_reports_the_winners_violation(capsys, fixture_files, tmp_path):
    # Without the normative filter a beef dish can win for a vegetarian; the
    # closing line must then say so, not call the constraint satisfied.
    profile, query, candidates = fixture_files("alex")
    catalog = _with_steak(candidates, tmp_path)
    args = ["explain", "--profile", profile, "--query", query, "--candidates", catalog]
    code, out, _ = _run(capsys, [*args, "--no-normative-filter"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Recommended: Quick Steak ")
    assert lines[-1] == "Dietary constraints not satisfied: violates 'vegetarian': not tagged vegetarian."
    code, out, _ = _run(capsys, args)
    assert (code, out.splitlines()[-1]) == (0, "Dietary constraints satisfied: vegetarian.")


def test_explain_words_a_dominant_violation_against_the_choice(capsys, fixture_files, tmp_path):
    # The query makes Normative Significance dominant; the beef winner
    # violates it, so that line must not say "favored because".
    profile, _, candidates = fixture_files("alex")
    query = "Surprise me with something new, it must be allowed by my diet, ethical and appropriate"
    code, out, _ = _run(capsys, [
        "explain", "--profile", profile, "--query", query,
        "--candidates", _with_steak(candidates, tmp_path), "--no-normative-filter",
    ])
    assert code == 0
    assert out.splitlines() == [
        "Recommended: Quick Steak (composite match 0.38).",
        "Predictability and Surprise (weight 0.46): favored because shares familiar items: pasta.",
        "Goal Relevance (weight 0.23): favored because matches your goals: variety.",
        "Normative Significance (weight 0.23): counts against this choice: "
        "violates 'vegetarian': not tagged vegetarian.",
        "Dietary constraints not satisfied: violates 'vegetarian': not tagged vegetarian.",
    ]


@pytest.mark.parametrize(
    ("description", "line"),
    [
        (
            "Rice in a bowl.",
            "Valence (weight 0.58): neither favors nor counts against this choice: "
            "description sentiment: neutral (no lexicon matches).",
        ),
        (
            "Tasty rice, but bland and mushy.",
            "Valence (weight 0.58): counts against this choice: "
            "description sentiment: 1 positive, 2 negative (tasty, bland, mushy).",
        ),
    ],
)
def test_explain_never_favors_a_valence_at_or_below_its_midpoint(capsys, fixture_files, tmp_path, description, line):
    # The query makes Valence dominant; a neutral description scores the
    # midpoint 0.5 and a mostly negative one less, so neither is a reason.
    profile, _, _ = fixture_files("alex")
    catalog = tmp_path / "rice.json"
    catalog.write_text(json.dumps(
        [{"id": "a", "name": "Plain Rice", "description": description, "prep_time_minutes": 10}]
    ))
    code, out, _ = _run(capsys, [
        "explain", "--profile", profile, "--query", "I want something delicious, tasty and enjoyable",
        "--candidates", str(catalog), "--no-normative-filter",
    ])
    assert code == 0
    assert out.splitlines()[1] == line


def _quick_bowl(tmp_path):
    """Explain one 10-minute vegetarian bowl to a vegetarian (listed twice) in a hurry."""
    profile = tmp_path / "quick.json"
    profile.write_text(json.dumps(
        {"user_id": "d", "goals": ["quick"], "dietary_constraints": ["vegetarian", "Vegetarian"]}
    ))
    catalog = tmp_path / "bowl.json"
    catalog.write_text(json.dumps([{
        "id": "a", "name": "Quick Veg Bowl", "description": "A quick bowl.",
        "prep_time_minutes": 10, "tags": ["vegetarian"],
    }]))
    return [
        "explain", "--profile", str(profile), "--candidates", str(catalog),
        "--query", "dinner in 1 minute, quick please",
    ]


def test_explain_words_an_urgency_overrun_against_the_choice(capsys, tmp_path):
    # The bowl takes 10 minutes of the 1 available: its time fit is 0, so
    # only the keyword match is a reason, and the overrun counts against it.
    code, out, _ = _run(capsys, _quick_bowl(tmp_path))
    assert code == 0
    assert out.splitlines()[1] == (
        "Urgency (weight 0.71): favored because urgency keywords matched: quick; "
        "counts against this choice: prep time 10 min exceeds the 1 minute available."
    )


def test_explain_words_urgency_without_a_time_limit_as_neither_for_nor_against(capsys, tmp_path):
    # The query asks for speed but gives no limit, so the 90-minute stew's
    # prep time is reported, not cited as a reason for it.
    profile = tmp_path / "hurry.json"
    profile.write_text(json.dumps({"user_id": "d", "goals": ["quick"], "dietary_constraints": ["vegetarian"]}))
    catalog = tmp_path / "stew.json"
    catalog.write_text(json.dumps([{
        "id": "a", "name": "Slow Veg Stew", "description": "A stew.",
        "prep_time_minutes": 90, "tags": ["vegetarian"],
    }]))
    code, out, _ = _run(capsys, [
        "explain", "--profile", str(profile), "--candidates", str(catalog),
        "--query", "dinner please, I am in a hurry",
    ])
    assert code == 0
    assert out.splitlines()[1] == (
        "Urgency (weight 0.60): neither favors nor counts against this choice: "
        "no time limit given; prep time 90 min."
    )


def test_llm_prompt_words_the_evidence_by_its_stance(capsys, tmp_path, monkeypatch):
    # The inputs of the test above; with no chat endpoint the llm realizer
    # falls back to the template, and the run log keeps the prompt it built.
    monkeypatch.delenv("APPRAISAL_LLM_URL", raising=False)
    profile = tmp_path / "hurry.json"
    profile.write_text(json.dumps({"user_id": "d", "goals": ["quick"], "dietary_constraints": ["vegetarian"]}))
    catalog = tmp_path / "stew.json"
    catalog.write_text(json.dumps([{
        "id": "a", "name": "Slow Veg Stew", "description": "A stew.",
        "prep_time_minutes": 90, "tags": ["vegetarian"],
    }]))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, [
        "explain", "--profile", str(profile), "--candidates", str(catalog),
        "--query", "dinner please, I am in a hurry",
        "--realizer", "llm", "--fallback", "--out", str(out_dir),
    ])
    assert code == 0, err
    records = [json.loads(line) for line in (out_dir / "runlog.jsonl").read_text().splitlines()]
    [record] = [record for record in records if record["mode"] == "appraisal"]
    assert record["fallback"] is True
    appraisals = dict(record["prompt"]["sections"])["Dominant appraisals"]
    assert appraisals.splitlines() == [
        "- Urgency: weight 0.600 (high); candidate score 0.700; "
        "neither favors nor counts against this choice: no time limit given; prep time 90 min",
        "- Goal Relevance: weight 0.200 (medium); candidate score 0.000; no direct evidence",
        "- Normative Significance: weight 0.200 (medium); candidate score 1.000; "
        "favored because satisfies dietary constraints: vegetarian",
    ]


def test_explain_names_a_repeated_dietary_constraint_once(capsys, tmp_path):
    code, out, _ = _run(capsys, _quick_bowl(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == (
        "Normative Significance (weight 0.14): favored because satisfies dietary constraints: vegetarian."
    )
    assert lines[-1] == "Dietary constraints satisfied: vegetarian."


def test_plan_summary_names_a_repeated_goal_once(capsys, tmp_path):
    profile = tmp_path / "quick.json"
    profile.write_text(json.dumps({"user_id": "d", "goals": ["quick", "Quick"]}))
    catalog = tmp_path / "bowl.json"
    catalog.write_text(json.dumps([{"id": "a", "name": "Quick Veg Bowl", "prep_time_minutes": 10}]))
    code, _, _ = _run(capsys, [
        "explain", "--profile", str(profile), "--candidates", str(catalog),
        "--query", "dinner in 20 minutes", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text("utf-8"))
    assert plan["context_summary"] == "goals: quick; time limit: 20 minutes"


def test_explain_compare_structure(capsys, fixture_files):
    profile, query, candidates = fixture_files("sarah")
    code, out, _ = _run(
        capsys,
        [
            "explain", "--profile", query and profile, "--query", query,
            "--candidates", candidates, "--compare", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload["comparison"], SCHEMAS["comparison_output"])
    assert len(payload["comparison"]["appraisal"]["dimensions"]) == 2
    assert payload["comparison"]["baseline"]["dimensions"] == []
    assert payload["appraisal"] != payload["baseline"]


def test_explain_baseline_only(capsys, fixture_files):
    profile, query, candidates = fixture_files("sarah")
    code, out, _ = _run(
        capsys,
        [
            "explain", "--profile", profile, "--query", query,
            "--candidates", candidates, "--baseline", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "baseline"
    assert "Urgency" not in payload["explanation"]


def test_explain_llm_without_endpoint_fails(capsys, fixture_files, monkeypatch):
    monkeypatch.delenv("APPRAISAL_LLM_URL", raising=False)
    profile, query, candidates = fixture_files("sarah")
    code, _, err = _run(
        capsys,
        [
            "explain", "--profile", profile, "--query", query,
            "--candidates", candidates, "--realizer", "llm",
        ],
    )
    assert code == 1
    assert "chat endpoint" in err


def test_explain_out_dir_artifacts(capsys, fixture_files, tmp_path):
    profile, query, candidates = fixture_files("sarah")
    out_dir = tmp_path / "artifacts"
    code, _, _ = _run(
        capsys,
        [
            "explain", "--profile", profile, "--query", query,
            "--candidates", candidates, "--compare", "--out", str(out_dir),
        ],
    )
    assert code == 0
    for filename, schema in [
        ("salience.json", "salience_output"),
        ("ranking.json", "ranking_output"),
        ("plan.json", "plan_output"),
        ("comparison.json", "comparison_output"),
    ]:
        payload = json.loads((out_dir / filename).read_text("utf-8"))
        jsonschema.validate(payload, SCHEMAS[schema])
    assert (out_dir / "explanation.txt").exists()
    assert (out_dir / "baseline.txt").exists()
    records = [
        json.loads(line)
        for line in (out_dir / "runlog.jsonl").read_text("utf-8").splitlines()
    ]
    assert [r["mode"] for r in records] == ["appraisal", "baseline"]
    assert all(r["started_at"] and r["finished_at"] for r in records)


@pytest.mark.parametrize("name", ["sarah", "alex"])
def test_scenario_passes(capsys, tmp_path, name):
    code, out, _ = _run(
        capsys, ["scenario", name, "--out", str(tmp_path / name)]
    )
    assert code == 0
    assert f"scenario {name}: PASS" in out
    for filename in (
        "salience.json",
        "ranking.json",
        "plan.json",
        "explanation.txt",
        "baseline.txt",
        "runlog.jsonl",
    ):
        assert (tmp_path / name / filename).exists()
    for part in ("salience", "ranking", "plan"):
        golden = (GOLDEN_DIR / f"{name}_{part}.json").read_bytes()
        assert (tmp_path / name / f"{part}.json").read_bytes() == golden


def test_scenario_unknown_lists_fixtures(capsys):
    code, _, err = _run(capsys, ["scenario", "nobody"])
    assert code == 2
    assert "alex" in err and "sarah" in err


def test_schemas_prints_valid_json_schemas(capsys):
    code, out, _ = _run(capsys, ["schemas"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == set(SCHEMAS)
    for schema in payload.values():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_schemas_single(capsys):
    code, out, _ = _run(capsys, ["schemas", "profile"])
    assert code == 0
    assert json.loads(out)["title"] == "User profile"


def test_schemas_unknown_name(capsys):
    code, out, err = _run(capsys, ["schemas", "nope"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown schema 'nope'; available: candidates, comparison_output, config, fixture, "
        "lexicons, plan_output, profile, prompts, ranking_output, registry, salience_output\n"
    )


def test_bundled_inputs_validate_against_schemas():
    from appraisal_explainer.fixtures import fixture_document
    from appraisal_explainer.registry import _bundled_document
    from appraisal_explainer.lexicons import _bundled_doc

    jsonschema.validate(json.loads(_bundled_document()), SCHEMAS["registry"])
    jsonschema.validate(json.loads(_bundled_doc()), SCHEMAS["lexicons"])
    for name in ("sarah", "alex"):
        jsonschema.validate(fixture_document(name), SCHEMAS["fixture"])


def test_commands_byte_stable(capsys, fixture_files):
    profile, query, candidates = fixture_files("sarah")
    argv = [
        "rank", "--profile", profile, "--query", query,
        "--candidates", candidates, "--format", "json",
    ]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_config_file_flow(capsys, fixture_files, tmp_path):
    profile, query, candidates = fixture_files("sarah")
    config = tmp_path / "config.json"
    # JSON Schema counts 2.0 as an integer, so it must run as 2.
    for top_k in (2, 2.0):
        config.write_text(
            json.dumps(
                {
                    "paths": {"profile": profile, "candidates": candidates},
                    "top_k": top_k,
                    "format": "json",
                }
            )
        )
        code, out, err = _run(capsys, ["salience", "--config", str(config), "--query", query])
        assert code == 0, err
        assert len(json.loads(out)["dominant"]) == 2


def test_empty_config_path_is_not_given(capsys, tmp_path):
    # Path("") is the working directory, which exists; an empty flag is not given either.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"registry": ""}}))
    code, _, err = _run(capsys, ["scenario", "alex", "--config", str(config), "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    golden = (GOLDEN_DIR / "alex_explanation.txt").read_bytes()
    assert (tmp_path / "explanation.txt").read_bytes() == golden


def test_config_sets_every_schema_key(tmp_path):
    paths = {key: str(tmp_path / f"{key}.json") for key in PATH_KEYS}
    for path in paths.values():
        Path(path).write_text("{}")
    doc = {
        "paths": paths,
        "scorer": "remote",
        "realizer": "llm",
        "top_k": 4,
        "fallback": True,
        "filter_normative": False,
        "format": "json",
    }
    assert set(doc) == set(CONFIG_SCHEMA["properties"])
    assert set(paths) == set(CONFIG_SCHEMA["properties"]["paths"]["properties"])
    # Every value differs from its default, and RunConfig has no other field.
    assert resolve_config(doc, {}, out_dir=str(tmp_path))._asdict() == {
        **{f"{key}_path": path for key, path in paths.items()},
        **{key: value for key, value in doc.items() if key != "paths"},
        "out_dir": str(tmp_path),
    }


@pytest.mark.parametrize(
    "config, flags, named",
    [
        ({}, ["--top-k", "9"], "top_k"),
        ({"threshold": 0.3}, [], "threshold"),
        ({"scoring": {"agency_saturation": 3.0}}, [], "scoring"),
        ({"salience": {"query_hit": 2.0}}, [], "salience"),
        ({}, ["--threshold", "0.3"], "--threshold"),
    ],
    ids=["top_k", "threshold", "scoring", "salience", "threshold-flag"],
)
def test_config_rejects_bad_top_k(capsys, fixture_files, tmp_path, config, flags, named):
    profile, query, _ = fixture_files("sarah")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(
        capsys,
        ["salience", "--config", str(path), "--profile", profile, "--query", query, *flags],
    )
    assert code == 2
    assert named in err


@pytest.mark.parametrize(
    "flag, doc, path",
    [
        ("--registry", {"dimensions": ["x"]}, "registry $.dimensions[0]:"),
        ("--lexicons", {"dimensions": []}, "lexicons $.dimensions:"),
        ("--prompts", {"section_labels": "x"}, "prompts $.section_labels:"),
        ("--prompts", {"appraisal_instruction": "Why {bogus}?"}, "prompts $.appraisal_instruction:"),
        ("--prompts", {"appraisal_instruction": "Why {candidate_name?"}, "prompts $.appraisal_instruction:"),
    ],
    ids=["registry", "lexicons", "prompts", "prompts-placeholder", "prompts-braces"],
)
def test_malformed_override_is_an_input_error(capsys, fixture_files, tmp_path, flag, doc, path):
    profile, query, candidates = fixture_files("sarah")
    override = tmp_path / "override.json"
    override.write_text(json.dumps(doc))
    code, _, err = _run(
        capsys,
        [
            "explain", "--profile", profile, "--query", query,
            "--candidates", candidates, flag, str(override),
        ],
    )
    assert code == 2
    assert path in err


# Exit code and stderr of each malformed document. Each reason is the one
# recorded by running `rank` on the source from before the stdlib record
# checks replaced jsonschema on the loaders' success path, except that
# "two-faults" now names its first fault in document order, the empty id.
_REJECTED = [
    ("candidates", '{"id": "a", "name": "A", "prep_time_minutes": 5}',
     "$: {'id': 'a', 'name': 'A', 'prep_time_minutes': 5} is not of type 'array'"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": true}]',
     "$[0].prep_time_minutes: True is not of type 'integer'"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": 0}]',
     "$[0].prep_time_minutes: 0 is less than the minimum of 1"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": 2.5}]',
     "$[0].prep_time_minutes: 2.5 is not of type 'integer'"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": NaN}]',
     "$[0].prep_time_minutes: nan is not of type 'integer'"),
    ("candidates", '[{"id": "", "name": "A", "prep_time_minutes": 5}]',
     "$[0].id: '' should be non-empty"),
    ("candidates", '[{"id": "a", "prep_time_minutes": 5}]',
     "$[0]: 'name' is a required property"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": 5, "price": 3}]',
     "$[0]: Additional properties are not allowed ('price' was unexpected)"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": 5, "tags": "quick"}]',
     "$[0].tags: 'quick' is not of type 'array'"),
    ("candidates", '[{"id": "a", "name": "A", "prep_time_minutes": 5}, '
     '{"id": "b", "name": "B", "prep_time_minutes": 5, "ingredients": ["rice", 1]}]',
     "$[1].ingredients[1]: 1 is not of type 'string'"),
    ("candidates", '[{"id": "", "name": "A", "prep_time_minutes": 0, "tags": "x"}]',
     "$[0].id: '' should be non-empty"),
    ("profile", '["u"]', "$: ['u'] is not of type 'object'"),
    ("profile", '{"user_id": ""}', "$.user_id: '' should be non-empty"),
    ("profile", '{"goals": []}', "$: 'user_id' is a required property"),
    ("profile", '{"user_id": "u", "age": 30}',
     "$: Additional properties are not allowed ('age' was unexpected)"),
    ("profile", '{"user_id": "u", "familiar_items": ["pasta", true]}',
     "$.familiar_items[1]: True is not of type 'string'"),
]


@pytest.mark.parametrize(
    "what, text, message",
    _REJECTED,
    ids=[
        "not-a-list", "bool-prep", "zero-prep", "fraction-prep", "nan-prep", "empty-id",
        "missing-name", "extra-key", "string-tags", "number-ingredient", "two-faults",
        "profile-not-object", "empty-user-id", "missing-user-id", "profile-extra-key",
        "bool-familiar-item",
    ],
)
def test_rejected_document_error_is_unchanged(capsys, fixture_files, tmp_path, what, text, message):
    profile, query, candidates = fixture_files("sarah")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = {"profile": profile, "candidates": candidates, what: str(bad)}
    code, out, err = _run(
        capsys,
        [
            "rank", "--profile", paths["profile"], "--query", query,
            "--candidates", paths["candidates"], "--format", "json",
        ],
    )
    assert (code, out) == (2, "")
    assert err == f"error: {what} file {bad} {message}\n"


def test_whitespace_only_candidate_name_is_rejected(capsys, fixture_files, tmp_path):
    # Whitespace alone would print "Recommended:     (composite match ...)".
    profile, query, _ = fixture_files("sarah")
    bad = tmp_path / "bad.json"
    bad.write_text('[{"id": "a", "name": "   ", "prep_time_minutes": 5}]')
    code, out, err = _run(
        capsys, ["explain", "--profile", profile, "--query", query, "--candidates", str(bad)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: candidates file {bad} $[0].name: '   ' does not match '\\\\S'\n"


@pytest.mark.parametrize("flag", ["--candidates", "--profile", "--config"])
def test_non_utf8_input_is_an_input_error(capsys, fixture_files, tmp_path, flag):
    profile, query, candidates = fixture_files("sarah")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[]")
    args = {"--profile": profile, "--candidates": candidates, flag: str(bad)}
    code, _, err = _run(
        capsys, ["rank", "--query", query, *(item for pair in args.items() for item in pair)]
    )
    assert code == 2
    assert err.startswith(f"error: {flag[2:]} file {bad} is not valid UTF-8 JSON: ")


# Mostly words of the bundled lexicons, so generated candidates earn evidence
# on every dimension and the ranking output is large.
_WORDS = [
    "quick", "fast", "easy", "healthy", "nutritious", "classic", "comforting",
    "customizable", "delicious", "fresh", "bland", "boring", "spicy", "stew",
    "salad", "noodles", "beans", "tofu", "herbs", "crème fraîche",
]
_QUERY = "something quick and delicious in 30 minutes"


def _large_inputs(tmp_path, size=1200):
    """A generated catalog whose ranking JSON is more than one writer block."""
    rng = random.Random(5)
    candidates = [
        {
            "id": f"c{index:04d}",
            "name": " ".join(rng.sample(_WORDS, 2)),
            "description": " ".join(rng.sample(_WORDS, 6)),
            "prep_time_minutes": rng.randint(5, 90),
            "ingredients": rng.sample(_WORDS, 3),
            "tags": rng.sample(_WORDS, 3),
            "customization_options": rng.randint(0, 3),
        }
        for index in range(size)
    ]
    candidates[0].update(id="crème-brûlée", name="Crème brûlée")
    profile = {
        "user_id": "u",
        "goals": ["healthy"],
        "dietary_constraints": ["no-nuts"],
        "familiar_items": ["crème fraîche", "beans"],
    }
    paths = tmp_path / "profile.json", tmp_path / "candidates.json"
    for path, doc in zip(paths, (profile, candidates)):
        path.write_text(json.dumps(doc, ensure_ascii=False), "utf-8")
    return paths


def test_json_output_is_streamed_unchanged(capsys, tmp_path):
    profile, candidates = _large_inputs(tmp_path)
    result = run_pipeline(
        load_profile(profile), Query(_QUERY), load_candidates(candidates),
        load_engine_data(RunConfig()), RunConfig(), RunLog(), want_appraisal=False,
    )
    payload = ranking_to_dict(result.ranked)
    expected = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(payload)
    assert sum(1 for _ in chunks) > 65536  # more than one writer block
    assert "crème-brûlée" in expected and "crème fraîche" in expected

    out = tmp_path / "out"
    code, stdout, _ = _run(capsys, [
        "rank", "--profile", str(profile), "--query", _QUERY, "--candidates", str(candidates),
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    assert stdout == expected
    assert (out / "ranking.json").read_bytes() == expected.encode("utf-8")


def test_closed_stdout_exits_quietly(tmp_path):
    import appraisal_explainer

    # More than one writer block of JSON, far more than a pipe buffers, so the
    # writer meets the closed pipe mid-stream.
    profile, candidates = _large_inputs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(appraisal_explainer.__file__).parents[1])}
    argv = [
        sys.executable, "-m", "appraisal_explainer.cli", "rank", "--profile", str(profile),
        "--query", _QUERY, "--candidates", str(candidates), "--format", "json",
    ]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def _cli_process(argv, python_args=("-m", "appraisal_explainer.cli")):
    """Run the CLI in a fresh process, stdout and stderr read through pipes."""
    import appraisal_explainer

    env = {**os.environ, "PYTHONPATH": str(Path(appraisal_explainer.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *python_args, *argv], capture_output=True, env=env, timeout=60
    )


def test_process_writes_the_scenario_goldens(tmp_path):
    # The process ends without interpreter teardown: every artifact must be
    # complete when ``main`` returns.
    done = _cli_process(["scenario", "alex", "--out", str(tmp_path)])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"scenario alex: PASS\n")
    for name in ("salience.json", "ranking.json", "plan.json", "explanation.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / f"alex_{name}").read_bytes()


@pytest.mark.parametrize(
    ("with_profile", "code", "err"),
    [
        (True, 1, "error: candidate set is empty\n"),
        (False, 2, "error: --profile is required for this command\n"),
    ],
)
def test_process_keeps_exit_code_and_stderr(capsys, fixture_files, tmp_path, with_profile, code, err):
    profile, query, _ = fixture_files("sarah")
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    argv = ["rank", "--query", query, "--candidates", str(empty)]
    argv += ["--profile", profile] if with_profile else []
    assert _run(capsys, argv) == (code, "", err)
    done = _cli_process(argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, b"", err.encode())


def test_piped_process_output_equals_main(capsys, tmp_path):
    # More than one writer block of JSON, all of it flushed before the process ends.
    profile, candidates = _large_inputs(tmp_path)
    argv = [
        "rank", "--profile", str(profile), "--query", _QUERY, "--candidates", str(candidates),
        "--format", "json",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    done = _cli_process(argv)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", out.encode("utf-8"))


def test_profiled_process_writes_its_profile(tmp_path):
    # Under a profile function the process ends with sys.exit, so cProfile
    # still writes its output.
    stats = tmp_path / "cli.prof"
    done = _cli_process(
        ["schemas", "profile"],
        ("-m", "cProfile", "-o", str(stats), "-m", "appraisal_explainer.cli"),
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout) == SCHEMAS["profile"]
    assert pstats.Stats(str(stats)).total_calls > 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("succeeds", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, fixture_files, enabled, succeeds):
    profile, query, _ = fixture_files("sarah")
    # Without --query the command is an input error, exit 2.
    argv = ["salience", "--profile", profile, *(["--query", query] if succeeds else [])]
    collecting = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = _run(capsys, argv)
        assert (code, gc.isenabled()) == (0 if succeeds else 2, enabled)
    finally:
        (gc.enable if collecting else gc.disable)()


def test_rank_runs_no_cyclic_collection(capsys, tmp_path):
    # The catalog, features, vectors and entries hold no cycles: a collection
    # during the command would only walk them.
    profile, candidates = _large_inputs(tmp_path, size=3000)
    argv = [
        "rank", "--format", "json", "--profile", str(profile), "--query", _QUERY,
        "--candidates", str(candidates),
    ]
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(argv)
        during = len(collections)
    finally:
        gc.callbacks.remove(count)
    assert (code, during) == (0, 0)
    assert json.loads(capsys.readouterr().out)["entries"]
