import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import appraisal_explainer
from appraisal_explainer import explanation, salience
from appraisal_explainer import (
    Dimension,
    build_prompt,
    compute_salience,
    lexical_salience,
    normalize,
    realize_llm,
    realize_template,
    remote_entailment_salience,
)
from appraisal_explainer.errors import (
    EmptyCompletion,
    ProtocolError,
    RealizerUnavailable,
    ScorerUnavailable,
)
from appraisal_explainer.explanation import MODE_APPRAISAL, build_plan
from appraisal_explainer.remote import (
    ChatEndpoint,
    EntailmentEndpoint,
    request_chat_completion,
    request_entailment_scores,
)
from appraisal_explainer.runlog import RunLog
from appraisal_explainer.scoring import rank_candidates

from stub_servers import chat_response, dead_url, nli_response_for, stub_server

CANNED = [0.9, 0.7, 0.3, 0.95, 0.2, 0.1]
# A stub that would reply after SLOW_S seconds, to a client that waits
# TIMEOUT_S: the client gives up first, and the stub never replies.
SLOW_S = 5.0
TIMEOUT_S = 0.2


def _slow_endpoint(monkeypatch, endpoint_type, url):
    """Make ``endpoint_type.from_env`` name ``url`` with a TIMEOUT_S timeout."""
    monkeypatch.setattr(
        endpoint_type, "from_env", classmethod(lambda cls: cls(url=url, timeout=TIMEOUT_S))
    )


def test_entailment_pass_through(sarah_context, registry):
    with stub_server(lambda payload: (200, nli_response_for(payload, CANNED))) as server:
        raw = remote_entailment_salience(
            sarah_context, registry, EntailmentEndpoint(url=server.url)
        )
    assert raw == dict(zip(Dimension, CANNED))
    sent = server.requests[0]
    assert sent["premise"] == sarah_context.composite_text
    assert [h["dimension"] for h in sent["hypotheses"]] == [d.value for d in Dimension]
    statements = {info.id.value: info.canonical_statement for info in registry.dimensions}
    for hypothesis in sent["hypotheses"]:
        assert hypothesis["text"] == statements[hypothesis["dimension"]]


def test_entailment_scores_are_keyed_not_positional(sarah_context, registry):
    with stub_server(
        lambda payload: (200, nli_response_for(payload, CANNED, reverse=True))
    ) as server:
        raw = remote_entailment_salience(
            sarah_context, registry, EntailmentEndpoint(url=server.url)
        )
    assert raw == dict(zip(Dimension, CANNED))


def test_entailment_arity_error(sarah_context, registry):
    with stub_server(
        lambda payload: (200, nli_response_for(payload, CANNED, drop_last=True))
    ) as server:
        with pytest.raises(ProtocolError):
            remote_entailment_salience(
                sarah_context, registry, EntailmentEndpoint(url=server.url)
            )


def test_entailment_unknown_dimension_error(sarah_context, registry):
    def respond(payload):
        body = nli_response_for(payload, CANNED)
        body["scores"][0]["dimension"] = "Mystery"
        return 200, body

    with stub_server(respond) as server:
        with pytest.raises(ProtocolError):
            remote_entailment_salience(
                sarah_context, registry, EntailmentEndpoint(url=server.url)
            )


def test_entailment_out_of_range_score(sarah_context, registry):
    with stub_server(
        lambda payload: (200, nli_response_for(payload, [1.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
    ) as server:
        with pytest.raises(ProtocolError):
            remote_entailment_salience(
                sarah_context, registry, EntailmentEndpoint(url=server.url)
            )


def test_entailment_non_json_body(sarah_context, registry):
    with stub_server(lambda payload: (200, "this is not json")) as server:
        with pytest.raises(ProtocolError):
            remote_entailment_salience(
                sarah_context, registry, EntailmentEndpoint(url=server.url)
            )


def test_entailment_http_error_is_unavailable(sarah_context, registry):
    with stub_server(lambda payload: (500, {"error": "boom"})) as server:
        with pytest.raises(ScorerUnavailable):
            remote_entailment_salience(
                sarah_context, registry, EntailmentEndpoint(url=server.url)
            )


def test_entailment_connection_refused(sarah_context, registry):
    endpoint = EntailmentEndpoint(url=dead_url(), timeout=2.0)
    with pytest.raises(ScorerUnavailable):
        remote_entailment_salience(sarah_context, registry, endpoint)


def test_remote_fallback_equals_lexical(sarah_context, registry, monkeypatch):
    monkeypatch.setenv("APPRAISAL_NLI_URL", dead_url())
    profile = compute_salience(sarah_context, registry, scorer="remote", fallback=True)
    direct = normalize(lexical_salience(sarah_context, registry))
    assert profile.weights == direct
    assert profile.scorer_id != "lexical"
    assert "fallback" in profile.scorer_id


def test_remote_salience_via_env(sarah_context, registry, monkeypatch):
    with stub_server(lambda payload: (200, nli_response_for(payload, CANNED))) as server:
        monkeypatch.setenv("APPRAISAL_NLI_URL", server.url)
        profile = compute_salience(sarah_context, registry, scorer="remote")
    assert profile.scorer_id == "remote-entailment"
    assert profile.weights == normalize(dict(zip(Dimension, CANNED)))


def test_entailment_timeout_is_unavailable(sarah_context, registry):
    with stub_server(lambda payload: (200, nli_response_for(payload)), delay=SLOW_S) as server:
        with pytest.raises(ScorerUnavailable, match="timed out"):
            remote_entailment_salience(
                sarah_context, registry, EntailmentEndpoint(url=server.url, timeout=TIMEOUT_S)
            )


def test_entailment_timeout_falls_back_to_lexical(sarah_context, registry, monkeypatch):
    with stub_server(lambda payload: (200, nli_response_for(payload)), delay=SLOW_S) as server:
        _slow_endpoint(monkeypatch, EntailmentEndpoint, server.url)
        profile = compute_salience(sarah_context, registry, scorer="remote", fallback=True)
    assert profile.weights == normalize(lexical_salience(sarah_context, registry))
    assert profile.scorer_id == salience.SCORER_FALLBACK


@pytest.fixture
def sarah_bundle(sarah, sarah_context, registry, lexicons):
    salience = compute_salience(sarah_context, registry)
    ranked = rank_candidates(
        list(sarah.candidates), sarah_context, salience, lexicons=lexicons
    )
    plan = build_plan(ranked, salience, sarah_context, registry)
    return plan, build_prompt(MODE_APPRAISAL, plan=plan)


def test_llm_returns_completion_verbatim(sarah_bundle):
    _, bundle = sarah_bundle
    canned = "Here is a friendly explanation.\nIt cites urgency."
    runlog = RunLog()
    with stub_server(lambda payload: (200, chat_response(canned))) as server:
        text = realize_llm(bundle, ChatEndpoint(url=server.url), runlog=runlog)
        sent = server.requests[0]
    assert text == canned
    assert sent["model"] == "gpt-4o"
    assert sent["messages"][0]["role"] == "system"
    assert sent["messages"][1]["content"] == bundle.user_message()
    assert sent["temperature"] == 0.0
    record = runlog.records[0]
    assert record.response == canned
    assert record.prompt["sections"] == [list(s) for s in bundle.sections]
    assert record.started_at and record.finished_at


def test_llm_empty_completion(sarah_bundle):
    _, bundle = sarah_bundle
    with stub_server(lambda payload: (200, chat_response(""))) as server:
        with pytest.raises(EmptyCompletion):
            realize_llm(bundle, ChatEndpoint(url=server.url))


def test_llm_transport_error(sarah_bundle):
    _, bundle = sarah_bundle
    with pytest.raises(RealizerUnavailable):
        realize_llm(bundle, ChatEndpoint(url=dead_url(), timeout=2.0))


def test_llm_fallback_matches_template(sarah_bundle, monkeypatch):
    from appraisal_explainer.config import RunConfig
    from appraisal_explainer.pipeline import load_engine_data, realize_appraisal

    plan, _ = sarah_bundle
    monkeypatch.setenv("APPRAISAL_LLM_URL", dead_url())
    cfg = RunConfig(realizer="llm", fallback=True)
    runlog = RunLog()
    text = realize_appraisal(plan, load_engine_data(cfg), cfg, runlog)
    assert text == realize_template(plan)
    assert runlog.records[-1].fallback is True
    assert runlog.records[-1].realizer == "template"


def test_llm_timeout_is_unavailable(sarah_bundle):
    _, bundle = sarah_bundle
    with stub_server(lambda payload: (200, chat_response("late")), delay=SLOW_S) as server:
        with pytest.raises(RealizerUnavailable, match="timed out"):
            realize_llm(bundle, ChatEndpoint(url=server.url, timeout=TIMEOUT_S))


def test_llm_timeout_falls_back_to_template(sarah_bundle, monkeypatch):
    from appraisal_explainer.config import RunConfig
    from appraisal_explainer.pipeline import load_engine_data, realize_appraisal

    plan, _ = sarah_bundle
    cfg = RunConfig(realizer="llm", fallback=True)
    runlog = RunLog()
    with stub_server(lambda payload: (200, chat_response("late")), delay=SLOW_S) as server:
        _slow_endpoint(monkeypatch, ChatEndpoint, server.url)
        text = realize_appraisal(plan, load_engine_data(cfg), cfg, runlog)
    assert text == realize_template(plan)
    assert [(r.realizer, r.fallback) for r in runlog.records] == [("template", True)]


def test_llm_auth_header_sent(sarah_bundle):
    _, bundle = sarah_bundle
    with stub_server(lambda payload: (200, chat_response("ok then"))) as server:
        endpoint = ChatEndpoint(url=server.url, api_key="secret-key")
        realize_llm(bundle, endpoint)
        headers = server.headers[0]
    assert headers.get("Authorization") == "Bearer secret-key"


# Each a CLI argv and its exit code; "explain" reads one document of each of
# the six input formats, and the "rejected" runs reject one.
_RUNS = {
    "import": (None, 0),
    "scenario": (["scenario", "alex", "--out", "{tmp}/out"], 0),
    "explain": ([
        "explain", "--profile", "{profile}", "--candidates", "{candidates}", "--query", "{query}",
        "--config", "{tmp}/config.json", "--registry", "{tmp}/registry.json",
        "--lexicons", "{tmp}/lexicons.json", "--prompts", "{tmp}/prompts.json",
    ], 0),
    "rejected-candidates": ([
        "rank", "--profile", "{profile}", "--candidates", "{tmp}/bad_candidates.json", "--query", "{query}",
    ], 2),
    "rejected-registry": ([
        "explain", "--profile", "{profile}", "--candidates", "{candidates}", "--query", "{query}",
        "--registry", "{tmp}/bad_registry.json",
    ], 2),
}


@pytest.mark.parametrize("run", _RUNS)
def test_cli_leaves_jsonschema_and_requests_unloaded(fixture_files, tmp_path, run):
    # Only the two remote clients need requests, and they import it when
    # called; the engine checks and words a rejected document itself. The
    # engine defines its records without dataclasses: importing it loads
    # inspect, ast, dis and tokenize, and decorating the records took about a
    # fifth of a fresh ``scenario`` process.
    profile, query, candidates = fixture_files("alex")
    documents = {
        "config": {"top_k": 2, "paths": {"registry": None}},
        "registry": {"dimensions": [{"id": "Urgency", "display_name": "Time pressure"}]},
        "lexicons": {"sentiment": {"positive": ["tasty"]}},
        "prompts": {"section_labels": {"profile": "About you"}},
        "bad_candidates": [{"id": "a", "name": "A", "prep_time_minutes": 0}],
        "bad_registry": {"dimensions": [{"id": "Curiosity"}]},
    }
    for name, doc in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    args, code = _RUNS[run]
    argv = [
        arg.format(tmp=tmp_path, profile=profile, candidates=candidates, query=query)
        for arg in args or ()
    ]
    probe = (
        "import sys, appraisal_explainer.cli\n"
        f"assert not sys.argv[1:] or appraisal_explainer.cli.main(sys.argv[1:]) == {code}\n"
        "print(sorted({'dataclasses', 'inspect', 'jsonschema', 'requests'} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(appraisal_explainer.__file__).parents[1])},
    )
    assert done.stdout.splitlines()[-1] == "[]"
    assert salience.request_entailment_scores is request_entailment_scores
    assert explanation.request_chat_completion is request_chat_completion
