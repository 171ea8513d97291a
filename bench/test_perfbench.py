"""Tests of the benchmark's own parts: generator, output checks, stub, spans."""

import copy
import json
import random
from collections import Counter
from itertools import islice
from pathlib import Path

import jsonschema
import pytest

import checks
import gen
import run
import spans
import stub
from appraisal_explainer import (
    build_unified_context,
    compute_salience,
    load_lexicons,
    load_registry,
    parse_time_constraint,
    rank_candidates,
)
from appraisal_explainer.errors import ProtocolError, RealizerUnavailable, ScorerUnavailable
from appraisal_explainer.fixtures import load_fixture
from appraisal_explainer.remote import (
    ChatEndpoint,
    EntailmentEndpoint,
    request_chat_completion,
    request_entailment_scores,
)
from appraisal_explainer.schemas import CANDIDATES_SCHEMA, PROFILE_SCHEMA
from appraisal_explainer.serialize import ranking_to_dict, salience_to_dict


def generated(seed: int) -> bytes:
    rng = random.Random(seed)
    words = gen.load_word_lists()
    return b"".join(
        gen.dump(doc)
        for doc in (
            gen.catalog(rng, 40, *words),
            gen.profile_mix(rng, 5, *words),
            gen.query_mix(rng, 4, *words),
        )
    )


def test_generator_same_seed_same_bytes_other_seed_other_bytes():
    assert generated(7) == generated(7)
    assert generated(7) != generated(8)


def test_generated_documents_validate_and_cover_the_mix():
    rng = random.Random(3)
    words = gen.load_word_lists()
    jsonschema.validate(gen.catalog(rng, 40, *words), CANDIDATES_SCHEMA)
    profiles = gen.profile_mix(rng, 10, *words)
    for doc in profiles:
        jsonschema.validate(doc, PROFILE_SCHEMA)
    assert {tuple(doc["dietary_constraints"]) for doc in profiles} == set(gen.CONSTRAINT_MIX)
    durations = [parse_time_constraint(text) for text in gen.query_mix(rng, 8, *words)]
    assert all(minutes is not None for minutes in durations[::2])
    assert all(minutes is None for minutes in durations[1::2])


@pytest.fixture(scope="module")
def alex_ranking():
    fixture = load_fixture("alex")
    registry, lexicons = load_registry(), load_lexicons()
    context = build_unified_context(fixture.profile, fixture.query, registry, lexicons)
    salience = compute_salience(context, registry)
    ranked = rank_candidates(list(fixture.candidates), context, salience, lexicons=lexicons)
    ids = [candidate.id for candidate in fixture.candidates]
    return ranking_to_dict(ranked), ids, salience_to_dict(salience)["weights"]


def test_check_ranking_accepts_engine_output(alex_ranking):
    doc, ids, weights = alex_ranking
    assert checks.check_ranking(doc, ids, weights) == []


def _broken(doc, how):
    doc = copy.deepcopy(doc)
    if how == "mis-sorted":
        doc["entries"].reverse()
    elif how == "missing id":
        doc["excluded"].pop()
    elif how == "wrong composite":
        doc["entries"][0]["composite"] -= 0.01
    elif how == "composite above one":
        doc["entries"][0]["composite"] = 1.0 + 1e-6
    elif how == "schema":
        del doc["entries"][0]["scores"]
    return doc


@pytest.mark.parametrize(
    "how, expected",
    [
        ("mis-sorted", "not sorted"),
        ("missing id", "do not split"),
        ("wrong composite", "weighted sum"),
        ("composite above one", "outside [0, 1]"),
        ("schema", "RANKING_OUTPUT_SCHEMA"),
    ],
)
def test_check_ranking_rejects_broken_output(alex_ranking, how, expected):
    doc, ids, weights = alex_ranking
    assert len(doc["entries"]) >= 2 and doc["excluded"]
    problems = checks.check_ranking(_broken(doc, how), ids, weights)
    assert any(expected in problem for problem in problems), problems


def test_check_ranking_allows_rounding_above_one_and_records_it(alex_ranking):
    doc, ids, _ = alex_ranking
    doc = copy.deepcopy(doc)
    doc["entries"][0]["composite"] = 0.4 + 0.2 + 0.3 + 0.1
    assert doc["entries"][0]["composite"] > 1.0
    above_one: list[str] = []
    assert checks.check_ranking(doc, ids, above_one=above_one) == []
    assert above_one == [doc["entries"][0]["candidate_id"]]


def test_fault_schedule_is_fixed_per_seed():
    first = list(islice(stub.fault_schedule(5), 100))
    assert first == list(islice(stub.fault_schedule(5), 100))
    assert first != list(islice(stub.fault_schedule(6), 100))
    size = len(stub.BLOCK)
    for start in range(0, 100 - size + 1, size):
        assert Counter(first[start:start + size]) == Counter(stub.BLOCK)


@pytest.mark.parametrize(
    "plan, service, error, failure",
    [
        ((stub.HTTP_503, (stub.OK, stub.OK)), "nli", ScorerUnavailable, "5xx"),
        ((stub.CLOSED, (stub.OK, stub.OK)), "nli", ScorerUnavailable, "connect"),
        ((stub.NON_JSON, (stub.OK, stub.OK)), "nli", ProtocolError, "non_json"),
        ((stub.WRONG_SHAPE, (stub.OK, stub.OK)), "nli", ProtocolError, "shape"),
        ((stub.OK, (stub.WRONG_SHAPE, stub.OK)), "chat", RealizerUnavailable, "shape"),
        ((stub.OK, (stub.NON_JSON, stub.OK)), "chat", RealizerUnavailable, "non_json"),
    ],
)
def test_stub_faults_reach_the_client_as_classified(plan, service, error, failure):
    with stub.StubServer() as server:
        urls = server.begin(plan)
        with pytest.raises(error) as raised:
            if service == "nli":
                request_entailment_scores(EntailmentEndpoint(urls["nli"]), "p", [("Valence", "h")])
            else:
                request_chat_completion(ChatEndpoint(urls["chat"]), "s", "u")
    assert run.failure_class(raised.value) == failure


def test_stub_serves_well_formed_replies():
    with stub.StubServer() as server:
        urls = server.begin((stub.OK, (stub.OK, stub.OK)))
        scores = request_entailment_scores(
            EntailmentEndpoint(urls["nli"]), "premise", [("Valence", "h"), ("Agency", "h")]
        )
        text = request_chat_completion(ChatEndpoint(urls["chat"]), "s", "user")
    assert set(scores) == {"Valence", "Agency"}
    assert text.strip()


def test_self_time_subtracts_direct_children():
    # op 1: a [0, 100] with children b [10, 40] and c [50, 60]; b has child d [20, 30].
    recorded = [
        ["x.a", 0, 100, -1, 1],
        ["y.b", 10, 40, 0, 1],
        ["y.d", 20, 30, 1, 1],
        ["x.c", 50, 60, 0, 1],
    ]
    view = spans.per_op(recorded)[1]
    assert view["ns"] == {"x.a": 100, "y.b": 30, "y.d": 10, "x.c": 10}
    assert view["self_ns"] == {"x": 60 + 10, "y": 20 + 10}


def test_benchmark_json_names_what_the_runner_reports():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
