"""The traced benchmark rebinds engine names; each must still be bound."""

from pathlib import Path

from appraisal_explainer import cli, compute_salience, pipeline, serialize

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_bench_patches_apply_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    original = serialize.ranking_to_dict
    patches = run.tracing_patches(spans.Tracer())
    # patched() reads owner.__dict__[attr], so an unbound name raises KeyError here.
    with spans.patched(patches):
        assert cli.ranking_to_dict is not original
    assert cli.ranking_to_dict is serialize.ranking_to_dict is original
    assert cli.json is run.json


def test_traced_rank_times_one_vector_per_candidate(monkeypatch, alex, alex_context, registry, lexicons):
    # The traced scoring.vector_us_per_cand divides the time of the spans
    # around scoring.appraisal_vector by their count: rank_candidates must
    # call that module-level name once per candidate, inside the rank span.
    # scoring.rank_vectors_ms times the module-level scoring.rank_vectors,
    # which rank_candidates must call once, inside the same span.
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    tracer = spans.Tracer()
    candidates = list(alex.candidates)
    salience = compute_salience(alex_context, registry)
    with spans.patched(run.tracing_patches(tracer)):
        pipeline.rank_candidates(candidates, alex_context, salience, lexicons=lexicons)
    names = [name for name, *_ in tracer.spans]
    assert names.count("scoring.rank") == 1
    assert names.count("scoring.vector") == len(candidates)
    assert names.count("scoring.rank_vectors") == 1
    rank = names.index("scoring.rank")
    assert all(
        parent == rank for name, _, _, parent, _ in tracer.spans
        if name in ("scoring.vector", "scoring.rank_vectors")
    )
