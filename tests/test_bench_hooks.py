"""The traced benchmark rebinds engine names; each must still be bound."""

from pathlib import Path

from appraisal_explainer import cli, compute_salience, pipeline, scoring, serialize

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
    # call that module-level name once per appraised candidate, inside the
    # rank span. With the normative filter on, that is once per ranked entry
    # and never for an excluded candidate; with it off, once per candidate.
    # scoring.rank_vectors_ms times the module-level scoring.rank_vectors,
    # which rank_candidates must call once, inside the same span.
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    candidates = list(alex.candidates)
    salience = compute_salience(alex_context, registry)
    for filter_normative in (True, False):
        tracer, appraised = spans.Tracer(), []
        with spans.patched(run.tracing_patches(tracer)):
            traced = scoring.appraisal_vector

            def recorded(candidate, *args, **kwargs):
                appraised.append(candidate.id)
                return traced(candidate, *args, **kwargs)

            with spans.patched([(scoring, "appraisal_vector", recorded)]):
                ranked = pipeline.rank_candidates(
                    candidates, alex_context, salience, lexicons=lexicons, filter_normative=filter_normative
                )
        excluded = [exclusion.candidate_id for exclusion in ranked.excluded]
        assert excluded == (["pepperoni-pizza"] if filter_normative else [])
        assert appraised == [candidate.id for candidate in candidates if candidate.id not in excluded]
        assert sorted(appraised) == sorted(entry.candidate_id for entry in ranked.entries)
        names = [name for name, *_ in tracer.spans]
        assert names == ["scoring.rank", *["scoring.vector"] * len(appraised), "scoring.rank_vectors"]
        assert all(parent == 0 for _, _, _, parent, _ in tracer.spans[1:])
