"""The traced benchmark rebinds engine names; each must still be bound."""

from pathlib import Path

from appraisal_explainer import cli, serialize

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
