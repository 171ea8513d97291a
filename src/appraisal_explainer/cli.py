"""Command-line surface: salience, rank, explain, scenario, schemas.

Exit codes: 0 success, 1 pipeline error, 2 input or configuration error,
141 (128 + SIGPIPE) when the reader of stdout closes it early, as
``appraise rank ... | head -1`` does.
All commands are byte-deterministic under the lexical scorer and template
realizer given identical inputs and configuration.

JSON output is indented by two spaces and ends with a newline. A ranking, on
stdout and in ``ranking.json``, is written straight from the ``RankedList``
by ``serialize.write_ranking_json``; text output renders its dict view,
``ranking_to_dict``. Every other JSON document goes through ``_dump_json``.
Both write block by block, so no document is held as one string.

``main`` runs a command with the cyclic garbage collector's automatic
collections off, and restores the collector's prior state on every exit, so
a caller that had turned it off keeps it off. The data a command builds (the
catalog, the candidates' features, the vectors and the entries) holds no
reference cycles and lives until the command ends, so a collection would
only walk it. A process that owns its own collector policy can call
``run_pipeline`` and the other stages directly; none of them touches ``gc``.

``run`` is the process entry point: ``python -m appraisal_explainer.cli`` and
the installed ``appraise`` both call it. It runs ``main``, flushes stdout and
stderr, and ends the process with ``os._exit``, so the interpreter's teardown
never runs: no module cleanup, no final collection, no ``atexit`` handlers, no
freeing of every object. None of that changes a byte of output. Ending early
is safe because every artifact is closed before ``main`` returns: JSON
documents are written inside ``with`` blocks, and text files and the run log
by ``Path.write_text``. When a trace or profile function is set (coverage,
``python -m cProfile``), ``run`` ends with ``sys.exit`` instead, so that tool
still writes its results at exit. ``main`` itself never ends the process, so
tests and other callers run it in-process; argparse's ``SystemExit`` (usage
errors, ``--help``) passes through both.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .config import FORMAT_JSON, RunConfig, load_candidates, load_profile, resolve_config
from .context import Query
from .errors import EngineError, InputError
from .fixtures import load_fixture
from .pipeline import PipelineResult, load_engine_data, run_pipeline, salience_stage
from .registry import Dimension
from .runlog import RunLog
from .schemas import SCHEMAS, load_document
from .serialize import (
    comparison_to_dict,
    plan_to_dict,
    ranking_to_dict,
    salience_to_dict,
    write_ranking_json,
)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a run-configuration JSON file")
    common.add_argument("--registry", help="registry JSON overriding dimension display names and canonical statements")
    common.add_argument("--lexicons", help="lexicons JSON overriding the bundled word lists")
    common.add_argument("--prompts", help="prompt-template JSON overriding the bundled templates")
    common.add_argument("--profile", help="user profile JSON path")
    common.add_argument("--query", help="natural-language query text")
    common.add_argument("--candidates", help="candidate-set JSON path")
    common.add_argument("--scorer", choices=["lexical", "remote"], help="salience scorer")
    common.add_argument("--realizer", choices=["template", "llm"], help="explanation realizer")
    common.add_argument("--baseline", action="store_true", help="emit the non-appraisal baseline")
    common.add_argument("--compare", action="store_true", help="emit both texts plus a comparison report")
    common.add_argument("--top-k", type=int, dest="top_k", help="number of dominant dimensions (1..6)")
    common.add_argument(
        "--no-normative-filter",
        dest="filter_normative",
        action="store_false",
        default=None,
        help="keep normative violators in the ranked entries",
    )
    common.add_argument(
        "--fallback",
        action="store_true",
        default=None,
        help="degrade to the lexical scorer / template realizer when a remote service is unreachable",
    )
    common.add_argument("--out", help="directory for run artifacts")
    common.add_argument("--format", choices=[FORMAT_JSON, "text"], help="output format")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="appraise",
        description="Appraisal-based salience, ranking, and explanation engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    sub.add_parser("salience", parents=[common], help="score dimension salience for a profile and query")
    sub.add_parser("rank", parents=[common], help="rank candidates against the salience profile")
    sub.add_parser("explain", parents=[common], help="run the full pipeline and emit an explanation")
    scenario = sub.add_parser("scenario", parents=[common], help="run a bundled scenario fixture end to end")
    scenario.add_argument("name", nargs="?", help="fixture name")
    schemas = sub.add_parser("schemas", parents=[common], help="print the published JSON schemas")
    schemas.add_argument("name", nargs="?", help="print only this schema")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    doc = load_document(args.config, "config") if args.config else {}
    return resolve_config(doc, vars(args), out_dir=args.out)


def _require(value, flag: str):
    if not value:
        raise InputError(f"{flag} is required for this command")
    return value


def _dump_json(payload, stream) -> None:
    """Write ``payload`` as indented JSON and a newline, block by block.

    The document is never held as one string; each write joins up to 65,536
    encoder chunks, so an unbuffered stream still sees few write calls.
    """
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(payload)
    while block := "".join(islice(chunks, 65536)):
        stream.write(block)
    stream.write("\n")


def _out_dir(cfg: RunConfig, default: Path | None = None) -> Path | None:
    """The artifact directory, created: ``--out``, else ``default``, else None."""
    path = cfg.out_dir or default
    if path is None:
        return None
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload, dump=_dump_json) -> None:
    with path.open("w", encoding="utf-8") as stream:
        dump(payload, stream)


def write_artifacts(out: Path, result: PipelineResult, runlog: RunLog) -> None:
    """Write each result part the pipeline produced, then the run log, into ``out``."""
    _write_json(out / "salience.json", salience_to_dict(result.salience))
    _write_json(out / "ranking.json", result.ranked, write_ranking_json)
    if result.plan is not None:
        _write_json(out / "plan.json", plan_to_dict(result.plan))
    if result.explanation is not None:
        (out / "explanation.txt").write_text(result.explanation + "\n", "utf-8")
    if result.baseline is not None:
        (out / "baseline.txt").write_text(result.baseline + "\n", "utf-8")
    if result.comparison is not None:
        _write_json(out / "comparison.json", comparison_to_dict(result.comparison))
    runlog.write(out / "runlog.jsonl")


def _render_salience_text(payload: dict) -> str:
    lines = [f"scorer: {payload['scorer_id']}", "weights:"]
    for dim in Dimension:
        lines.append(f"  {dim.value:<24} {payload['weights'][dim.value]:.4f}")
    lines.append("dominant: " + ", ".join(payload["dominant"]))
    return "\n".join(lines)


def _render_ranking_text(payload: dict) -> str:
    lines = []
    for position, entry in enumerate(payload["entries"], start=1):
        lines.append(f"{position}. {entry['candidate_id']}  composite={entry['composite']:.4f}")
        for dim in Dimension:
            evidence = entry["evidence"][dim.value]
            suffix = f"  ({'; '.join(evidence)})" if evidence else ""
            lines.append(f"   {dim.value:<24} {entry['scores'][dim.value]:.4f}{suffix}")
    if payload["excluded"]:
        lines.append("excluded:")
        for exclusion in payload["excluded"]:
            lines.append(f"  {exclusion['candidate_id']}: {exclusion['reason']}")
    if not lines:
        lines.append("(no entries)")
    return "\n".join(lines)


def _render_comparison_text(payload: dict) -> str:
    lines = []
    for side in ("appraisal", "baseline"):
        report = payload[side]
        names = ", ".join(report["dimensions"]) if report["dimensions"] else "(none)"
        lines.append(
            f"{side}: mentions dimensions {names}; "
            f"evidence strings found: {len(report['evidence'])}; "
            f"length {report['length']}"
        )
    return "\n".join(lines)


def cmd_salience(args: argparse.Namespace, cfg: RunConfig) -> int:
    profile = load_profile(_require(cfg.profile_path, "--profile"))
    query = Query(text=_require(args.query, "--query"))
    data = load_engine_data(cfg)
    _, salience = salience_stage(profile, query, data, cfg)
    payload = salience_to_dict(salience)
    out = _out_dir(cfg)
    if out is not None:
        _write_json(out / "salience.json", payload)
    if cfg.format == FORMAT_JSON:
        _dump_json(payload, sys.stdout)
    else:
        print(_render_salience_text(payload))
    return 0


def _run_inputs(args: argparse.Namespace, cfg: RunConfig, **wants) -> tuple[PipelineResult, RunLog]:
    """Run the pipeline on the profile, query and candidates the flags name."""
    profile = load_profile(_require(cfg.profile_path, "--profile"))
    query = Query(text=_require(args.query, "--query"))
    candidates = load_candidates(_require(cfg.candidates_path, "--candidates"))
    runlog = RunLog()
    result = run_pipeline(profile, query, candidates, load_engine_data(cfg), cfg, runlog, **wants)
    return result, runlog


def cmd_rank(args: argparse.Namespace, cfg: RunConfig) -> int:
    result, _ = _run_inputs(
        args, cfg, want_appraisal=False, want_baseline=False, want_compare=False
    )
    out = _out_dir(cfg)
    if out is not None:
        _write_json(out / "salience.json", salience_to_dict(result.salience))
        _write_json(out / "ranking.json", result.ranked, write_ranking_json)
    if cfg.format == FORMAT_JSON:
        write_ranking_json(result.ranked, sys.stdout)
    else:
        print(_render_ranking_text(ranking_to_dict(result.ranked)))
    return 0


def cmd_explain(args: argparse.Namespace, cfg: RunConfig) -> int:
    want_compare = bool(args.compare)
    baseline_only = bool(args.baseline) and not want_compare
    result, runlog = _run_inputs(
        args, cfg,
        want_appraisal=not baseline_only,
        want_baseline=bool(args.baseline) or want_compare,
        want_compare=want_compare,
    )
    out = _out_dir(cfg)
    if out is not None:
        write_artifacts(out, result, runlog)
    if want_compare:
        payload = {
            "appraisal": result.explanation,
            "baseline": result.baseline,
            "comparison": comparison_to_dict(result.comparison),
        }
        if cfg.format == FORMAT_JSON:
            _dump_json(payload, sys.stdout)
        else:
            print("=== appraisal explanation ===")
            print(result.explanation)
            print("=== baseline explanation ===")
            print(result.baseline)
            print("=== comparison ===")
            print(_render_comparison_text(payload["comparison"]))
        return 0
    text = result.baseline if baseline_only else result.explanation
    mode = "baseline" if baseline_only else "appraisal"
    if cfg.format == FORMAT_JSON:
        _dump_json({"mode": mode, "explanation": text}, sys.stdout)
    else:
        print(text)
    return 0


def cmd_scenario(args: argparse.Namespace, cfg: RunConfig) -> int:
    fixture = load_fixture(args.name)
    data = load_engine_data(cfg)
    runlog = RunLog()
    result = run_pipeline(
        fixture.profile, fixture.query, list(fixture.candidates), data, cfg, runlog,
        want_appraisal=True, want_baseline=True, want_compare=False,
    )
    out = _out_dir(cfg, Path("appraisal-runs") / fixture.name)
    write_artifacts(out, result, runlog)
    computed = frozenset(result.salience.dominant)
    passed = computed == fixture.expected_dominant
    print(f"scenario {fixture.name}: {'PASS' if passed else 'FAIL'}")
    print("  dominant: " + ", ".join(dim.value for dim in result.salience.dominant))
    print("  expected: " + ", ".join(sorted(dim.value for dim in fixture.expected_dominant)))
    print(f"  artifacts: {out}")
    return 0 if passed else 1


def cmd_schemas(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.name and args.name not in SCHEMAS:
        raise InputError(f"unknown schema {args.name!r}; available: {', '.join(sorted(SCHEMAS))}")
    _dump_json(SCHEMAS[args.name] if args.name else SCHEMAS, sys.stdout)
    return 0


COMMANDS = {
    "salience": cmd_salience,
    "rank": cmd_rank,
    "explain": cmd_explain,
    "scenario": cmd_scenario,
    "schemas": cmd_schemas,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        cfg = _resolve_config(args)
        code = COMMANDS[args.command](args, cfg)
        sys.stdout.flush()  # a reader that has gone is found here, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads the rest: say nothing, and send what is still buffered
        # to devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Run ``main`` and end the process with its exit code; see the module docstring."""
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
