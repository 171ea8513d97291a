"""Output checks: invariants every ranking must hold, whatever its bytes.

The checks are invariants rather than byte goldens, because planned fixes
change outputs on purpose. Each returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

from appraisal_explainer.registry import Dimension
from appraisal_explainer.schemas import RANKING_OUTPUT_SCHEMA

_RANKING_VALIDATOR = jsonschema.Draft202012Validator(RANKING_OUTPUT_SCHEMA)

# Composites are float sums of weight x score, so they are compared with the
# same tolerance the engine's own tests allow a weight sum: the weights 0.4,
# 0.2, 0.3 and 0.1 add up to 1.0000000000000002 left to right, and a
# candidate scoring 1.0 on every weighted dimension gets that composite.
TOLERANCE = 1e-9

SCENARIO_ARTIFACTS = (
    "salience.json", "ranking.json", "plan.json",
    "explanation.txt", "baseline.txt", "runlog.jsonl",
)


def check_ranking(
    doc, input_ids, weights: dict[str, float] | None = None, above_one: list[str] | None = None
) -> list[str]:
    """Check a ranking document as ``rank --format json`` prints it.

    ``input_ids`` are the submitted candidate ids. ``weights`` maps dimension
    id to salience weight; when given, each composite must equal the
    weighted sum of its scores. Composites above 1.0 by no more than the
    tolerance pass, and their ids are appended to ``above_one`` when given.
    """
    error = jsonschema.exceptions.best_match(_RANKING_VALIDATOR.iter_errors(doc))
    if error is not None:
        return [f"ranking fails RANKING_OUTPUT_SCHEMA: {error.message}"]
    problems = []
    entries = doc["entries"]
    keys = [(-entry["composite"], entry["candidate_id"]) for entry in entries]
    if keys != sorted(keys):
        problems.append("entries are not sorted by (-composite, candidate_id)")
    ids = [entry["candidate_id"] for entry in entries]
    ids += [exclusion["candidate_id"] for exclusion in doc["excluded"]]
    if len(ids) != len(set(ids)) or set(ids) != set(input_ids):
        problems.append("entry and excluded ids do not split the input ids exactly")
    for entry in entries:
        composite = entry["composite"]
        if not 0.0 <= composite <= 1.0 + TOLERANCE:
            problems.append(f"{entry['candidate_id']}: composite {composite} outside [0, 1]")
        if weights is not None:
            total = 0.0
            for dim in Dimension:
                total += weights[dim.value] * entry["scores"][dim.value]
            if abs(total - composite) > TOLERANCE:
                problems.append(
                    f"{entry['candidate_id']}: composite {composite} != weighted sum {total}"
                )
        if above_one is not None and 1.0 < composite <= 1.0 + TOLERANCE:
            above_one.append(entry["candidate_id"])
    return problems


def check_scenario(out_dir: Path, input_ids, above_one: list[str] | None = None) -> list[str]:
    """Check the artifacts one ``scenario`` run wrote to ``out_dir``."""
    missing = [name for name in SCENARIO_ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        return [f"scenario artifacts missing: {', '.join(missing)}"]
    salience = json.loads((out_dir / "salience.json").read_text("utf-8"))
    ranking = json.loads((out_dir / "ranking.json").read_text("utf-8"))
    problems = check_ranking(ranking, input_ids, salience["weights"], above_one)
    for name in ("explanation.txt", "baseline.txt"):
        if not (out_dir / name).read_text("utf-8").strip():
            problems.append(f"{name} is empty")
    return problems
