"""Append-only log of realizer calls, persisted as JSONL for auditability."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


class RunRecord(NamedTuple):
    """One realizer call, its fields in the order of a run-log line."""

    mode: str
    realizer: str
    fallback: bool
    prompt: dict | None
    response: str
    started_at: str
    finished_at: str


class RunLog:
    """The records of a run's realizer calls, in call order."""

    def __init__(self):
        self.records: list[RunRecord] = []

    def record(
        self,
        mode: str,
        realizer: str,
        response: str,
        prompt: dict | None = None,
        fallback: bool = False,
        started_at: str | None = None,
    ) -> RunRecord:
        """Append a record that finishes now and started at ``started_at``, or now."""
        entry = RunRecord(
            mode=mode,
            realizer=realizer,
            fallback=fallback,
            prompt=prompt,
            response=response,
            started_at=started_at or utc_timestamp(),
            finished_at=utc_timestamp(),
        )
        self.records.append(entry)
        return entry

    def write(self, path: str | Path) -> None:
        lines = [json.dumps(r._asdict(), ensure_ascii=False) for r in self.records]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
