"""Append-only log of realizer calls, persisted as JSONL for auditability."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


class RunRecord(NamedTuple):
    mode: str
    realizer: str
    response: str
    prompt: dict | None = None
    fallback: bool = False
    started_at: str = ""
    finished_at: str = ""

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "realizer": self.realizer,
            "fallback": self.fallback,
            "prompt": self.prompt,
            "response": self.response,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


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
            response=response,
            prompt=prompt,
            fallback=fallback,
            started_at=started_at or utc_timestamp(),
            finished_at=utc_timestamp(),
        )
        self.records.append(entry)
        return entry

    def write(self, path: str | Path) -> None:
        lines = [json.dumps(r.to_dict(), ensure_ascii=False) for r in self.records]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
