"""Local stub of the entailment and chat services, with a seeded fault schedule.

One ``http.server.HTTPServer`` on one thread serves both paths. Faults are
injected by reply (HTTP 503, a non-JSON body, a JSON body of the wrong shape)
or by pointing a service at a port that is bound but not listening, so the
connection is refused at once. No reply ever sleeps: the engine's remote
timeout is a fixed 10 s, and one stall would swamp the run.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

OK = "ok"
HTTP_503 = "503"
NON_JSON = "non-json"
WRONG_SHAPE = "wrong-shape"
CLOSED = "closed"

# One block of operation plans: (entailment fault, (appraisal chat, baseline chat)).
# Every block holds the same faults, so each share is fixed up to the last,
# partial block; the seed only shuffles the order within a block. No block
# sends a malformed entailment reply, which the engine treats as fatal even
# with fallback on: those go to the probes below instead.
BLOCK = (
    ((OK, (OK, OK)),) * 8
    + ((HTTP_503, (OK, OK)),) * 2
    + ((CLOSED, (OK, OK)),) * 2
    + ((OK, (HTTP_503, OK)),) * 2
    + ((OK, (OK, NON_JSON)),) * 2
    + ((OK, (WRONG_SHAPE, OK)),) * 2
    + ((OK, (CLOSED, CLOSED)),)
    + ((HTTP_503, (NON_JSON, WRONG_SHAPE)),)
)

# Plans that show how a malformed entailment reply is handled.
PROBES = ((NON_JSON, (OK, OK)), (WRONG_SHAPE, (OK, OK)))

_SCORES = (0.9, 0.7, 0.3, 0.95, 0.2, 0.1)


def fault_schedule(seed: int):
    """Endless operation plans for ``seed``: BLOCK after BLOCK, each shuffled."""
    rng = random.Random(seed)
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        yield from block


def _reply(path: str, fault: str, payload: dict) -> tuple[int, str]:
    if fault == HTTP_503:
        return 503, json.dumps({"error": "service unavailable"})
    if fault == NON_JSON:
        return 200, "<html><body>upstream error</body></html>"
    if path == "/nli":
        if fault == WRONG_SHAPE:
            return 200, json.dumps({"result": "entailment"})
        hypotheses = payload.get("hypotheses", [])
        shift = len(payload.get("premise", "")) % len(_SCORES)
        scores = [
            {"dimension": hyp["dimension"], "entailment": _SCORES[(i + shift) % len(_SCORES)]}
            for i, hyp in enumerate(hypotheses)
        ]
        return 200, json.dumps({"scores": scores})
    if fault == WRONG_SHAPE:
        return 200, json.dumps({"choices": []})
    user = payload.get("messages", [{}, {}])[-1].get("content", "")
    return 200, json.dumps(
        {"choices": [{"message": {"content": f"Stub realization of {len(user)} prompt characters."}}]}
    )


class StubServer:
    """The stub's server, its thread and the refused port; use as a context manager."""

    def __init__(self) -> None:
        self.plan: tuple[str, tuple[str, str]] = (OK, (OK, OK))
        self.chat_index = 0
        self.served: dict[str, int] = {}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                if self.path == "/nli":
                    fault = stub.plan[0]
                else:
                    fault = stub.plan[1][min(stub.chat_index, 1)]
                    stub.chat_index += 1
                key = f"{self.path[1:]}:{fault}"
                stub.served[key] = stub.served.get(key, 0) + 1
                status, body = _reply(self.path, fault, payload)
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        # Bound but never listening: connecting to it is refused immediately.
        self._refused = socket.socket()
        self._refused.bind(("127.0.0.1", 0))
        base = f"http://127.0.0.1:{self._server.server_address[1]}"
        refused = f"http://127.0.0.1:{self._refused.getsockname()[1]}"
        self.urls = {
            "nli": (f"{base}/nli", f"{refused}/nli"),
            "chat": (f"{base}/chat", f"{refused}/chat"),
        }

    def begin(self, plan: tuple[str, tuple[str, str]]) -> dict[str, str]:
        """Arm ``plan`` for the next operation; returns the service URLs it uses."""
        self.plan = plan
        self.chat_index = 0
        return {
            "nli": self.urls["nli"][plan[0] == CLOSED],
            "chat": self.urls["chat"][CLOSED in plan[1]],
        }

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._refused.close()
        self._thread.join(timeout=5)
