"""Throwaway HTTP stubs for exercising the remote-service protocols."""

import json
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@contextmanager
def stub_server(respond, delay=0.0):
    """Serve POSTs with ``respond(payload) -> (status, body)`` on a free port.

    ``body`` may be a dict (sent as JSON) or a raw string. Received payloads
    are collected on the yielded server as ``server.requests``. Each reply
    waits ``delay`` seconds first; a reply still waiting when the stub shuts
    down is never sent, so a slow stub does not hold up the test.
    """
    requests_seen = []
    headers_seen = []
    stopping = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            requests_seen.append(payload)
            headers_seen.append(dict(self.headers))
            if stopping.wait(delay):
                return
            status, body = respond(payload)
            raw = body if isinstance(body, str) else json.dumps(body)
            data = raw.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.requests = requests_seen
    server.headers = headers_seen
    server.url = f"http://127.0.0.1:{server.server_address[1]}/"
    # A short poll interval keeps shutdown() from waiting up to 0.5 s per stub.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        stopping.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def dead_url() -> str:
    """A URL on a port that nothing is listening on."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}/"


def nli_response_for(payload, scores=None, reverse=False, drop_last=False):
    """Build a keyed entailment response mirroring the request's hypotheses."""
    hypotheses = payload["hypotheses"]
    if scores is None:
        scores = [0.9, 0.7, 0.3, 0.95, 0.2, 0.1][: len(hypotheses)]
    entries = [
        {"dimension": hyp["dimension"], "entailment": score}
        for hyp, score in zip(hypotheses, scores)
    ]
    if drop_last:
        entries = entries[:-1]
    if reverse:
        entries = list(reversed(entries))
    return {"scores": entries}


def chat_response(text):
    return {"choices": [{"message": {"content": text}}]}
