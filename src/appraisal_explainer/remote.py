"""HTTP clients for the entailment scorer and the chat-completion realizer.

Both clients are stateless: one blocking request per call, configurable
timeout, no shared mutable state, so concurrent calls are safe. Each imports
``requests`` when it is called, so runs that use no remote service never load it.

Each client checks its whole reply. A failure raises:

================  ====================  =====================
failure           entailment scorer     chat realizer
================  ====================  =====================
not configured    ScorerUnavailable     RealizerUnavailable
connect           ScorerUnavailable     RealizerUnavailable
timeout           ScorerUnavailable     RealizerUnavailable
HTTP 4xx or 5xx   ScorerUnavailable     RealizerUnavailable
non-JSON          ProtocolError         RealizerUnavailable
wrong shape       ProtocolError         RealizerUnavailable
partial coverage  ProtocolError         (none)
empty completion  (none)                EmptyCompletion
================  ====================  =====================

``ProtocolError`` is a ``ScorerUnavailable`` and ``EmptyCompletion`` a
``RealizerUnavailable``, so one rule covers every row: with fallback on, the
run degrades to the lexical scorer or template realizer and records that it
did; with fallback off, the command exits 1.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import EmptyCompletion, ProtocolError, RealizerUnavailable, ScorerUnavailable

NLI_URL_ENV = "APPRAISAL_NLI_URL"
LLM_URL_ENV = "APPRAISAL_LLM_URL"
LLM_MODEL_ENV = "APPRAISAL_LLM_MODEL"
LLM_KEY_ENV = "APPRAISAL_LLM_KEY"

DEFAULT_NLI_MODEL = "facebook/bart-large-mnli"
DEFAULT_LLM_MODEL = "gpt-4o"
DEFAULT_TIMEOUT_SECONDS = 10.0


class EntailmentEndpoint(NamedTuple):
    url: str
    model: str = DEFAULT_NLI_MODEL
    timeout: float = DEFAULT_TIMEOUT_SECONDS

    @classmethod
    def from_env(cls) -> "EntailmentEndpoint":
        url = os.environ.get(NLI_URL_ENV)
        if not url:
            raise ScorerUnavailable(f"entailment endpoint not configured (set {NLI_URL_ENV})")
        return cls(url=url)


class ChatEndpoint(NamedTuple):
    url: str
    model: str = DEFAULT_LLM_MODEL
    api_key: str | None = None
    temperature: float = 0.0
    timeout: float = DEFAULT_TIMEOUT_SECONDS

    @classmethod
    def from_env(cls) -> "ChatEndpoint":
        url = os.environ.get(LLM_URL_ENV)
        if not url:
            raise RealizerUnavailable(f"chat endpoint not configured (set {LLM_URL_ENV})")
        return cls(
            url=url,
            model=os.environ.get(LLM_MODEL_ENV, DEFAULT_LLM_MODEL),
            api_key=os.environ.get(LLM_KEY_ENV),
        )


def request_entailment_scores(
    endpoint: EntailmentEndpoint,
    premise: str,
    hypotheses: list[tuple[str, str]],
) -> dict[str, float]:
    """POST the premise/hypotheses payload, return scores keyed by dimension id.

    Scores are keyed, never positional: the mapping comes from the
    ``dimension`` field of each response entry regardless of order. The reply
    must score exactly the dimensions of ``hypotheses``, each once.
    """
    import requests

    payload = {
        "model": endpoint.model,
        "premise": premise,
        "hypotheses": [{"dimension": dim, "text": text} for dim, text in hypotheses],
    }
    try:
        response = requests.post(endpoint.url, json=payload, timeout=endpoint.timeout)
        response.raise_for_status()
    except requests.RequestException as exc:
        raise ScorerUnavailable(f"entailment service request failed: {exc}") from exc
    try:
        body = response.json()
    except (ValueError, RecursionError) as exc:
        raise ProtocolError("entailment service returned non-JSON body") from exc
    if not isinstance(body, dict) or not isinstance(body.get("scores"), list):
        raise ProtocolError("entailment response must be an object with a 'scores' list")
    scores: dict[str, float] = {}
    for entry in body["scores"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("dimension"), str) and "entailment" in entry):
            raise ProtocolError(f"malformed score entry: {entry!r}")
        dim = entry["dimension"]
        value = entry["entailment"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"entailment score for {dim!r} is not a number")
        if not 0.0 <= value <= 1.0:  # before float(), which overflows on a huge int
            raise ProtocolError(f"entailment score for {dim!r} outside [0, 1]: {value}")
        if dim in scores:
            raise ProtocolError(f"duplicate dimension in response: {dim!r}")
        scores[dim] = float(value)
    asked = {dim for dim, _ in hypotheses}
    if scores.keys() != asked:
        raise ProtocolError(f"entailment response covered {sorted(scores)} instead of {sorted(asked)}")
    return scores


def request_chat_completion(endpoint: ChatEndpoint, system: str, user: str) -> str:
    """Send one chat-completions request and return the completion text.

    A completion that is missing or only whitespace raises EmptyCompletion.
    """
    import requests

    payload = {
        "model": endpoint.model,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
        "temperature": endpoint.temperature,
    }
    headers = {}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    try:
        response = requests.post(
            endpoint.url, json=payload, headers=headers, timeout=endpoint.timeout
        )
        response.raise_for_status()
    except requests.RequestException as exc:
        raise RealizerUnavailable(f"chat service request failed: {exc}") from exc
    try:
        body = response.json()
        content = body["choices"][0]["message"]["content"]
    except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
        raise RealizerUnavailable(f"malformed chat response: {exc}") from exc
    if content is not None and not isinstance(content, str):
        raise RealizerUnavailable("chat completion content is not a string")
    if not (content or "").strip():
        raise EmptyCompletion("chat realizer returned an empty completion")
    return content
