"""HTTP clients for the entailment scorer and the chat-completion realizer.

Both clients are stateless: one blocking request per call, configurable
timeout, no shared mutable state, so concurrent calls are safe. Each imports
``requests`` when it is called, so runs that use no remote service never load it.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ProtocolError, RealizerUnavailable, ScorerUnavailable

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
    def from_env(cls) -> "EntailmentEndpoint | None":
        url = os.environ.get(NLI_URL_ENV)
        if not url:
            return None
        return cls(url=url)


class ChatEndpoint(NamedTuple):
    url: str
    model: str = DEFAULT_LLM_MODEL
    api_key: str | None = None
    temperature: float = 0.0
    timeout: float = DEFAULT_TIMEOUT_SECONDS

    @classmethod
    def from_env(cls) -> "ChatEndpoint | None":
        url = os.environ.get(LLM_URL_ENV)
        if not url:
            return None
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
    ``dimension`` field of each response entry regardless of order.
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
    except ValueError as exc:
        raise ProtocolError("entailment service returned non-JSON body") from exc
    if not isinstance(body, dict) or not isinstance(body.get("scores"), list):
        raise ProtocolError("entailment response must be an object with a 'scores' list")
    scores: dict[str, float] = {}
    for entry in body["scores"]:
        if not isinstance(entry, dict) or "dimension" not in entry or "entailment" not in entry:
            raise ProtocolError(f"malformed score entry: {entry!r}")
        dim = entry["dimension"]
        value = entry["entailment"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"entailment score for {dim!r} is not a number")
        if not 0.0 <= float(value) <= 1.0:
            raise ProtocolError(f"entailment score for {dim!r} outside [0, 1]: {value}")
        if dim in scores:
            raise ProtocolError(f"duplicate dimension in response: {dim!r}")
        scores[dim] = float(value)
    return scores


def request_chat_completion(endpoint: ChatEndpoint, system: str, user: str) -> str:
    """Send one chat-completions request and return the completion text.

    The text may be empty; callers decide whether that is an error.
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
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise RealizerUnavailable(f"malformed chat response: {exc}") from exc
    if content is None:
        return ""
    if not isinstance(content, str):
        raise RealizerUnavailable("chat completion content is not a string")
    return content
