"""LLM backends: a remote chat-completion endpoint plus deterministic mocks.

The mocks make the whole pipeline runnable and testable offline:

  * echo: answers with the base model's own prediction;
  * perfect oracle: answers with the true label;
  * noisy oracle: answers with the truth with probability p, else echoes;
    the coin flip is ``splitmix64(seed XOR fnv1a64(id))``, so the outcome
    depends only on (seed, id), never on call order or thread schedule;
  * scripted: a fixed id -> response map for fault-injection tests.

Every mock renders its answer in the strict response grammar. Remote
calls share the transport retry policy (5 attempts, 0.5 s base
exponential backoff) and its cap of 4 requests in flight. API keys stay
in the environment and never appear in exchanges, logs or errors.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from . import transport
from .hashing import fnv1a64, splitmix64_once
from .ingest import TaskSpec
from .parse import render_answer
from .prompt import PromptBundle


class LlmError(RuntimeError):
    pass


@dataclass(frozen=True)
class RemoteChatConfig:
    """Common chat-completion wire shape.

    Request: ``{"model", "messages": [{"role": "user", "content"}],
    "temperature"}``; the response text is read from
    ``choices[0].message.content``. The endpoint must be an http(s) URL
    that urllib can send to (``transport.is_http_url``), so a bare
    ``host:port/path``, a missing host, user info or a space is a config
    fault, not a dead endpoint that each request retries; its message shows
    a password as ``***``."""

    endpoint: str
    model: str
    key_env: Optional[str] = None
    temperature: float = 0.0

    def __post_init__(self):
        if not transport.is_http_url(self.endpoint):
            shown = re.sub(r"(//[^/?#:]*:)[^/?#]*@", r"\1***@", self.endpoint)
            raise LlmError(f"endpoint {shown!r} is not an http(s) URL")


@dataclass(frozen=True)
class MockEcho:
    pass


@dataclass(frozen=True)
class MockPerfectOracle:
    pass


@dataclass(frozen=True)
class MockNoisyOracle:
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise LlmError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class MockScripted:
    responses: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.responses, dict) or not all(
            isinstance(key, str) and isinstance(text, str) for key, text in self.responses.items()
        ):
            raise LlmError("scripted responses must map query ids to response texts")


LlmBackendConfig = Union[
    RemoteChatConfig, MockEcho, MockPerfectOracle, MockNoisyOracle, MockScripted
]


BACKEND_NAMES = {"echo": MockEcho, "perfect": MockPerfectOracle, "noisy": MockNoisyOracle,
                 "scripted": MockScripted, "remote": RemoteChatConfig}


def backend_name(cfg: LlmBackendConfig) -> str:
    return next(name for name, cls in BACKEND_NAMES.items() if type(cfg) is cls)


@dataclass(frozen=True)
class QueryMeta:
    """Per-query facts the mocks answer from."""

    id: str
    primary: Optional[float] = None
    true_label: Optional[float] = None


@dataclass(frozen=True)
class LlmExchange:
    prompt: PromptBundle
    response_text: str
    latency: float
    attempts: int


def _echo_text(task: TaskSpec, meta: QueryMeta) -> str:
    if meta.primary is None:
        raise LlmError(f"echo backend needs a primary prediction for {meta.id!r}")
    label = float(meta.primary >= 0.5) if task.is_classification else meta.primary
    return render_answer(task, label, meta.primary, "Keeping the model prediction unchanged.")


def _oracle_text(task: TaskSpec, meta: QueryMeta) -> str:
    if meta.true_label is None:
        raise LlmError(f"oracle backend needs a true label for {meta.id!r}")
    what = "label" if task.is_classification else "value"
    return render_answer(task, meta.true_label, meta.true_label, f"Recalling the reference {what}.")


def _remote_complete(cfg: RemoteChatConfig, prompt: PromptBundle) -> tuple[str, int]:
    api_key = transport.resolve_api_key(cfg.key_env)
    body = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": cfg.temperature,
    }
    payload, attempts = transport.post_json(cfg.endpoint, body, api_key=api_key)
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise LlmError("chat response missing 'choices[0].message.content'") from exc
    if not isinstance(text, str):
        raise LlmError("chat response at 'choices[0].message.content' is not text")
    return text, attempts


def complete(
    cfg: LlmBackendConfig,
    prompt: PromptBundle,
    meta: QueryMeta,
    task: TaskSpec,
) -> LlmExchange:
    """Send one prompt to the configured backend.

    Mock responses are a pure function of (config, task, query id and its
    facts); remote failures raise after the retry budget is exhausted.
    """
    start = time.perf_counter()
    attempts = 1
    if isinstance(cfg, MockEcho):
        text = _echo_text(task, meta)
    elif isinstance(cfg, MockPerfectOracle):
        text = _oracle_text(task, meta)
    elif isinstance(cfg, MockNoisyOracle):
        draw = splitmix64_once(cfg.seed ^ fnv1a64(meta.id.encode("utf-8")))
        if draw / 2.0**64 < cfg.p:
            text = _oracle_text(task, meta)
        else:
            text = _echo_text(task, meta)
    elif isinstance(cfg, MockScripted):
        if meta.id not in cfg.responses:
            raise LlmError(f"no scripted response for {meta.id!r}")
        text = cfg.responses[meta.id]
    else:
        try:
            text, attempts = _remote_complete(cfg, prompt)
        except transport.MissingApiKey:
            raise
        except transport.TransportError as exc:
            raise LlmError(str(exc)) from exc
    return LlmExchange(
        prompt=prompt,
        response_text=text,
        latency=time.perf_counter() - start,
        attempts=attempts,
    )


class AuditLog:
    """JSON-lines log of exchanges (id, kind, attempts, latency in ms,
    response text). Entering it creates or empties the file, opened
    line-buffered so every line is on disk when ``append`` returns;
    leaving it closes the file. ``run_queries`` enters it before its
    first query and appends each query's exchanges in query order."""

    def __init__(self, path):
        self.path = path

    def __enter__(self) -> AuditLog:
        self._fh = open(self.path, "w", encoding="utf-8", buffering=1)
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    def append(self, query_id: str, exchange: LlmExchange) -> None:
        line = json.dumps(
            {
                "id": query_id,
                "kind": exchange.prompt.kind.value,
                "attempts": exchange.attempts,
                "latency_ms": round(exchange.latency * 1000.0, 3),
                "response": exchange.response_text,
            },
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
