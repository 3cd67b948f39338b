"""Shared HTTP plumbing for the remote embedding and chat backends.

One retry policy covers both: up to 5 attempts, exponential backoff with
delays 0.5 * 2**(attempt-1) seconds, retrying on transport errors,
timeouts, 429 and 5xx. At most ``MAX_IN_FLIGHT`` (4) requests are in
flight at once across every thread; a request waiting out its backoff
holds no slot. API keys come from the environment and are never echoed
into errors or logs.

``requests`` is imported by ``post_json`` on the first remote request, so
the local embedder and the mock chat backends never load the HTTP stack.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Optional

MAX_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_FACTOR = 2.0
REQUEST_TIMEOUT_SECONDS = 60.0

# remote requests in flight at once across every worker thread; the
# semaphore is held only for the request itself, never for the backoff sleep
MAX_IN_FLIGHT = 4
_in_flight = threading.Semaphore(MAX_IN_FLIGHT)


class TransportError(RuntimeError):
    """Remote request failed after exhausting retries."""


class MissingApiKey(TransportError):
    pass


def backoff_delays(attempts: int = MAX_ATTEMPTS):
    """Delays slept between attempt n and n+1 (length attempts - 1)."""
    return [BACKOFF_BASE_SECONDS * BACKOFF_FACTOR**i for i in range(attempts - 1)]


def resolve_api_key(key_env: Optional[str]) -> Optional[str]:
    if not key_env:
        return None
    value = os.environ.get(key_env)
    if not value:
        raise MissingApiKey(f"environment variable {key_env!r} is not set")
    return value


def post_json(
    url: str,
    body: dict,
    *,
    api_key: Optional[str] = None,
    sleep: Optional[Callable[[float], None]] = None,
    post: Optional[Callable[..., Any]] = None,
) -> tuple[dict, int]:
    """POST a JSON body, retrying per the module policy.

    Returns (parsed response body, attempts used). ``sleep`` and ``post``
    are injectable for tests. The key value is never interpolated into
    error messages.
    """
    import requests

    if sleep is None:
        sleep = time.sleep
    if post is None:
        post = requests.post
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error = "no attempt made"
    delays = backoff_delays(MAX_ATTEMPTS)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            with _in_flight:
                resp = post(url, json=body, headers=headers, timeout=REQUEST_TIMEOUT_SECONDS)
            status = getattr(resp, "status_code", 0)
            if status == 429 or status >= 500:
                last_error = f"status {status}"
            elif status >= 400:
                raise TransportError(f"request to {url} failed with status {status}")
            else:
                try:
                    return resp.json(), attempt
                except (ValueError, RecursionError):
                    last_error = "malformed JSON body"
        except requests.RequestException as exc:
            last_error = f"transport error: {type(exc).__name__}"
        if attempt < MAX_ATTEMPTS:
            sleep(delays[attempt - 1])
    raise TransportError(f"request to {url} failed after {MAX_ATTEMPTS} attempts ({last_error})")
