"""HTTP plumbing for the remote chat backend.

One retry policy covers every request: up to 5 attempts, exponential
backoff with delays 0.5 * 2**(attempt-1) seconds, retrying on transport
errors, timeouts, 429 and 5xx. Any other status outside 2xx fails at
once. At most ``MAX_IN_FLIGHT`` (4) requests are in flight at once across
every thread; a request waiting out its backoff holds no slot. API keys
come from the environment and are never echoed into errors or logs.

Requests go through the standard library's ``urllib.request``, one
connection per request, and follow no redirect: a 3xx reply fails at
once like any other status outside 2xx, so a request and its API key
never go anywhere but the configured endpoint. ``send`` imports
``urllib.request`` on the first remote request, so the mock chat
backends never load the HTTP stack. TLS uses
``ssl.create_default_context()`` (the system CA store, or
``SSL_CERT_FILE``), and proxies come from ``http_proxy``, ``https_proxy``
and ``no_proxy``.
"""

from __future__ import annotations

import functools
import os
import re
import threading
import time
from json import dumps, loads
from typing import Any, Callable, Dict, NamedTuple, Optional
from urllib.parse import urlsplit

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


class Reply(NamedTuple):
    """A reply's status and undecoded body."""

    status_code: int
    body: bytes

    def json(self) -> Any:
        return loads(self.body)


@functools.cache
def _opener():
    """``urlopen``'s opener, except that it follows no redirect. urllib would
    resend a POST answered by a 301, 302 or 303 as a GET, with every header,
    the ``Authorization`` one too, to whatever host or scheme the
    ``Location`` names. Here every 3xx reply raises ``HTTPError``."""
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None

    return urllib.request.build_opener(NoRedirect)


def is_http_url(url: str) -> bool:
    """Whether urllib can send a request to ``url``, the only kind a request
    goes to: an http(s) URL (its opener would also read file:, data: and
    ftp: URLs) that ``urlsplit`` reads with a host, a valid port and no user
    info (urllib would take it for part of the host), whose path and query
    are ASCII (http.client sends its request line in ASCII; it IDNA-encodes
    a host, so the host must be one IDNA can encode, and a fragment is
    never sent), and with no character that http.client refuses
    (U+0000-U+0020, U+007F), looked for in ``url`` itself, since
    ``urlsplit`` drops tabs and newlines."""
    try:
        parts = urlsplit(url)  # raises ValueError on a bracket left open
        parts.port  # and on a port out of range or not a number
        # UnicodeError, a ValueError, on an empty label or one over 63 characters
        (parts.hostname or "").encode("idna")
    except ValueError:
        return False
    return (
        parts.scheme in ("http", "https") and bool(parts.hostname) and "@" not in parts.netloc
        and (parts.path + parts.query).isascii() and not re.search(r"[\x00-\x20\x7f]", url)
    )


def send(url: str, *, json: Any, headers: Dict[str, str], timeout: float) -> Reply:
    """POST ``json`` to an http(s) ``url`` and read the whole reply.

    The body is ``json.dumps(json, allow_nan=False)`` in UTF-8. A status
    outside 2xx, a redirect's included, is returned, not raised or
    followed. A failure to send or receive raises ``OSError`` (a
    ``URLError`` wraps the socket's error) or ``http.client.HTTPException``.
    """
    import urllib.error
    import urllib.request

    if not is_http_url(url):
        raise urllib.error.URLError("not an http(s) URL")
    data = dumps(json, allow_nan=False).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with _opener().open(request, timeout=timeout) as resp:
            return Reply(resp.status, resp.read())
    except urllib.error.HTTPError as exc:
        exc.close()
        return Reply(exc.code, b"")


def _error_name(exc: BaseException) -> str:
    """The exception's type name; a ``URLError`` is named by the error it wraps."""
    reason = getattr(exc, "reason", None)
    return type(reason if isinstance(reason, BaseException) else exc).__name__


def backoff_delays(attempts: int = MAX_ATTEMPTS):
    """Delays slept between attempt n and n+1 (length attempts - 1)."""
    return [BACKOFF_BASE_SECONDS * BACKOFF_FACTOR**i for i in range(attempts - 1)]


def resolve_api_key(key_env: Optional[str]) -> Optional[str]:
    """The API key in the environment variable ``key_env``, if one is named. A
    key that is unset, empty, or holds a character no request header can carry
    raises ``MissingApiKey``, whose message names the variable, not the key."""
    if not key_env:
        return None
    value = os.environ.get(key_env)
    if not value:
        raise MissingApiKey(f"environment variable {key_env!r} is not set")
    if re.search(r"[^\x20-\x7e\xa0-\xff]", value):
        raise MissingApiKey(f"environment variable {key_env!r} holds a control character "
                            "or one outside Latin-1")
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
    are injectable for tests; ``post`` defaults to ``send``. The key value
    is never interpolated into error messages.
    """
    import http.client

    if sleep is None:
        sleep = time.sleep
    if post is None:
        post = send
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
            elif not 200 <= status < 300:
                raise TransportError(f"request to {url} failed with status {status}")
            else:
                try:
                    return resp.json(), attempt
                except (ValueError, RecursionError):
                    last_error = "malformed JSON body"
        # ValueError: a request http.client refuses that ``is_http_url`` let through
        except (OSError, ValueError, http.client.HTTPException) as exc:
            last_error = f"transport error: {_error_name(exc)}"
        if attempt < MAX_ATTEMPTS:
            sleep(delays[attempt - 1])
    raise TransportError(f"request to {url} failed after {MAX_ATTEMPTS} attempts ({last_error})")
