"""Loopback chat-completion stub for the remote workload.

Run as its own process::

    python3 perfbench/stub_server.py --delay-ms 10

It binds ``127.0.0.1`` on a free port, prints ``port <n>`` as its first
line of output and serves until it is terminated or its standard input
closes (so it never outlives the benchmark that started it).

``POST /v1/chat/completions`` sleeps for the fixed service delay and
answers in the common chat shape. The reply kind is a pure function of
the prompt text: the first 8 bytes of its sha256, modulo 100, pick one of
four kinds with fixed shares (``REPLY_SHARES``):

  * ``echo``: the model prediction in the strict grammar;
  * ``shifted``: a strict prediction far enough from the model's to
    trigger self-correction;
  * ``salvage``: the prediction in free text, which only the salvage
    parser recovers;
  * ``unparseable``: text without a number, so the query falls back.

``GET /stats`` returns the counters: connections that carried a chat
request, chat requests, prompt tokens (``ceil(utf8_bytes / 4)`` of each
prompt) and replies per prompt kind and reply kind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# cumulative upper bounds (percent) of each reply kind
REPLY_SHARES = (("echo", 60), ("shifted", 80), ("salvage", 92), ("unparseable", 100))
PRIMARY_LINE = re.compile(r"^Model prediction: (-?\d+\.\d+)$", re.MULTILINE)
SELF_CORRECTION_MARK = "You previously proposed a correction"


def reply_kind(prompt: str) -> str:
    bucket = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "big") % 100
    for kind, upper in REPLY_SHARES:
        if bucket < upper:
            return kind
    raise AssertionError("shares must end at 100")


def reply_text(kind: str, primary: float) -> str:
    if kind == "echo":
        return f"Prediction: {primary:.4f}\nExplanation: The model prediction holds."
    if kind == "shifted":
        shifted = primary + max(1.0, 0.5 * abs(primary))
        return f"Prediction: {shifted:.4f}\nExplanation: Similar molecules score higher."
    if kind == "salvage":
        return f"I would put the value at about {primary:.4f} for this molecule."
    return "I am unable to refine this prediction."


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.prompt_tokens = 0
        self.replies = {}

    def record(self, new_connection: bool, prompt: str, prompt_kind: str, kind: str) -> None:
        with self._lock:
            self.connections += int(new_connection)
            self.requests += 1
            self.prompt_tokens += math.ceil(len(prompt.encode("utf-8")) / 4)
            key = f"{prompt_kind}.{kind}"
            self.replies[key] = self.replies.get(key, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "replies": dict(self.replies),
            }


def make_handler(counters: Counters, delay_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.chat_seen = False

        def log_message(self, format, *args):
            pass

        def _send_json(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path != "/stats":
                self._send_json(404, {"error": "not found"})
                return
            self._send_json(200, counters.snapshot())

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            prompt = body["messages"][-1]["content"]
            match = PRIMARY_LINE.search(prompt)
            if self.path != "/v1/chat/completions" or match is None:
                self._send_json(400, {"error": "expected a molcorr corrector prompt"})
                return
            kind = reply_kind(prompt)
            prompt_kind = "self_correction" if SELF_CORRECTION_MARK in prompt else "corrector"
            counters.record(not self.chat_seen, prompt, prompt_kind, kind)
            self.chat_seen = True
            time.sleep(delay_s)
            text = reply_text(kind, float(match.group(1)))
            self._send_json(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

    return Handler


class StubProcess:
    """Starts this file as a child process and reads its counters."""

    def __init__(self, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.stdin.close()  # the stub exits when its stdin closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def stats_delta(after: dict, before: dict) -> dict:
    replies = {
        key: after["replies"].get(key, 0) - before["replies"].get(key, 0)
        for key in after["replies"]
    }
    return {
        "connections": after["connections"] - before["connections"],
        "requests": after["requests"] - before["requests"],
        "prompt_tokens": after["prompt_tokens"] - before["prompt_tokens"],
        "replies": replies,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Counters(), args.delay_ms / 1000.0))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    except KeyboardInterrupt:
        pass
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
