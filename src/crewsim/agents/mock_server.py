"""In-process mock chat-completion server for tests and offline demos.

The server speaks the same wire shape as the real adapter expects. Behavior
is a callable ``(payload, request_index) -> (status, body)``, or
``(status, body, headers)`` to send extra headers such as ``Retry-After``,
so tests can script failures, malformed replies, and canned completions.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

Handler = Callable[[dict, int], tuple]


def completion_body(text: str) -> dict:
    """A well-formed single-choice completion reply."""
    return {"choices": [{"message": {"content": text}}]}


def static_completion(text: str) -> Handler:
    return lambda payload, index: (200, completion_body(text))


def scripted_sequence(responses: list[tuple]) -> Handler:
    """Replay ``responses`` in order; the last one repeats forever."""

    def handle(payload: dict, index: int) -> tuple:
        return responses[min(index, len(responses) - 1)]

    return handle


class MockChatServer:
    """Threaded localhost server; use as a context manager.

    Every request payload is recorded in ``requests`` (in arrival order) so
    tests can assert on prompts and retry schedules.
    """

    def __init__(self, handler: Handler):
        self.handler = handler
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class _RequestHandler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                try:
                    payload = json.loads(self.rfile.read(length) or b"{}")
                except json.JSONDecodeError:
                    payload = {}
                with outer._lock:
                    index = len(outer.requests)
                    outer.requests.append(payload)
                status, body, *extra = outer.handler(payload, index)
                data = body if isinstance(body, (bytes, str)) else json.dumps(body)
                if isinstance(data, str):
                    data = data.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt, *args) -> None:  # silence stderr
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _RequestHandler)
        # ``shutdown`` waits for the serve loop's next poll; a short poll
        # lets ``stop`` return at once instead of after up to half a second.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def start(self) -> MockChatServer:
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> MockChatServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
