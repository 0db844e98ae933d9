"""Chat adapter against the bundled mock server: wiring, retries, failures."""

from __future__ import annotations

import base64
import json
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from crewsim.agents.chat import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    ChatAgent,
    ChatClient,
    ChatEndpointConfig,
    chat_complete,
)
from crewsim.agents.mock_server import (
    MockChatServer,
    completion_body,
    scripted_sequence,
    static_completion,
)
from crewsim.core.types import GameConfig, Role
from crewsim.engine.engine import build_observation, new_game


def endpoint(url, retries=2):
    return ChatEndpointConfig(base_url=url, model="test-model", timeout=5.0, max_retries=retries)


def test_round_trip_returns_completion():
    with MockChatServer(static_completion("hello from the model")) as server:
        assert chat_complete(endpoint(server.url), "ping") == "hello from the model"
        payload = server.requests[0]
        assert payload["model"] == "test-model"
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]
        assert payload["messages"][1]["content"] == "ping"
        assert "temperature" in payload


def test_retries_through_transient_500s():
    script = scripted_sequence(
        [(500, {"error": "boom"}), (500, {"error": "boom"}), (200, completion_body("ok"))]
    )
    with MockChatServer(script) as server:
        assert chat_complete(endpoint(server.url, retries=2), "x") == "ok"
        assert len(server.requests) == 3


def test_exhausted_retries_return_empty():
    with MockChatServer(lambda payload, i: (500, {"error": "down"})) as server:
        assert chat_complete(endpoint(server.url, retries=2), "x") == ""
        assert len(server.requests) == 3  # max_retries=2 means 3 attempts


def test_client_error_is_not_retried():
    with MockChatServer(lambda payload, i: (403, {"error": "denied"})) as server:
        assert chat_complete(endpoint(server.url), "x") == ""
        assert len(server.requests) == 1


def test_malformed_reply_body_is_retried_then_empty():
    with MockChatServer(lambda payload, i: (200, {"unexpected": []})) as server:
        assert chat_complete(endpoint(server.url, retries=1), "x") == ""
        assert len(server.requests) == 2


def test_config_validation_fails_fast():
    with pytest.raises(ValueError):
        ChatClient(ChatEndpointConfig(base_url="ftp://nope", model="m"))
    with pytest.raises(ValueError):
        ChatClient(ChatEndpointConfig(base_url="http://x", model="m", max_retries=-1))
    with pytest.raises(ValueError):
        ChatClient(ChatEndpointConfig(base_url="http://x", model="m", timeout=0))
    with pytest.raises(ValueError):
        ChatClient(
            ChatEndpointConfig(base_url="http://x", model="m", api_key_env="CREWSIM_NO_SUCH_KEY")
        )


def test_api_key_header_sent_when_configured(monkeypatch):
    monkeypatch.setenv("CREWSIM_TEST_KEY", "sekrit")
    received = {}

    def capture(payload, index):
        return (200, completion_body("fine"))

    with MockChatServer(capture) as server:
        cfg = ChatEndpointConfig(
            base_url=server.url, model="m", timeout=5.0, api_key_env="CREWSIM_TEST_KEY"
        )
        assert ChatClient(cfg).complete("hi") == "fine"


def test_chat_agent_parses_action_and_rolls_memory():
    cfg = GameConfig(3, 1, seed=5)
    state = new_game(cfg)
    crew = next(p for p in state.players if p.role is Role.CREWMATE)
    obs = build_observation(state, crew.id)
    move_tag = next(a.tag for a in obs.legal_actions if a.kind.value == "move")

    def answer(payload, index):
        return (
            200,
            completion_body(
                f"[Condensed Memory] turn {index} notes\n[Thinking Process] hmm\n[Action] {move_tag}"
            ),
        )

    with MockChatServer(answer) as server:
        agent = ChatAgent(crew.id, crew.role, ChatClient(endpoint(server.url)))
        decided = agent.decide(obs)
        assert decided is not None
        assert decided.action.tag == move_tag
        assert agent.memory == "turn 0 notes"
        assert agent.last_exchange["raw"].startswith("[Condensed Memory]")
        # the rolled memory is included in the next prompt
        agent.decide(obs)
        assert "turn 0 notes" in server.requests[1]["messages"][1]["content"]


def test_chat_agent_memory_window_can_be_disabled():
    cfg = GameConfig(3, 1, seed=5)
    state = new_game(cfg)
    crew = next(p for p in state.players if p.role is Role.CREWMATE)
    obs = build_observation(state, crew.id)
    move_tag = next(a.tag for a in obs.legal_actions if a.kind.value == "move")
    reply = f"[Condensed Memory] sticky note\n[Thinking Process] t\n[Action] {move_tag}"
    with MockChatServer(static_completion(reply)) as server:
        agent = ChatAgent(crew.id, crew.role, ChatClient(endpoint(server.url)), carry_memory=False)
        agent.decide(obs)
        agent.decide(obs)
        assert agent.memory == ""
        assert "sticky note" not in server.requests[1]["messages"][1]["content"]


def test_chat_agent_malformed_reply_abstains():
    cfg = GameConfig(3, 1, seed=5)
    state = new_game(cfg)
    crew = next(p for p in state.players if p.role is Role.CREWMATE)
    obs = build_observation(state, crew.id)
    with MockChatServer(static_completion("no sections here")) as server:
        agent = ChatAgent(crew.id, crew.role, ChatClient(endpoint(server.url)))
        assert agent.decide(obs) is None
        assert agent.vote(obs) is None


def test_rate_limit_is_retried_with_capped_jittered_backoff():
    waits = []
    script = scripted_sequence([(429, {"error": "slow down"})] * 3 + [(200, completion_body("ok"))])
    with MockChatServer(script) as server:
        client = ChatClient(endpoint(server.url, retries=3), sleep=waits.append)
        assert client.complete("x") == "ok"
        assert len(server.requests) == 4
    assert len(waits) == 3
    for retry, wait in enumerate(waits):
        assert 0.0 <= wait <= min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**retry)


def test_server_errors_back_off_and_exhaust_to_empty():
    waits = []
    with MockChatServer(lambda payload, i: (503, {"error": "busy"})) as server:
        client = ChatClient(endpoint(server.url, retries=2), sleep=waits.append)
        assert client.complete("x") == ""
        assert len(server.requests) == 3
    assert len(waits) == 2


def test_numeric_retry_after_is_honoured():
    waits = []
    script = scripted_sequence(
        [
            (429, {"error": "slow down"}, {"Retry-After": "3"}),
            (503, {"error": "busy"}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            (200, completion_body("ok")),
        ]
    )
    with MockChatServer(script) as server:
        client = ChatClient(endpoint(server.url, retries=2), sleep=waits.append)
        assert client.complete("x") == "ok"
    assert waits[0] == 3.0
    assert 0.0 <= waits[1] <= BACKOFF_BASE_S * 2  # a date is not numeric: plain backoff


def test_first_attempt_does_not_wait():
    waits = []
    with MockChatServer(static_completion("fine")) as server:
        assert ChatClient(endpoint(server.url), sleep=waits.append).complete("x") == "fine"
    assert waits == []


def test_max_concurrency_is_validated():
    assert ChatEndpointConfig(base_url="http://x", model="m").max_concurrency == 8
    with pytest.raises(ValueError):
        ChatClient(ChatEndpointConfig(base_url="http://x", model="m", max_concurrency=0))


def test_each_thread_gets_its_own_connection():
    client = ChatClient(ChatEndpointConfig(base_url="http://x", model="m"))
    connections = []
    thread = threading.Thread(target=lambda: connections.append(client.connection))
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert client.connection is client.connection
    assert connections[0] is not client.connection


def test_mock_server_stops_promptly_after_a_request():
    server = MockChatServer(static_completion("ok")).start()
    try:
        assert chat_complete(endpoint(server.url), "x") == "ok"
    finally:
        start = time.perf_counter()
        server.stop()
        elapsed = time.perf_counter() - start
    assert elapsed < 0.25


class KeepAliveServer(ThreadingHTTPServer):
    """HTTP/1.1 endpoint that records the client address of every request.

    With ``close_after_reply`` it closes each connection after one reply
    without announcing it (no ``Connection: close``), as a server does when
    it drops an idle keep-alive connection; ``closed`` is released once the
    socket is shut, so a test can wait for that before the next call.
    """

    def __init__(self, close_after_reply: bool = False):
        self.clients: list[tuple] = []
        self.received: list[tuple[str, str, dict]] = []  # (method, target, headers)
        self.close_after_reply = close_after_reply
        self.closed = threading.Semaphore(0)

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self.server.clients.append(self.client_address)
                self.server.received.append((self.command, self.path, dict(self.headers)))
                data = json.dumps(completion_body("ok")).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = self.server.close_after_reply

            def do_CONNECT(self) -> None:  # noqa: N802 - http.server API
                self.server.received.append((self.command, self.path, dict(self.headers)))
                self.send_response(502)
                self.send_header("Content-Length", "0")
                self.end_headers()
                self.close_connection = True

            def log_message(self, fmt, *args) -> None:
                pass

        super().__init__(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.release()

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> KeepAliveServer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


def test_sequential_calls_reuse_one_keep_alive_connection():
    waits = []
    with KeepAliveServer() as server:
        with closing(ChatClient(endpoint(server.url), sleep=waits.append)) as client:
            assert [client.complete("x") for _ in range(5)] == ["ok"] * 5
    assert len(server.clients) == 5
    assert len(set(server.clients)) == 1
    assert waits == []


def test_dropped_keep_alive_connection_is_reopened_without_a_retry():
    waits = []
    with KeepAliveServer(close_after_reply=True) as server:
        replies = []
        with closing(ChatClient(endpoint(server.url), sleep=waits.append)) as client:
            for _ in range(5):
                replies.append(client.complete("x"))
                assert server.closed.acquire(timeout=5)  # the server has dropped the connection
    assert replies == ["ok"] * 5
    assert len(set(server.clients)) == 5
    assert waits == []


def test_close_shuts_every_thread_connection_and_reuse_reconnects():
    with KeepAliveServer() as server:
        client = ChatClient(endpoint(server.url))
        worker = threading.Thread(target=client.complete, args=("x",))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert client.complete("x") == "ok"
        assert len(set(server.clients)) == 2
        closer = threading.Thread(target=client.close)  # from a third thread
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert server.closed.acquire(timeout=5) and server.closed.acquire(timeout=5)
        assert client.connection.sock is None
        assert client.complete("x") == "ok"  # this thread reconnects
        client.close()
    assert len(set(server.clients)) == 3


def _clear_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def test_http_proxy_from_the_environment_is_used(monkeypatch):
    _clear_proxy_env(monkeypatch)
    with MockChatServer(static_completion("via proxy")) as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url.split("/v1/")[0])
        with closing(ChatClient(endpoint("http://chat.invalid/v1/chat/completions", retries=0))) as client:
            assert client.complete("x") == "via proxy"
        assert proxy.requests[0]["messages"][1]["content"] == "x"


def test_proxy_credentials_and_https_tunnel(monkeypatch):
    _clear_proxy_env(monkeypatch)
    with KeepAliveServer() as proxy:
        host, port = proxy.server_address
        for name in ("HTTP_PROXY", "HTTPS_PROXY"):
            monkeypatch.setenv(name, f"http://user:p%40ss@{host}:{port}")
        with closing(ChatClient(endpoint("http://chat.invalid:8000/v1/chat/completions", retries=0))) as plain:
            assert plain.complete("x") == "ok"
        with closing(ChatClient(endpoint("https://chat.invalid/v1/chat/completions", retries=0))) as tunneled:
            assert tunneled.complete("x") == ""  # this proxy refuses CONNECT
    auth = "Basic " + base64.b64encode(b"user:p@ss").decode("ascii")
    (post, post_target, post_headers), (connect, connect_target, connect_headers) = proxy.received
    assert (post, post_target) == ("POST", "http://chat.invalid:8000/v1/chat/completions")
    assert post_headers["Proxy-Authorization"] == auth
    assert (connect, connect_target) == ("CONNECT", "chat.invalid:443")
    assert connect_headers["Proxy-Authorization"] == auth


def test_unsupported_proxy_scheme_fails_at_construction(monkeypatch):
    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(ValueError):
        ChatClient(endpoint("http://chat.invalid/v1/chat/completions"))


def test_no_proxy_host_is_reached_directly(monkeypatch):
    _clear_proxy_env(monkeypatch)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        closed_port = sock.getsockname()[1]
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port}")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    waits = []
    with MockChatServer(static_completion("direct")) as server:
        client = ChatClient(endpoint(server.url, retries=0), sleep=waits.append)
        assert client.complete("x") == "direct"
        assert len(server.requests) == 1
    assert waits == []


def test_pipeline_imports_load_neither_requests_nor_urllib_request():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import crewsim.harness.cli, crewsim.harness.analysis, crewsim.harness.runner, crewsim.harness.annotator; "
        "print(sorted({'requests', 'urllib.request'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
