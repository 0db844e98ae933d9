"""Generic chat-completion adapter.

Wire format: HTTP POST with JSON body ``{model, messages, temperature}`` and
JSON reply ``{choices: [{message: {content}}]}``, so any hosted or local
model behind that shape works. Configuration problems (bad URL, missing API
key) fail fast at client construction; transport problems mid-game degrade
to an empty completion, which upstream code logs as an abstention.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import random
import ssl
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple
from urllib.parse import SplitResult, unquote, urlsplit

from crewsim.agents.base import Abstention, AgentResponse
from crewsim.agents.parsing import parse_response
from crewsim.agents.prompts import build_prompt, role_instructions
from crewsim.core.types import ActionKind

logger = logging.getLogger(__name__)

SYSTEM_PROMPT = "You are a player in a text-based social deduction game. Follow the rules and the response format exactly."

# Retry delays: "full jitter" exponential backoff, uniform in
# [0, min(cap, base * 2**retry)] seconds, unless the endpoint sends a numeric
# Retry-After (https://aws.amazon.com/blogs/architecture/exponential-backoff-and-jitter/).
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 8.0


@dataclass
class ChatEndpointConfig:
    base_url: str
    model: str
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.7
    api_key_env: str | None = None
    max_concurrency: int = 8  # requests in flight: classifier requests, or chat games at once

    def validate(self) -> None:
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http(s) URL, got {self.base_url!r}")
        url.port  # raises ValueError for a port that is not a number in range
        if not self.model:
            raise ValueError("model must be non-empty")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")

    def resolve_api_key(self) -> str | None:
        if not self.api_key_env:
            return None
        key = os.environ.get(self.api_key_env)
        if not key:
            raise ValueError(f"environment variable {self.api_key_env!r} is not set")
        return key

    @classmethod
    def from_file(cls, path: str | Path) -> ChatEndpointConfig:
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))


class Reply(NamedTuple):
    """One HTTP reply with its body read."""

    status: int
    headers: http.client.HTTPMessage
    body: bytes


class ChatClient:
    """Small retrying HTTP client over one endpoint config.

    ``complete`` may be called from several threads at once: each thread
    keeps one keep-alive ``http.client`` connection to the endpoint (or to
    its proxy), opened on its first request and reopened after the server
    drops it. The proxy comes from ``HTTP_PROXY``/``HTTPS_PROXY`` unless
    ``NO_PROXY`` exempts the endpoint's host, read once per client; only
    ``http://`` proxies are supported, and HTTPS goes through them with
    ``CONNECT``. HTTPS certificates are checked against the system CA
    store (``ssl.create_default_context``). Redirects are not followed.
    ``sleep`` waits between retries; tests pass a recorder instead of
    ``time.sleep``.
    """

    sleep = staticmethod(time.sleep)

    def __init__(self, config: ChatEndpointConfig, sleep=None):
        config.validate()
        self.config = config
        self.api_key = config.resolve_api_key()
        self._local = threading.local()
        if sleep is not None:
            self.sleep = sleep

        url = urlsplit(config.base_url)
        self._https = url.scheme == "https"
        self._address = (url.hostname, url.port or (443 if self._https else 80))
        self._context = ssl.create_default_context() if self._https else None
        self._proxy = _proxy_for(url)
        self._proxy_auth = _proxy_auth(self._proxy) if self._proxy else {}
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        if self._proxy and not self._https:
            # plain HTTP through a proxy names the whole URL in the request
            self._target = f"http://{url.netloc.rpartition('@')[2]}{path}"
            self._headers.update(self._proxy_auth)
        else:
            self._target = path

    @property
    def connection(self) -> http.client.HTTPConnection:
        """This thread's connection; it opens its socket on first use."""
        conn = getattr(self._local, "connection", None)
        if conn is None:
            conn = self._local.connection = self._connect()
        return conn

    def _connect(self) -> http.client.HTTPConnection:
        host, port = (self._proxy.hostname, self._proxy.port or 80) if self._proxy else self._address
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=self.config.timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self.config.timeout, context=self._context)
        if self._proxy:
            conn.set_tunnel(*self._address, headers=self._proxy_auth)
        return conn

    def _send(self, body: bytes) -> Reply:
        """One HTTP attempt: POST ``body`` and read the whole reply.

        A reused connection that the server has closed since its last reply
        is reopened and the request sent once more, as
        ``xmlrpc.client.Transport`` does; that resend is not a retry. On any
        error the connection is closed, so the next attempt opens a new one.
        """
        conn = self.connection
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            return Reply(response.status, response.headers, response.read())
        except BaseException:
            conn.close()
            raise

    def complete(self, user: str, system: str | None = SYSTEM_PROMPT) -> str:
        """One completion; returns "" after retries are exhausted.

        Retries cover connection errors, timeouts, 429 and 5xx statuses,
        and malformed reply bodies, each after a backoff delay; other 4xx
        statuses are not retried.
        """
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": user})
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        body = json.dumps(payload).encode("utf-8")

        attempts = self.config.max_retries + 1
        retry_after = None
        for attempt in range(attempts):
            if attempt:
                self.sleep(_backoff(attempt - 1) if retry_after is None else retry_after)
                retry_after = None
            try:
                reply = self._send(body)
            except (OSError, http.client.HTTPException) as exc:
                logger.warning("chat request failed (attempt %d/%d): %s", attempt + 1, attempts, exc)
                continue
            if reply.status == 429 or reply.status >= 500:
                logger.warning("chat endpoint returned %d (attempt %d/%d)", reply.status, attempt + 1, attempts)
                retry_after = _retry_after(reply.headers.get("Retry-After"))
                continue
            if reply.status != 200:
                logger.warning("chat endpoint returned %d; not retrying", reply.status)
                return ""
            try:
                return json.loads(reply.body)["choices"][0]["message"]["content"] or ""
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                logger.warning("malformed chat reply (attempt %d/%d): %s", attempt + 1, attempts, exc)
                continue
        return ""


def _proxy_for(url: SplitResult) -> SplitResult | None:
    """The proxy for ``url`` from the environment; None for none."""
    import urllib.request  # about 25 ms to import, so only clients pay it

    proxy = urllib.request.getproxies().get(url.scheme)
    if not proxy or urllib.request.proxy_bypass(url.hostname):
        return None
    parsed = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"only http:// proxies are supported, got {proxy!r}")
    parsed.port  # raises ValueError for a port that is not a number in range
    return parsed


def _proxy_auth(proxy: SplitResult) -> dict:
    """A Basic ``Proxy-Authorization`` header from the proxy URL's user info."""
    if proxy.username is None:
        return {}
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}".encode("utf-8")
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials).decode("ascii")}


def _backoff(retry: int) -> float:
    return random.uniform(0.0, min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**retry))


def _retry_after(value: str | None) -> float | None:
    """Seconds from a numeric Retry-After header; None for a date or junk."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < float("inf") else None


def chat_complete(config: ChatEndpointConfig, prompt: str, system: str | None = SYSTEM_PROMPT) -> str:
    """One-shot convenience wrapper around ``ChatClient.complete``."""
    return ChatClient(config).complete(prompt, system)


class ChatAgent:
    """Policy backed by a chat endpoint with a rolling condensed memory.

    With ``carry_memory`` (the default) each prompt carries the agent's
    previous [Condensed Memory] section, so the model decides what history
    to keep; without it every turn is memoryless. The last (prompt, raw
    reply) exchange is exposed for the engine's event log either way.
    """

    def __init__(self, player_id: int, role, client: ChatClient, carry_memory: bool = True):
        self.player_id = player_id
        self.role = role
        self.client = client
        self.carry_memory = carry_memory
        self.memory = ""
        self.last_exchange: dict | None = None

    def _ask(self, observation) -> AgentResponse | Abstention:
        prompt = build_prompt(observation, role_instructions(self.role), memory=self.memory)
        raw = self.client.complete(prompt)
        self.last_exchange = {"prompt": prompt, "raw": raw}
        parsed = parse_response(raw, observation.legal_actions)
        if isinstance(parsed, AgentResponse) and self.carry_memory:
            self.memory = parsed.condensed_memory
        return parsed

    def decide(self, observation) -> AgentResponse | None:
        parsed = self._ask(observation)
        return parsed if isinstance(parsed, AgentResponse) else None

    def speak(self, observation) -> str:
        parsed = self._ask(observation)
        if isinstance(parsed, AgentResponse) and parsed.action.kind is ActionKind.SPEAK:
            return parsed.action.text or ""
        return ""

    def vote(self, observation) -> int | None:
        parsed = self._ask(observation)
        if isinstance(parsed, AgentResponse) and parsed.action.kind is ActionKind.VOTE:
            return parsed.action.target
        return None


def make_chat_roster(config, endpoint: ChatEndpointConfig, carry_memory: bool = True) -> list[ChatAgent]:
    """One chat agent per player, sharing a single client."""
    from crewsim.engine.engine import assign_roles

    client = ChatClient(endpoint)
    roles = assign_roles(config)
    return [ChatAgent(pid, roles[pid], client, carry_memory=carry_memory) for pid in range(config.num_players)]
