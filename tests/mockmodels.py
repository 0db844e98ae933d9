"""Mock chat models for tests: replies that depend on the request alone.

A reply that is a pure function of the prompt makes a game or an annotation
pass independent of the order in which concurrent requests arrive, so runs
at different concurrency bounds must give identical bytes.
"""

from __future__ import annotations

import hashlib
import threading
import time

from crewsim.agents.mock_server import completion_body


def prompt_hash(prompt: str) -> int:
    return int.from_bytes(hashlib.sha256(prompt.encode()).digest()[:8], "big")


def game_reply(payload, index):
    """Player model: a menu entry picked by the prompt's hash, with a
    hash-numbered line when speaking."""
    prompt = payload["messages"][-1]["content"]
    tags = [line[2:] for line in prompt.splitlines() if line.startswith("- ")]
    pick = prompt_hash(prompt)
    tag = tags[pick % len(tags)] if tags else ""
    if tag.startswith("SPEAK"):
        tag = f"SPEAK: I trust nobody, reason {pick % 97}."
    return 200, completion_body(f"[Condensed Memory] m\n[Thinking Process] t\n[Action] {tag}")


class ContentKeyedModel:
    """``MockChatServer`` handler that answers with ``reply(payload, index)``
    after a short sleep, and counts requests and the most it held in flight
    at once."""

    def __init__(self, reply, delay_s: float = 0.003):
        self.reply = reply
        self.delay_s = delay_s
        self.requests = self.inflight = self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, payload, index):
        with self._lock:
            self.requests += 1
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(self.delay_s)
            return self.reply(payload, index)
        finally:
            with self._lock:
                self.inflight -= 1

    def reset(self) -> None:
        self.requests = self.peak = 0
