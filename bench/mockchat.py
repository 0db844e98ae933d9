"""Mock chat-completion endpoint for the chat workloads, plus its oracle.

Run as its own process::

    python3 bench/mockchat.py --seed 7

It prints ``READY <port>`` once it listens on 127.0.0.1 and serves until it
is terminated. Every request sleeps ``LATENCY_MS`` and is answered with
status 200 (fault injection belongs to the tests, not to the benchmark); the
``X-Service-Seconds`` reply header says how long the mock spent on it.

Each reply is ``reply_for(seed, prompt)``, a pure function of the seed and
the request content, never of arrival order, so any client concurrency
gives the same labels and games. A reply is deliberately unusable when a
hash of (seed, content) falls below ``UNUSABLE_RATE``: an off-label word for a
classifier prompt, text without the response sections for a game prompt.
The benchmark imports the same functions to know every expected reply.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_MS = 10.0  # sleep per request
UNUSABLE_RATE = 0.1  # share of replies that are deliberately unusable
SPEECH_ACTS = ("Representatives", "Directives", "Commissives", "Expressives", "Declarations")
DECEPTION_FORMS = ("Falsification", "Concealment", "Equivocation")
OFF_LABEL = "Unsure"
MALFORMED = "Hmm, I am not sure what to do here."
SENTENCES = (
    "I saw {name} near the Reactor.",
    "Let's vote {name} out.",
    "I'll stay with {name} next round.",
    "Sorry, I was slow with my tasks.",
    "I was in Storage the whole time.",
    "Maybe we should skip this one.",
    "I think {name} is acting strange.",
    "Everyone watch {name} closely.",
)

SERVICE_HEADER = "X-Service-Seconds"  # time the mock spent on the request

_DECEPTION_MARK = "Falsification (lying)"
_SPEECH_ACT_MARK = "Declarations —"
_MENU_MARK = "Available actions:"


def unit(seed: int, salt: str, content: str) -> float:
    """Uniform number in [0, 1) derived from (seed, salt, content)."""
    digest = hashlib.sha256(f"{seed}\x1f{salt}\x1f{content}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def prompt_kind(content: str) -> str:
    if _DECEPTION_MARK in content:
        return "deception"
    if _SPEECH_ACT_MARK in content:
        return "speech_act"
    if _MENU_MARK in content:
        return "game"
    return "other"


def injected(seed: int, content: str) -> bool:
    """True when the reply to ``content`` is deliberately unusable."""
    return unit(seed, "unusable", content) < UNUSABLE_RATE


def _menu(content: str) -> list[str]:
    lines = content.split(_MENU_MARK, 1)[1].splitlines()
    tags = []
    for line in lines[1:]:
        if not line.startswith("- "):
            break
        tags.append(line[2:])
    return tags


def _pick(seed: int, salt: str, content: str, options):
    return options[int(unit(seed, salt, content) * len(options))]


def reply_for(seed: int, content: str) -> str:
    """The mock's completion text for one user message."""
    kind = prompt_kind(content)
    if kind == "other":
        return ""
    unusable = injected(seed, content)
    if kind == "speech_act":
        return OFF_LABEL if unusable else _pick(seed, "label", content, SPEECH_ACTS)
    if kind == "deception":
        return OFF_LABEL if unusable else _pick(seed, "label", content, DECEPTION_FORMS)
    if unusable:
        return MALFORMED
    choice = _pick(seed, "action", content, _menu(content))
    if choice.startswith("SPEAK"):
        sentence = _pick(seed, "say", content, SENTENCES)
        name = _pick(seed, "name", content, ("Red", "Blue", "Green", "Pink", "Orange"))
        choice = "SPEAK: " + sentence.format(name=name)
    memo = f"{unit(seed, 'memo', content):.6f}"
    return f"[Condensed Memory] Notes {memo}.\n[Thinking Process] Weighing the menu.\n[Action] {choice}"


def expected_label(seed: int, content: str) -> str:
    """The label the annotator must store for the reply to ``content``."""
    word = reply_for(seed, content)
    if word == OFF_LABEL:
        return "unclassifiable" if prompt_kind(content) == "speech_act" else "missing"
    return word.lower()


def serve(seed: int) -> None:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            start = time.perf_counter()
            content = payload["messages"][-1]["content"]
            body = json.dumps({"choices": [{"message": {"content": reply_for(seed, content)}}]})
            data = body.encode("utf-8")
            time.sleep(LATENCY_MS / 1000.0)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.send_header(SERVICE_HEADER, repr(time.perf_counter() - start))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"READY {server.server_address[1]}", flush=True)
    server.serve_forever()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    serve(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
