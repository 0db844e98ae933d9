"""Classifier backends: chat endpoint, frozen rules, and replay-from-file.

A backend answers two calls:

- ``speech_act_reply(key, text) -> str``
- ``deception_reply(key, text, discussion) -> str``

``key`` identifies the utterance; only the replay backend uses it. Replies
are raw words that go through label normalization upstream.

A backend may set ``max_concurrency``: how many replies the annotator may
request at once. Only the chat backend does, because it waits on the
network; the other two are CPU-bound and run serially.
"""

from __future__ import annotations

import functools
import re

from crewsim.agents.chat import ChatClient, ChatEndpointConfig
from crewsim.annotate.classify import deception_prompt, speech_act_prompt


class ChatBackend:
    """Sends the stored templates to a chat endpoint, verbatim."""

    def __init__(self, endpoint: ChatEndpointConfig):
        self.client = ChatClient(endpoint)
        self.name = f"chat:{endpoint.model}"
        self.max_concurrency = endpoint.max_concurrency

    def speech_act_reply(self, key: str, text: str) -> str:
        return self.client.complete(speech_act_prompt(text), system=None)

    def deception_reply(self, key: str, text: str, discussion: str) -> str:
        return self.client.complete(deception_prompt(text, discussion), system=None)


@functools.lru_cache(maxsize=None)
def _lexicon_pattern(phrases: tuple[str, ...]) -> re.Pattern:
    """One alternation per lexicon; at each position the regex tries every
    phrase in turn, so it matches wherever any single phrase would."""
    return re.compile(rf"(?<![a-z])(?:{'|'.join(map(re.escape, phrases))})(?![a-z])")


def _any_word(text: str, phrases: tuple[str, ...]) -> bool:
    lowered = " ".join(text.split()).casefold()
    return _lexicon_pattern(phrases).search(lowered) is not None


class RuleBackend:
    """Deterministic keyword classifier: a transparent test double.

    The rules below are frozen so that pipeline outputs are reproducible;
    first matching rule wins.

    Speech acts:

    1. apology/emotion lexicon            -> Expressives
    2. first-person future commitment     -> Commissives
    3. exhortation or leading imperative  -> Directives
    4. first-person claim about the past  -> Representatives
    5. default                            -> Directives (the dominant class)

    Deception forms:

    1. absolute alibi phrasing            -> Falsification
    2. bare task talk omitting events     -> Concealment
    3. hedges and vagueness               -> Equivocation
    4. default                            -> Equivocation (the dominant class)

    A reply depends on the utterance text alone, so each backend answers
    each distinct text once per task and replays that reply for repeats;
    the labels are the same as classifying every call afresh.
    """

    name = "rules"

    _EXPRESSIVE = ("sorry", "thanks", "thank", "glad", "happy", "afraid", "scared", "wow", "oops", "upset")
    _COMMISSIVE = ("i'll", "i will", "i promise", "i'm going to", "i am going to")
    _DIRECTIVE = (
        "let's",
        "lets",
        "we should",
        "you should",
        "should we",
        "everyone",
        "please",
        "vote",
        "skip",
        "watch",
        "keep an eye",
    )
    _DIRECTIVE_LEADS = ("vote", "check", "watch", "go", "stay", "follow", "look", "listen", "trust", "tell", "stop", "wait", "skip", "eject")
    _REPRESENTATIVE = ("i saw", "i was", "i think", "i heard", "i noticed", "i found", "i know", "i didn't", "i did")

    _FALSIFICATION = ("the whole time", "never left", "i swear", "wasn't even")
    _CONCEALMENT = ("i finished", "just doing tasks", "i was just doing", "nothing happened", "didn't see anyone")
    _EQUIVOCATION = (
        "maybe",
        "not sure",
        "i guess",
        "didn't really",
        "kind of",
        "sort of",
        "perhaps",
        "might",
        "possibly",
        "i think",
        "near",
        "earlier",
        "around",
    )

    def __init__(self):
        self._speech_acts: dict[str, str] = {}  # reply memo, keyed by text
        self._deception: dict[str, str] = {}

    def speech_act_reply(self, key: str, text: str) -> str:
        reply = self._speech_acts.get(text)
        if reply is None:
            reply = self._speech_acts[text] = self._speech_act(text)
        return reply

    def deception_reply(self, key: str, text: str, discussion: str) -> str:
        reply = self._deception.get(text)
        if reply is None:
            reply = self._deception[text] = self._deception_form(text)
        return reply

    def _speech_act(self, text: str) -> str:
        if _any_word(text, self._EXPRESSIVE):
            return "Expressives"
        if _any_word(text, self._COMMISSIVE):
            return "Commissives"
        first = text.split()[0].casefold().strip(".,!?:;\"'") if text.split() else ""
        if _any_word(text, self._DIRECTIVE) or first in self._DIRECTIVE_LEADS:
            return "Directives"
        if _any_word(text, self._REPRESENTATIVE):
            return "Representatives"
        return "Directives"

    def _deception_form(self, text: str) -> str:
        if not text.strip():
            return ""
        if _any_word(text, self._FALSIFICATION):
            return "Falsification"
        if _any_word(text, self._CONCEALMENT):
            return "Concealment"
        if _any_word(text, self._EQUIVOCATION):
            return "Equivocation"
        return "Equivocation"


class ReplayBackend:
    """Replays previously produced labels keyed by utterance, for exact
    reproduction of an earlier analysis."""

    name = "replay"

    def __init__(self, speech_acts: dict[str, str] | None = None, deception: dict[str, str] | None = None):
        self.speech_acts = dict(speech_acts or {})
        self.deception = dict(deception or {})

    def speech_act_reply(self, key: str, text: str) -> str:
        return self.speech_acts.get(key, "")

    def deception_reply(self, key: str, text: str, discussion: str) -> str:
        return self.deception.get(key, "")
