"""Agent abstractions shared by scripted and chat-backed policies."""

from __future__ import annotations

from dataclasses import dataclass

from crewsim.core.types import Action


@dataclass(frozen=True)
class AgentResponse:
    """Structured agent output: memory and reasoning text plus one action."""

    condensed_memory: str
    thinking: str
    action: Action


@dataclass(frozen=True)
class Abstention:
    """Unusable agent output; the raw text is preserved for the log."""

    raw: str
