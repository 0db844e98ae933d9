"""Re-derive a game from its record and check it reproduces the same state.

Replay rebuilds one policy per player whose decisions are the logged actions,
utterances, and votes, then runs a fresh engine with the same config and
seed. For any faithfully logged game the replay must reproduce the same
effect-event sequence and final outcome.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from crewsim.agents.base import AgentResponse
from crewsim.core.types import GameRecord, action_from_tag, player_name
from crewsim.engine.engine import EXCHANGE_FIELDS, run_game

# Events that change the world (as opposed to bookkeeping like "turn"/"no_op").
EFFECT_KINDS = (
    "move",
    "task_complete",
    "kill",
    "vent",
    "meeting_start",
    "utterance",
    "vote",
    "votes_tallied",
    "ejection",
    "reveal",
    "no_ejection",
    "meeting_end",
    "game_end",
)


@dataclass
class ReplayPolicy:
    """Feeds a player's logged behavior back into the engine."""

    player_id: int
    decisions: deque = field(default_factory=deque)  # Action | None per task turn
    utterances: deque = field(default_factory=deque)
    votes: deque = field(default_factory=deque)

    def decide(self, observation) -> AgentResponse | None:
        if not self.decisions:
            return None
        action = self.decisions.popleft()
        if action is None:
            return None
        return AgentResponse(condensed_memory="", thinking="", action=action)

    def speak(self, observation) -> str:
        return self.utterances.popleft() if self.utterances else ""

    def vote(self, observation) -> int | None:
        return self.votes.popleft() if self.votes else None


def build_replay_roster(record: GameRecord) -> list[ReplayPolicy]:
    n = record.config.num_players
    name_to_id = {player_name(pid): pid for pid in range(n)}
    roster = [ReplayPolicy(pid) for pid in range(n)]
    for event in record.events:
        kind, data = event.kind, event.data
        if kind == "turn":
            action = action_from_tag(data["action"], name_to_id)
            roster[data["player"]].decisions.append(action)
        elif kind == "no_op" and data.get("reason") in ("abstention", "agent_error"):
            roster[data["player"]].decisions.append(None)
        elif kind == "utterance":
            roster[data["speaker_id"]].utterances.append(data["text"])
        elif kind == "vote":
            roster[data["voter"]].votes.append(data["target"])
    return roster


def replay_record(record: GameRecord) -> GameRecord:
    """Run a fresh game driven by the record's logged behavior."""
    return run_game(record.config, build_replay_roster(record), game_id=record.game_id)


def _effect_trace(record: GameRecord) -> list[tuple]:
    # A chat agent's logged prompt and raw reply are inputs behind an effect,
    # which a replay has no model to reproduce.
    return [
        (e.timestep, e.round, e.kind, {k: v for k, v in e.data.items() if k not in EXCHANGE_FIELDS})
        for e in record.events
        if e.kind in EFFECT_KINDS
    ]


def verify_record(record: GameRecord) -> list[str]:
    """Replay and compare; returns a list of discrepancies (empty = OK)."""
    replayed = replay_record(record)
    problems = []
    if replayed.outcome != record.outcome:
        problems.append(f"outcome differs: {record.outcome} vs replay {replayed.outcome}")
    if replayed.meeting_rounds != record.meeting_rounds:
        problems.append("meeting rounds differ")
    if replayed.ejection_rounds != record.ejection_rounds:
        problems.append("ejection rounds differ")
    original, rerun = _effect_trace(record), _effect_trace(replayed)
    if original != rerun:
        limit = min(len(original), len(rerun))
        divergence = next(
            (i for i in range(limit) if original[i] != rerun[i]), limit
        )
        problems.append(
            f"effect trace diverges at index {divergence}: "
            f"{original[divergence] if divergence < len(original) else 'missing'} vs "
            f"{rerun[divergence] if divergence < len(rerun) else 'missing'}"
        )
    return problems
