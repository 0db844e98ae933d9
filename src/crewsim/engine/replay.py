"""Re-derive a game from its record and check it reproduces the same log.

Replay rebuilds one policy per player whose decisions are the logged actions,
utterances, and votes, then runs a fresh engine with the same config and
seed. A logged action is answered by looking its tag up in the menu the
engine offers at that turn; a tag that is not on the menu was an illegal
action, which only ever produced a no-op, so the replay abstains instead.

``verify_record`` compares every event except the per-turn bookkeeping
(``turn`` and ``no_op``), with a chat agent's logged prompt and raw reply set
aside: a replay has no model to reproduce them. An event kind the engine
gains later is checked without a change here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import zip_longest

from crewsim.agents.base import AgentResponse
from crewsim.core.types import GameRecord
from crewsim.engine.engine import EXCHANGE_FIELDS, run_game

# Per-turn bookkeeping; an illegal action logs "turn" + "no_op" where its
# replay logs one abstention "no_op", with the same effects.
BOOKKEEPING_KINDS = ("turn", "no_op")


@dataclass
class ReplayPolicy:
    """Feeds a player's logged behavior back into the engine."""

    player_id: int
    decisions: deque = field(default_factory=deque)  # action tag | None per task turn
    utterances: deque = field(default_factory=deque)
    votes: deque = field(default_factory=deque)

    def decide(self, observation) -> AgentResponse | None:
        tag = self.decisions.popleft() if self.decisions else None
        action = next((a for a in observation.legal_actions if a.tag == tag), None)
        if action is None:
            return None
        return AgentResponse(condensed_memory="", thinking="", action=action)

    def speak(self, observation) -> str:
        return self.utterances.popleft() if self.utterances else ""

    def vote(self, observation) -> int | None:
        return self.votes.popleft() if self.votes else None


def build_replay_roster(record: GameRecord) -> list[ReplayPolicy]:
    roster = [ReplayPolicy(pid) for pid in range(record.config.num_players)]
    for event in record.events:
        kind, data = event.kind, event.data
        if kind == "turn":
            roster[data["player"]].decisions.append(data["action"])
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
    return [
        (e.timestep, e.round, e.kind, {k: v for k, v in e.data.items() if k not in EXCHANGE_FIELDS})
        for e in record.events
        if e.kind not in BOOKKEEPING_KINDS
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
    traces = zip_longest(_effect_trace(record), _effect_trace(replayed), fillvalue="missing")
    for index, (logged, rerun) in enumerate(traces):
        if logged != rerun:
            problems.append(f"effect trace diverges at index {index}: {logged} vs {rerun}")
            break
    return problems
