"""Deterministic scripted policies for desk-scale runs and engine tests.

Task-phase behaviors: ``random_walker``, ``task_rusher``, ``stand_still``
(crew) and ``hunter``, ``pacifist`` (impostors). Meetings are handled by an
accuser script (crew: accuse a seeded suspect, vote the most-accused player)
or a defender script (impostor: deflect, vote a seeded crewmate).

Everything is a pure function of (observation sequence, seed), so identical
games replay byte-identically. The name scans behind accusations are memoized
per (names, text) in a bounded cache; the scan is a pure function of its key,
so a cached answer is the answer, and replay stays exact.
"""

from __future__ import annotations

import functools
import random
import re

from crewsim.agents.base import AgentResponse
from crewsim.core.types import Action, ActionKind, GameConfig, Role, stable_seed
from crewsim.engine.engine import assign_roles
from crewsim.engine.observation import Observation


def _respond(action: Action) -> AgentResponse:
    return AgentResponse(condensed_memory="", thinking="", action=action)


@functools.lru_cache(maxsize=1024)
def _name_pattern(names: tuple[str, ...]) -> re.Pattern:
    """One whole-word alternation per name set, compiled once."""
    return re.compile(r"\b(?:" + "|".join(map(re.escape, names)) + r")\b")


@functools.lru_cache(maxsize=4096)
def _mentioned(names: tuple[str, ...], text: str) -> frozenset[str]:
    """The names in ``names`` that ``text`` mentions as whole words."""
    if not names:
        return frozenset()
    return frozenset(match.group() for match in _name_pattern(names).finditer(text))


def _step_toward(rng: random.Random, game_map, here: str, goals: list[str], moves: list[Action]) -> Action:
    """A seeded pick among the nearest ``goals``, then among the ``moves`` (sorted
    by room) that bring the player nearest to it."""
    best = min(game_map.distance(here, room) for room in goals)
    target = rng.choice([room for room in goals if game_map.distance(here, room) == best])
    nearest = min(game_map.distance(a.room, target) for a in moves)
    return rng.choice([a for a in moves if game_map.distance(a.room, target) == nearest])


def _moves(obs: Observation) -> list[Action]:
    """The legal moves, sorted by room."""
    return sorted((a for a in obs.legal_actions if a.kind is ActionKind.MOVE), key=lambda a: a.room)


def _accused_me(obs: Observation) -> bool:
    """Whether another player has named the viewer in this meeting."""
    me = (obs.viewer_name,)
    return any(
        speaker != obs.viewer_name and _mentioned(me, text) for speaker, text in obs.meeting.transcript
    )


class AccuserScript:
    """Crew meeting behavior: pick a suspect, press, vote the most accused."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._meeting_index: int | None = None
        self._suspect: str | None = None

    def _ensure_suspect(self, obs: Observation) -> str | None:
        meeting = obs.meeting
        if self._meeting_index != meeting.index:
            self._meeting_index = meeting.index
            others = sorted(name for _, name in meeting.attendees if name != obs.viewer_name)
            self._suspect = self.rng.choice(others) if others else None
        return self._suspect

    def _most_accused(self, obs: Observation) -> str | None:
        names = tuple(name for _, name in obs.meeting.attendees if name != obs.viewer_name)
        counts: dict[str, int] = {}
        for speaker, text in obs.meeting.transcript:
            for name in _mentioned(names, text) - {speaker}:
                counts[name] = counts.get(name, 0) + 1
        if not counts:
            return None
        top = max(counts.values())
        leaders = sorted(name for name, c in counts.items() if c == top)
        return self.rng.choice(leaders)

    def speak(self, obs: Observation) -> str:
        suspect = self._ensure_suspect(obs)
        if suspect is None:
            return "I have nothing to add."
        rnd = obs.meeting.discussion_round
        if rnd == 0:
            return f"I think {suspect} is acting suspicious. Has anyone seen {suspect} doing tasks?"
        if _accused_me(obs):
            return f"It wasn't me. I was doing my tasks in {obs.current_room}."
        if rnd == 1:
            return f"Let's keep an eye on {suspect}. We should vote carefully."
        pick = self._most_accused(obs) or suspect
        return f"My vote goes to {pick}. Let's decide now."

    def vote(self, obs: Observation) -> int | None:
        self._ensure_suspect(obs)
        ids = {name: pid for pid, name in obs.meeting.attendees}
        pick = self._most_accused(obs) or self._suspect
        return ids.get(pick)


class DefenderScript:
    """Impostor meeting behavior: equivocate, deny, vote a seeded crewmate."""

    def __init__(self, rng: random.Random, impostor_ids: frozenset[int]):
        self.rng = rng
        self.impostor_ids = impostor_ids

    def speak(self, obs: Observation) -> str:
        if _accused_me(obs):
            return f"It wasn't me. I was in {obs.current_room} the whole time."
        if obs.meeting.discussion_round == 0:
            return f"I was near {obs.current_room} earlier, but I didn't really see what happened."
        return "Maybe we should skip. I don't think we have enough information yet."

    def vote(self, obs: Observation) -> int | None:
        marks = sorted(
            pid
            for pid, name in obs.meeting.attendees
            if pid != obs.viewer_id and pid not in self.impostor_ids
        )
        return self.rng.choice(marks) if marks else None


class ScriptedAgent:
    """Base: task-phase behavior in ``decide``, meetings via the script."""

    def __init__(self, player_id: int, seed: int, game_map=None, impostor_ids: frozenset[int] = frozenset()):
        self.player_id = player_id
        self.rng = random.Random(seed)
        self.map = game_map
        self.impostor_ids = impostor_ids
        self.script = self._make_script()

    def _make_script(self):
        return AccuserScript(self.rng)

    def decide(self, obs: Observation) -> AgentResponse | None:
        raise NotImplementedError

    def speak(self, obs: Observation) -> str:
        return self.script.speak(obs)

    def vote(self, obs: Observation) -> int | None:
        return self.script.vote(obs)


class RandomWalker(ScriptedAgent):
    """Uniform seeded choice over the legal menu."""

    def decide(self, obs: Observation) -> AgentResponse | None:
        if not obs.legal_actions:
            return None
        return _respond(self.rng.choice(list(obs.legal_actions)))


class TaskRusher(ScriptedAgent):
    """Head for the nearest undone task (seeded tie-break), then do it."""

    def decide(self, obs: Observation) -> AgentResponse | None:
        undone_here = [
            action
            for action in obs.legal_actions
            if action.kind is ActionKind.COMPLETE_TASK
        ]
        if undone_here:
            return _respond(undone_here[0])
        goal_rooms = sorted({room for _, room, done in obs.tasks if not done})
        moves = _moves(obs)
        if not goal_rooms or not moves:
            return None
        return _respond(_step_toward(self.rng, self.map, obs.current_room, goal_rooms, moves))


class StandStill(ScriptedAgent):
    """Does nothing every turn; useful for hand-traceable games."""

    def decide(self, obs: Observation) -> AgentResponse | None:
        return None


class Hunter(ScriptedAgent):
    """Kill when legal; shadow co-located crew; otherwise search the ship."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.last_seen: dict[int, str] = {}

    def _make_script(self):
        return DefenderScript(self.rng, self.impostor_ids)

    def decide(self, obs: Observation) -> AgentResponse | None:
        room = obs.current_room
        visible = {pid for pid, _ in obs.visible_players}
        for pid, _ in obs.visible_players:
            self.last_seen[pid] = room
        for pid in list(self.last_seen):
            if self.last_seen[pid] == room and pid not in visible:
                del self.last_seen[pid]

        kills = sorted(
            (a for a in obs.legal_actions if a.kind is ActionKind.KILL), key=lambda a: a.target
        )
        if kills:
            pick = self.rng.choice(kills)
            self.last_seen.pop(pick.target, None)
            return _respond(pick)
        if obs.visible_players:
            return None  # wait out the cooldown next to the prey
        moves = _moves(obs)
        if not moves:
            return None
        remembered = sorted(set(self.last_seen.values()) - {room})
        if remembered:
            return _respond(_step_toward(self.rng, self.map, room, remembered, moves))
        return _respond(self.rng.choice(moves))


class Pacifist(ScriptedAgent):
    """Impostor that only wanders and never harms anyone."""

    def _make_script(self):
        return DefenderScript(self.rng, self.impostor_ids)

    def decide(self, obs: Observation) -> AgentResponse | None:
        moves = [a for a in obs.legal_actions if a.kind is ActionKind.MOVE]
        if not moves:
            return None
        return _respond(self.rng.choice(moves))


SCRIPTED_CREW_POLICIES = {
    "random_walker": RandomWalker,
    "task_rusher": TaskRusher,
    "stand_still": StandStill,
}

SCRIPTED_IMPOSTOR_POLICIES = {
    "hunter": Hunter,
    "pacifist": Pacifist,
}


def make_scripted_agent(
    name: str, player_id: int, config: GameConfig, impostor_ids=()
) -> ScriptedAgent:
    policies = {**SCRIPTED_CREW_POLICIES, **SCRIPTED_IMPOSTOR_POLICIES}
    if name not in policies:
        raise ValueError(f"unknown scripted policy {name!r}; options: {sorted(policies)}")
    return policies[name](
        player_id,
        stable_seed(config.seed, "agent", player_id),
        game_map=config.map,
        impostor_ids=frozenset(impostor_ids),
    )


def make_scripted_roster(
    config: GameConfig, crew: str = "task_rusher", impostor: str = "hunter"
) -> list[ScriptedAgent]:
    """One policy per player, matching the seeded role assignment."""
    roles = assign_roles(config)
    impostor_ids = frozenset(i for i, role in enumerate(roles) if role is Role.IMPOSTOR)
    return [
        make_scripted_agent(
            impostor if i in impostor_ids else crew, i, config, impostor_ids
        )
        for i in range(config.num_players)
    ]
