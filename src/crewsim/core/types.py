"""Domain types shared by the engine, agents, annotation, and harness layers.

Everything here is either an immutable value or a plain record that a single
game owns exclusively; nothing is shared mutably between games.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

MAX_SEED = 2**64 - 1


def stable_seed(*parts) -> int:
    """64-bit seed derived from ``parts``; stable across runs and platforms."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")

# Display names handed out in player-id order; roles are shuffled, not names.
PLAYER_NAMES = ("Red", "Blue", "Green", "Pink", "Orange", "Yellow", "Black", "White")


def player_name(player_id: int) -> str:
    if player_id < len(PLAYER_NAMES):
        return PLAYER_NAMES[player_id]
    return f"P{player_id}"


def utterance_key(game_id: str, meeting_index: int, discussion_round: int, speaker_id: int) -> str:
    """The key that names one discussion slot in annotation runs and the analysis."""
    return f"{game_id}|{meeting_index}|{discussion_round}|{speaker_id}"


def word_count(text: str) -> int:
    """Number of maximal whitespace-separated tokens in ``text``."""
    return len(text.split())


class Role(str, Enum):
    CREWMATE = "crewmate"
    IMPOSTOR = "impostor"


class ActionKind(str, Enum):
    MOVE = "move"
    COMPLETE_TASK = "complete_task"
    KILL = "kill"
    VENT = "vent"
    REPORT_BODY = "report_body"
    CALL_MEETING = "call_meeting"
    SPEAK = "speak"
    VOTE = "vote"


# One bounded cache per factory: a ballot's target comes from an agent.
_interned = functools.lru_cache(maxsize=256, typed=True)


@dataclass(frozen=True)
class Action:
    """One entry of the discrete action menu.

    ``tag`` is the canonical wire syntax shown in prompts and logged in events
    ("MOVE Storage", "VOTE SKIP", ...). Agents are matched against tags, so the
    rendering must stay stable.

    The factories whose arguments range over a game's rooms, task indices and
    player ids return interned values: ``Action.move("Storage") is
    Action.move("Storage")``. Each is ``==`` to, and hashes like, the value
    built directly. Their caches are bounded and keyed by argument type, so
    ``vote(1)`` and ``vote(True)`` stay apart. ``speak`` is not interned, since
    its text is unbounded.
    """

    kind: ActionKind
    room: str | None = None
    task_index: int | None = None
    target: int | None = None  # player id; None means Skip for VOTE
    text: str | None = None

    @classmethod
    @_interned
    def move(cls, room: str) -> Action:
        return cls(ActionKind.MOVE, room=room)

    @classmethod
    @_interned
    def complete_task(cls, task_index: int) -> Action:
        return cls(ActionKind.COMPLETE_TASK, task_index=task_index)

    @classmethod
    @_interned
    def kill(cls, target: int) -> Action:
        return cls(ActionKind.KILL, target=target)

    @classmethod
    @_interned
    def vent(cls, room: str) -> Action:
        return cls(ActionKind.VENT, room=room)

    @classmethod
    @_interned
    def report_body(cls) -> Action:
        return cls(ActionKind.REPORT_BODY)

    @classmethod
    @_interned
    def call_meeting(cls) -> Action:
        return cls(ActionKind.CALL_MEETING)

    @classmethod
    def speak(cls, text: str = "") -> Action:
        return cls(ActionKind.SPEAK, text=text)

    @classmethod
    @_interned
    def vote(cls, target: int | None) -> Action:
        return cls(ActionKind.VOTE, target=target)

    @property
    def tag(self) -> str:
        kind = self.kind
        if kind is ActionKind.MOVE:
            return f"MOVE {self.room}"
        if kind is ActionKind.COMPLETE_TASK:
            return f"COMPLETE TASK {self.task_index}"
        if kind is ActionKind.KILL:
            return f"KILL {player_name(self.target)}"
        if kind is ActionKind.VENT:
            return f"VENT {self.room}"
        if kind is ActionKind.REPORT_BODY:
            return "REPORT BODY"
        if kind is ActionKind.CALL_MEETING:
            return "CALL MEETING"
        if kind is ActionKind.SPEAK:
            return f"SPEAK: {self.text}" if self.text else "SPEAK:"
        if kind is ActionKind.VOTE:
            return "VOTE SKIP" if self.target is None else f"VOTE {player_name(self.target)}"
        raise ValueError(f"unknown action kind {kind!r}")


@dataclass
class MapSpec:
    """Named rooms with a symmetric walk graph and a symmetric vent graph."""

    rooms: tuple[str, ...]
    adjacency: tuple[tuple[str, str], ...]
    vents: tuple[tuple[str, str], ...]
    cafeteria: str

    def __post_init__(self) -> None:
        self.rooms = tuple(self.rooms)
        self.adjacency = tuple(tuple(sorted(edge)) for edge in self.adjacency)
        self.vents = tuple(tuple(sorted(edge)) for edge in self.vents)
        self._neighbors: dict[str, tuple[str, ...]] = {}
        self._vent_neighbors: dict[str, tuple[str, ...]] = {}
        self._dist: dict[str, dict[str, int]] = {}

    def neighbors(self, room: str) -> tuple[str, ...]:
        if not self._neighbors:
            self._build_neighbor_tables()
        return self._neighbors.get(room, ())

    def vent_neighbors(self, room: str) -> tuple[str, ...]:
        if not self._neighbors:
            self._build_neighbor_tables()
        return self._vent_neighbors.get(room, ())

    def distance(self, frm: str, to: str) -> int:
        """Walk-graph distance in rooms (vents excluded)."""
        if frm not in self._dist:
            self._dist[frm] = self._bfs(frm)
        return self._dist[frm].get(to, -1)

    def _build_neighbor_tables(self) -> None:
        walk: dict[str, list[str]] = {r: [] for r in self.rooms}
        for a, b in self.adjacency:
            if a in walk and b in walk:
                walk[a].append(b)
                walk[b].append(a)
        vent: dict[str, list[str]] = {r: [] for r in self.rooms}
        for a, b in self.vents:
            if a in vent and b in vent:
                vent[a].append(b)
                vent[b].append(a)
        self._neighbors = {r: tuple(sorted(set(ns))) for r, ns in walk.items()}
        self._vent_neighbors = {r: tuple(sorted(set(ns))) for r, ns in vent.items()}

    def _bfs(self, start: str) -> dict[str, int]:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            room = queue.popleft()
            for nxt in self.neighbors(room):
                if nxt not in dist:
                    dist[nxt] = dist[room] + 1
                    queue.append(nxt)
        return dist

    def validate(self) -> list[str]:
        problems = []
        if len(set(self.rooms)) != len(self.rooms):
            problems.append("rooms contain duplicates")
        if self.cafeteria not in self.rooms:
            problems.append(f"cafeteria {self.cafeteria!r} is not a room")
        room_set = set(self.rooms)
        for name, edges in (("adjacency", self.adjacency), ("vents", self.vents)):
            for a, b in edges:
                if a == b:
                    problems.append(f"{name} edge {a!r}-{b!r} is a self-edge")
                if a not in room_set or b not in room_set:
                    problems.append(f"{name} edge {a!r}-{b!r} references unknown room")
        if self.rooms and not problems:
            reached = self._bfs(self.rooms[0])
            missing = [r for r in self.rooms if r not in reached]
            if missing:
                problems.append(f"adjacency graph not connected; unreachable: {missing}")
        return problems

    def to_dict(self) -> dict:
        return {
            "rooms": list(self.rooms),
            "adjacency": [list(e) for e in self.adjacency],
            "vents": [list(e) for e in self.vents],
            "cafeteria": self.cafeteria,
        }

    @classmethod
    def from_dict(cls, data: dict) -> MapSpec:
        return cls(
            rooms=tuple(data["rooms"]),
            adjacency=tuple(tuple(e) for e in data["adjacency"]),
            vents=tuple(tuple(e) for e in data["vents"]),
            cafeteria=data["cafeteria"],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MapSpec):
            return NotImplemented
        return (
            self.rooms == other.rooms
            and set(self.adjacency) == set(other.adjacency)
            and set(self.vents) == set(other.vents)
            and self.cafeteria == other.cafeteria
        )


@dataclass
class GameConfig:
    """Complete simulation parameters. ``seed`` drives every random choice."""

    num_crew: int
    num_impostors: int
    tasks_per_crew: int = 3
    discussion_rounds: int = 3
    kill_cooldown: int = 3
    emergency_meetings_per_player: int = 1
    max_rounds: int = 100
    map: MapSpec | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.map is None:
            from crewsim.core.serialize import default_map

            self.map = default_map()

    @property
    def num_players(self) -> int:
        return self.num_crew + self.num_impostors

    def label(self) -> str:
        return f"{self.num_crew}v{self.num_impostors}"

    def to_dict(self) -> dict:
        return {
            "num_crew": self.num_crew,
            "num_impostors": self.num_impostors,
            "tasks_per_crew": self.tasks_per_crew,
            "discussion_rounds": self.discussion_rounds,
            "kill_cooldown": self.kill_cooldown,
            "emergency_meetings_per_player": self.emergency_meetings_per_player,
            "max_rounds": self.max_rounds,
            "map": self.map.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> GameConfig:
        data = dict(data)
        data["map"] = MapSpec.from_dict(data["map"])
        return cls(**data)


@dataclass(frozen=True)
class ConfigIssue:
    severity: str  # "warning" | "violation"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.field}: {self.message}"


def validate_config(config: GameConfig) -> list[ConfigIssue]:
    """Check every config invariant; returns issues instead of raising.

    Violations make the config unusable; warnings flag configs outside the
    supported 4-8 player experiment grid that the engine still accepts.
    """
    issues: list[ConfigIssue] = []

    def violation(field: str, message: str) -> None:
        issues.append(ConfigIssue("violation", field, message))

    if config.num_crew < 1:
        violation("num_crew", "must be at least 1")
    if config.num_impostors < 1:
        violation("num_impostors", "must be at least 1")
    if config.num_impostors > config.num_crew:
        violation("num_impostors", "impostors must not outnumber crewmates at start")
    elif config.num_impostors == config.num_crew:
        # runnable, but parity ends the game immediately
        issues.append(ConfigIssue("warning", "num_impostors", "game starts at parity"))
    total = config.num_players
    if total < 2:
        violation("num_crew", "total players must be at least 2")
    elif not 4 <= total <= 8:
        issues.append(
            ConfigIssue("warning", "num_crew", f"total players {total} outside the 4-8 grid")
        )
    if config.tasks_per_crew < 1:
        violation("tasks_per_crew", "must be at least 1")
    if config.discussion_rounds < 1:
        violation("discussion_rounds", "must be at least 1")
    if config.kill_cooldown < 0:
        violation("kill_cooldown", "must be non-negative")
    if config.emergency_meetings_per_player < 0:
        violation("emergency_meetings_per_player", "must be non-negative")
    if config.max_rounds < 1:
        violation("max_rounds", "must be at least 1")
    if not 0 <= config.seed <= MAX_SEED:
        violation("seed", "must fit in 64 unsigned bits")
    for problem in config.map.validate():
        violation("map", problem)
    return issues


@dataclass
class Task:
    room: str
    done: bool = False


@dataclass
class PlayerState:
    id: int
    name: str
    role: Role
    location: str
    alive: bool = True
    tasks: list[Task] = field(default_factory=list)
    kill_ready_at: int = 0
    emergency_calls_left: int = 0
    death: str | None = None  # "killed" | "ejected"


@dataclass(frozen=True)
class UtteranceRecord:
    """One discussion slot; empty text means the speaker abstained."""

    game_id: str
    meeting_index: int
    discussion_round: int
    speaker_id: int
    speaker_role: Role
    text: str
    word_count: int

    @property
    def abstained(self) -> bool:
        return self.text == ""

    @property
    def key(self) -> str:
        return utterance_key(self.game_id, self.meeting_index, self.discussion_round, self.speaker_id)


@dataclass(frozen=True)
class MeetingCause:
    kind: str  # "body_report" | "emergency"
    caller: int  # reporter or emergency caller
    victim: int | None = None

    def describe(self) -> str:
        if self.kind == "body_report":
            return f"{player_name(self.caller)} reported {player_name(self.victim)}'s body"
        return f"{player_name(self.caller)} called an emergency meeting"


@dataclass
class MeetingState:
    """One meeting in progress.

    The parts every observation of the meeting shows are kept here once:
    ``attendees`` and ``cause_text`` do not change while the meeting runs, and
    ``transcript`` is an immutable tuple replaced by a longer one per
    utterance, so each observation can hold the tuple it was given.
    """

    cause: MeetingCause
    index: int
    attendees: tuple[tuple[int, str], ...]  # (player id, name), alive when it was called
    discussion_round: int = 0  # completed rounds, 0..k
    transcript: tuple[tuple[str, str], ...] = ()  # (speaker name, text)
    votes: dict[int, int | None] = field(default_factory=dict)
    cause_text: str = field(init=False)

    def __post_init__(self) -> None:
        self.cause_text = self.cause.describe()


@dataclass(frozen=True)
class Outcome:
    winner: str  # "crew" | "impostor" | "none"
    reason: str  # "all_tasks_done" | "all_impostors_ejected" | "parity" | "timeout"

    CREW_TASKS = ("crew", "all_tasks_done")
    CREW_EJECTED = ("crew", "all_impostors_ejected")
    IMPOSTOR_PARITY = ("impostor", "parity")
    TIMEOUT = ("none", "timeout")

    @classmethod
    def crew_tasks(cls) -> Outcome:
        return cls(*cls.CREW_TASKS)

    @classmethod
    def crew_ejected(cls) -> Outcome:
        return cls(*cls.CREW_EJECTED)

    @classmethod
    def impostor_parity(cls) -> Outcome:
        return cls(*cls.IMPOSTOR_PARITY)

    @classmethod
    def timeout(cls) -> Outcome:
        return cls(*cls.TIMEOUT)

    def to_dict(self) -> dict:
        return {"winner": self.winner, "reason": self.reason}

    @classmethod
    def from_dict(cls, data: dict) -> Outcome:
        return cls(winner=data["winner"], reason=data["reason"])


@dataclass(frozen=True)
class Event:
    """Append-only log entry; ``data`` must stay JSON-serializable."""

    timestep: int
    round: int
    kind: str
    data: dict

    def to_dict(self) -> dict:
        return {"timestep": self.timestep, "round": self.round, "kind": self.kind, "data": self.data}

    @classmethod
    def from_dict(cls, data: dict) -> Event:
        return cls(timestep=data["timestep"], round=data["round"], kind=data["kind"], data=data["data"])


PHASE_TASK = "task"
PHASE_MEETING = "meeting"
PHASE_FINISHED = "finished"


@dataclass
class GameState:
    """The evolving world of one game. Owned by exactly one engine run."""

    config: GameConfig
    game_id: str
    rng: random.Random
    players: list[PlayerState]
    turn_order: list[int]
    timestep: int = 0
    round: int = 0
    phase: str = PHASE_TASK
    meeting: MeetingState | None = None
    outcome: Outcome | None = None
    bodies: list[tuple[int, str]] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    meeting_rounds: list[int] = field(default_factory=list)
    ejection_rounds: list[int] = field(default_factory=list)
    # index into `public_events` of the next item each player has not yet seen
    public_events: list[str] = field(default_factory=list)
    public_cursor: dict[int, int] = field(default_factory=dict)

    def player(self, player_id: int) -> PlayerState:
        try:
            return self.players[player_id]
        except IndexError:
            raise KeyError(f"unknown player {player_id}") from None

    def alive_players(self) -> list[PlayerState]:
        return [p for p in self.players if p.alive]

    def alive_count(self, role: Role) -> int:
        return sum(1 for p in self.players if p.alive and p.role is role)

    def all_tasks_done(self) -> bool:
        return all(t.done for p in self.players for t in p.tasks)

    def bodies_in(self, room: str) -> list[int]:
        return [victim for victim, where in self.bodies if where == room]

    def append_event(self, kind: str, data: dict) -> Event:
        event = Event(timestep=self.timestep, round=self.round, kind=kind, data=data)
        self.events.append(event)
        return event

    def announce(self, message: str) -> None:
        """Publish a message every player will see on their next turn."""
        self.public_events.append(message)


@dataclass
class GameRecord:
    """Full log of one game: the corpus unit consumed by annotation/analysis."""

    game_id: str
    config: GameConfig
    seed: int
    events: list[Event]
    outcome: Outcome
    meeting_rounds: list[int]
    ejection_rounds: list[int]

    @property
    def num_discussions(self) -> int:
        return len(self.meeting_rounds)

    @property
    def num_ejections(self) -> int:
        return len(self.ejection_rounds)

    def utterances(self) -> list[UtteranceRecord]:
        out = []
        for event in self.events:
            if event.kind == "utterance":
                d = event.data
                out.append(
                    UtteranceRecord(
                        game_id=d["game_id"],
                        meeting_index=d["meeting_index"],
                        discussion_round=d["discussion_round"],
                        speaker_id=d["speaker_id"],
                        speaker_role=Role(d["speaker_role"]),
                        text=d["text"],
                        word_count=d["word_count"],
                    )
                )
        return out

    def to_dict(self) -> dict:
        return {
            "game_id": self.game_id,
            "config": self.config.to_dict(),
            "seed": self.seed,
            "outcome": self.outcome.to_dict(),
            "meeting_rounds": list(self.meeting_rounds),
            "ejection_rounds": list(self.ejection_rounds),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> GameRecord:
        return cls(
            game_id=data["game_id"],
            config=GameConfig.from_dict(data["config"]),
            seed=data["seed"],
            events=[Event.from_dict(e) for e in data["events"]],
            outcome=Outcome.from_dict(data["outcome"]),
            meeting_rounds=list(data["meeting_rounds"]),
            ejection_rounds=list(data["ejection_rounds"]),
        )
