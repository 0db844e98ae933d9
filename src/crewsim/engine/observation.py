"""What a single player is allowed to see on their turn."""

from __future__ import annotations

from dataclasses import dataclass, field

from crewsim.core.types import Action, Role


@dataclass(frozen=True)
class MeetingContext:
    """Public meeting information shared by everyone at the table."""

    index: int
    cause: str
    stage: str  # "discussion" | "vote"
    discussion_round: int
    attendees: tuple[tuple[int, str], ...]
    transcript: tuple[tuple[str, str], ...]  # (speaker name, text); text "" = abstained


@dataclass(frozen=True)
class Observation:
    """Per-player view of the game; never contains another player's role.

    During the task phase the visible player/body sets are restricted to the
    viewer's current room. ``public_events`` holds announcements (meeting
    causes, ejections, role reveals) the viewer has not seen yet.
    """

    viewer_id: int
    viewer_name: str
    viewer_role: Role
    round: int
    current_room: str
    visible_players: tuple[tuple[int, str], ...]  # same room, alive, excluding viewer
    visible_bodies: tuple[tuple[int, str], ...]  # (victim id, victim name)
    tasks: tuple[tuple[int, str, bool], ...]  # (index, room, done)
    legal_actions: tuple[Action, ...]
    public_events: tuple[str, ...] = ()
    meeting: MeetingContext | None = None
    kill_ready_in: int | None = None  # impostors only; 0 means ready now
    emergency_calls_left: int = 0
    adjacent_rooms: tuple[str, ...] = ()
    vent_rooms: tuple[str, ...] = field(default=())
