"""The game state machine: task phases, meetings, voting, and termination.

A game is strictly sequential: players act one at a time in a seeded turn
order fixed at game start. Agent failures and illegal actions degrade to
no-op events so a game always runs to completion.

Agents are duck-typed; the engine calls three methods:

- ``decide(observation) -> AgentResponse | None`` (task phase; None = no-op)
- ``speak(observation) -> str`` (discussion; empty string = abstention)
- ``vote(observation) -> int | None`` (vote phase; None = Skip)

Every call goes through one path, ``_consult``, which builds the observation,
calls the method and logs a failure. A turn's legal menu is computed once, for
the observation, and the action the agent picks is checked against that same
menu when it is applied: no agent call changes the state, so the menu is still
the state's menu then. A direct call of ``apply_action`` without a menu still
computes and checks the full menu. A policy may also expose a
``last_exchange`` dict (``{"prompt": ..., "raw": ...}``) after each call; the
engine copies it into the event log, so chat-backed games record the exchange
of every ``decide`` and ``speak``. Ballot exchanges are not logged, and a
failed call has none.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from collections.abc import Sequence

from crewsim.core.types import (
    PHASE_FINISHED,
    PHASE_MEETING,
    PHASE_TASK,
    Action,
    ActionKind,
    GameConfig,
    GameRecord,
    GameState,
    MeetingCause,
    MeetingState,
    Outcome,
    PlayerState,
    Role,
    Task,
    player_name,
    validate_config,
    word_count,
)
from crewsim.engine.observation import MeetingContext, Observation

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Raised when a game is constructed from an invalid config."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class IllegalActionError(ValueError):
    """Raised by ``apply_action`` when the action is not in the legal menu."""


def assign_roles(config: GameConfig, rng: random.Random | None = None) -> list[Role]:
    """Seeded role shuffle; the first random draw of every game."""
    if rng is None:
        rng = random.Random(config.seed)
    roles = [Role.CREWMATE] * config.num_crew + [Role.IMPOSTOR] * config.num_impostors
    rng.shuffle(roles)
    return roles


def new_game(config: GameConfig, game_id: str | None = None) -> GameState:
    """Build the initial state: seeded roles, tasks, and turn order.

    Raises ``ConfigError`` on violations; warnings (off-grid player counts)
    are logged and the game proceeds.
    """
    issues = validate_config(config)
    violations = [i for i in issues if i.severity == "violation"]
    if violations:
        raise ConfigError(violations)
    for issue in issues:
        logger.warning("config: %s", issue)

    rng = random.Random(config.seed)
    n = config.num_players
    roles = assign_roles(config, rng)

    players = []
    for pid in range(n):
        tasks = []
        if roles[pid] is Role.CREWMATE:
            tasks = [Task(rng.choice(config.map.rooms)) for _ in range(config.tasks_per_crew)]
        players.append(
            PlayerState(
                id=pid,
                name=player_name(pid),
                role=roles[pid],
                location=config.map.cafeteria,
                tasks=tasks,
                # the kill cooldown also applies from the opening whistle
                kill_ready_at=config.kill_cooldown,
                emergency_calls_left=config.emergency_meetings_per_player,
            )
        )

    turn_order = list(range(n))
    rng.shuffle(turn_order)

    state = GameState(
        config=config,
        game_id=game_id or f"{config.label()}-s{config.seed}",
        rng=rng,
        players=players,
        turn_order=turn_order,
    )
    state.append_event(
        "game_start",
        {
            "game_id": state.game_id,
            "label": config.label(),
            "seed": config.seed,
            "roles": {str(p.id): p.role.value for p in players},
            "turn_order": list(turn_order),
            "tasks": {str(p.id): [t.room for t in p.tasks] for p in players},
        },
    )
    return state


def legal_actions(state: GameState, player_id: int) -> list[Action]:
    """The discrete action menu for ``player_id`` in the current phase."""
    player = state.player(player_id)
    if not player.alive:
        raise ValueError(f"player {player_id} is dead and has no actions")
    if state.phase == PHASE_FINISHED:
        return []
    if state.phase == PHASE_MEETING:
        meeting = state.meeting
        if meeting.discussion_round < state.config.discussion_rounds:
            return [Action.speak("")]
        votes = [Action.vote(p.id) for p in state.alive_players()]
        votes.append(Action.vote(None))
        return votes

    game_map = state.config.map
    actions = [Action.move(room) for room in game_map.neighbors(player.location)]
    actions.extend(
        Action.complete_task(i)
        for i, task in enumerate(player.tasks)
        if not task.done and task.room == player.location
    )
    if player.role is Role.IMPOSTOR:
        if state.timestep >= player.kill_ready_at:
            actions.extend(
                Action.kill(other.id)
                for other in state.alive_players()
                if other.role is Role.CREWMATE and other.location == player.location
            )
        actions.extend(Action.vent(room) for room in game_map.vent_neighbors(player.location))
    if state.bodies_in(player.location):
        actions.append(Action.report_body())
    if player.location == game_map.cafeteria and player.emergency_calls_left > 0:
        actions.append(Action.call_meeting())
    return actions


def _is_legal(menu: Sequence[Action], action: Action) -> bool:
    if action.kind is ActionKind.SPEAK:
        return any(a.kind is ActionKind.SPEAK for a in menu)
    return action in menu


def apply_action(state: GameState, player_id: int, action: Action, menu: Sequence[Action] | None = None):
    """Apply one legal action; returns ``(state, new_events)``.

    Raises ``IllegalActionError`` (state untouched) when the action is not in
    ``legal_actions``. ``menu``, when given, is that menu for the current
    state, as the turn's observation holds it; without it the menu is
    computed here. Win conditions are re-checked immediately, so a kill that
    creates parity finishes the game before anyone else acts.
    """
    if menu is None:
        menu = legal_actions(state, player_id)
    if not _is_legal(menu, action):
        raise IllegalActionError(f"player {player_id}: {action.tag!r} not in legal menu")

    player = state.player(player_id)
    before = len(state.events)
    kind = action.kind

    if kind is ActionKind.MOVE:
        player.location = action.room
        state.append_event("move", {"player": player_id, "to": action.room})
    elif kind is ActionKind.COMPLETE_TASK:
        task = player.tasks[action.task_index]
        task.done = True
        state.append_event(
            "task_complete", {"player": player_id, "task_index": action.task_index, "room": task.room}
        )
    elif kind is ActionKind.KILL:
        victim = state.player(action.target)
        victim.alive = False
        victim.death = "killed"
        state.bodies.append((victim.id, player.location))
        player.kill_ready_at = state.timestep + state.config.kill_cooldown
        state.append_event(
            "kill", {"killer": player_id, "victim": victim.id, "room": player.location}
        )
    elif kind is ActionKind.VENT:
        state.append_event("vent", {"player": player_id, "from": player.location, "to": action.room})
        player.location = action.room
    elif kind is ActionKind.REPORT_BODY:
        victim = min(state.bodies_in(player.location))
        _start_meeting(state, MeetingCause("body_report", player_id, victim))
    elif kind is ActionKind.CALL_MEETING:
        player.emergency_calls_left -= 1
        _start_meeting(state, MeetingCause("emergency", player_id))
    elif kind is ActionKind.SPEAK:
        _record_utterance(state, player_id, action.text or "")
    elif kind is ActionKind.VOTE:
        state.meeting.votes[player_id] = action.target
        state.append_event("vote", {"voter": player_id, "target": action.target})
    else:
        raise IllegalActionError(f"unhandled action kind {kind!r}")

    if state.phase == PHASE_TASK:
        outcome = _check_win(state)
        if outcome is not None:
            _finish(state, outcome)
    return state, state.events[before:]


def _record_utterance(state: GameState, player_id: int, text: str) -> None:
    meeting = state.meeting
    player = state.player(player_id)
    text = text.strip()
    meeting.transcript += ((player.name, text),)
    state.append_event(
        "utterance",
        {
            "game_id": state.game_id,
            "meeting_index": meeting.index,
            "discussion_round": meeting.discussion_round,
            "speaker_id": player_id,
            "speaker_role": player.role.value,
            "text": text,
            "word_count": word_count(text),
        },
    )


def _start_meeting(state: GameState, cause: MeetingCause) -> None:
    state.phase = PHASE_MEETING
    meeting = MeetingState(
        cause=cause,
        index=len(state.meeting_rounds),
        attendees=tuple((p.id, p.name) for p in state.alive_players()),
    )
    state.meeting = meeting
    state.meeting_rounds.append(state.round)
    state.append_event(
        "meeting_start",
        {
            "meeting_index": meeting.index,
            "cause": cause.kind,
            "caller": cause.caller,
            "victim": cause.victim,
        },
    )
    state.announce(meeting.cause_text)


def _check_win(state: GameState) -> Outcome | None:
    """The win conditions in their fixed precedence order.

    Parity (alive impostors >= alive crewmates), then all impostors ejected,
    then all tasks done. At most one condition can become newly true per
    action, so the fixed order matches action order.
    """
    impostors = state.alive_count(Role.IMPOSTOR)
    crew = state.alive_count(Role.CREWMATE)
    if impostors >= crew:
        return Outcome.impostor_parity()
    if impostors == 0:
        return Outcome.crew_ejected()
    if state.all_tasks_done():
        return Outcome.crew_tasks()
    return None


def check_termination(state: GameState) -> Outcome | None:
    """The win conditions, then the round cap, which applies between phases."""
    outcome = _check_win(state)
    if outcome is None and state.round >= state.config.max_rounds:
        return Outcome.timeout()
    return outcome


def _finish(state: GameState, outcome: Outcome) -> None:
    state.phase = PHASE_FINISHED
    state.outcome = outcome
    state.meeting = None
    state.append_event("game_end", {"winner": outcome.winner, "reason": outcome.reason})


def tally_votes(votes: dict[int, int | None]) -> int | None:
    """The unique strict-plurality target, or None.

    A player is ejected only with strictly more votes than every other player
    and strictly more than Skip; Skip itself never ejects anyone.
    """
    if not votes:
        return None
    counts = Counter(target for target in votes.values() if target is not None)
    if not counts:
        return None
    skip = sum(1 for target in votes.values() if target is None)
    (leader, top), *rest = counts.most_common()
    if rest and rest[0][1] == top:
        return None
    if top <= skip:
        return None
    return leader


def build_observation(state: GameState, player_id: int) -> Observation:
    """Assemble the player's view and mark public announcements as seen."""
    player = state.player(player_id)
    if not player.alive:
        raise ValueError(f"player {player_id} is dead and cannot observe")

    cursor = state.public_cursor.get(player_id, 0)
    unseen = tuple(state.public_events[cursor:])
    state.public_cursor[player_id] = len(state.public_events)

    room = player.location
    visible = tuple(
        (other.id, other.name)
        for other in state.alive_players()
        if other.location == room and other.id != player_id
    )
    bodies = tuple((victim, player_name(victim)) for victim in state.bodies_in(room))

    meeting_ctx = None
    if state.phase == PHASE_MEETING:
        meeting = state.meeting
        stage = "discussion" if meeting.discussion_round < state.config.discussion_rounds else "vote"
        meeting_ctx = MeetingContext(
            index=meeting.index,
            cause=meeting.cause_text,
            stage=stage,
            discussion_round=meeting.discussion_round,
            attendees=meeting.attendees,
            transcript=meeting.transcript,
        )

    return Observation(
        viewer_id=player_id,
        viewer_name=player.name,
        viewer_role=player.role,
        round=state.round,
        current_room=room,
        visible_players=visible,
        visible_bodies=bodies,
        tasks=tuple((i, t.room, t.done) for i, t in enumerate(player.tasks)),
        legal_actions=tuple(legal_actions(state, player_id)),
        public_events=unseen,
        meeting=meeting_ctx,
        kill_ready_in=(
            max(0, player.kill_ready_at - state.timestep) if player.role is Role.IMPOSTOR else None
        ),
        emergency_calls_left=player.emergency_calls_left,
        adjacent_rooms=state.config.map.neighbors(room),
        vent_rooms=state.config.map.vent_neighbors(room) if player.role is Role.IMPOSTOR else (),
    )


# The fields of a policy's ``last_exchange`` copied into the event log.
EXCHANGE_FIELDS = ("prompt", "raw")


def _seated(state: GameState):
    """The alive players in turn order, each checked when its turn comes, so
    a player killed earlier in the same pass is skipped."""
    return (pid for pid in state.turn_order if state.players[pid].alive)


def _consult(state: GameState, agents: dict, pid: int, method: str):
    """Ask player ``pid``'s agent for a decision through ``method``
    (``"decide"``, ``"speak"`` or ``"vote"``) on a fresh observation.

    Returns ``(menu, reply, exchange, error)``: the legal menu the agent was
    shown, to hand to ``apply_action``; the agent's reply; the exchange fields
    to log; and the failure text or None. A failed call is logged and has no
    reply and no exchange.
    """
    observation = build_observation(state, pid)
    menu = observation.legal_actions
    agent = agents[pid]
    try:
        reply = getattr(agent, method)(observation)
    except Exception as exc:  # noqa: BLE001 - agent failures must not kill the game
        logger.warning("game %s: agent %d failed to %s: %s", state.game_id, pid, method, exc)
        return menu, None, {}, str(exc)
    exchange = getattr(agent, "last_exchange", None)
    if not isinstance(exchange, dict):
        exchange = {}
    return menu, reply, {k: v for k, v in exchange.items() if k in EXCHANGE_FIELDS}, None


def run_task_phase(state: GameState, agents: dict) -> GameState:
    """One timestep: every alive player acts once in the fixed turn order.

    The phase ends early when a report or emergency call flips the game into
    a meeting (remaining players forfeit their turn this timestep) or when a
    win condition fires.
    """
    if state.phase != PHASE_TASK:
        raise ValueError(f"run_task_phase called in phase {state.phase!r}")
    state.round += 1
    state.timestep = state.round

    for pid in _seated(state):
        if state.phase != PHASE_TASK:
            break
        menu, response, exchange, error = _consult(state, agents, pid, "decide")
        if error is not None:
            state.append_event("no_op", {"player": pid, "reason": "agent_error", "detail": error})
            continue
        if response is None:
            state.append_event("no_op", {"player": pid, "reason": "abstention", **exchange})
            continue
        state.append_event(
            "turn",
            {
                "player": pid,
                "condensed_memory": response.condensed_memory,
                "thinking": response.thinking,
                "action": response.action.tag,
                **exchange,
            },
        )
        try:
            apply_action(state, pid, response.action, menu)
        except IllegalActionError as exc:
            state.append_event("no_op", {"player": pid, "reason": "illegal", "detail": str(exc)})
    return state


def run_meeting(state: GameState, agents: dict) -> tuple[GameState, MeetingState]:
    """Run k discussion rounds, then a private simultaneous vote and tally."""
    if state.phase != PHASE_MEETING:
        raise ValueError(f"run_meeting called in phase {state.phase!r}")
    meeting = state.meeting
    if meeting.discussion_round != 0 or meeting.votes:
        raise ValueError("meeting already ran")

    k = state.config.discussion_rounds
    for _ in range(k):
        for pid in _seated(state):
            menu, text, exchange, _ = _consult(state, agents, pid, "speak")
            apply_action(state, pid, Action.speak(text or ""), menu)
            state.events[-1].data.update(exchange)
        meeting.discussion_round += 1

    for pid in _seated(state):
        menu, target, _, _ = _consult(state, agents, pid, "vote")  # ballot exchanges are not logged
        if target is None or isinstance(target, int):
            ballot = Action.vote(target)
            try:
                apply_action(state, pid, ballot, menu)
                continue
            except IllegalActionError:
                detail = ballot.tag
        else:
            detail = repr(target)  # no player id, so no VOTE action can carry it
        state.append_event("no_op", {"player": pid, "reason": "illegal_vote", "detail": detail})
        apply_action(state, pid, Action.vote(None), menu)

    ejected = tally_votes(meeting.votes)
    state.append_event(
        "votes_tallied",
        {
            "meeting_index": meeting.index,
            "votes": {str(voter): target for voter, target in meeting.votes.items()},
            "ejected": ejected,
        },
    )
    if ejected is not None:
        target = state.player(ejected)
        target.alive = False
        target.death = "ejected"
        state.ejection_rounds.append(state.round)
        state.append_event("ejection", {"player": ejected, "meeting_index": meeting.index})
        role_text = "an Impostor" if target.role is Role.IMPOSTOR else "not an Impostor"
        state.append_event("reveal", {"player": ejected, "role": target.role.value})
        state.announce(f"{target.name} was ejected. {target.name} was {role_text}.")
    else:
        state.append_event("no_ejection", {"meeting_index": meeting.index})
        state.announce("The vote ended with no ejection.")

    state.bodies.clear()
    state.append_event("meeting_end", {"meeting_index": meeting.index})
    state.meeting = None
    state.phase = PHASE_TASK
    outcome = _check_win(state)
    if outcome is not None:
        _finish(state, outcome)
    return state, meeting


def _normalize_agents(state: GameState, agents) -> dict:
    roster = dict(agents) if isinstance(agents, dict) else dict(enumerate(agents))
    missing = [p.id for p in state.players if p.id not in roster]
    if missing:
        raise ValueError(f"no agent supplied for players {missing}")
    return roster


def run_game(config: GameConfig, agents, game_id: str | None = None) -> GameRecord:
    """Play a full game and return its record.

    ``agents`` is a list (index = player id) or dict of policies, one per
    player. Only configuration errors propagate; agent failures degrade to
    no-op events.
    """
    state = new_game(config, game_id)
    roster = _normalize_agents(state, agents)
    while state.phase != PHASE_FINISHED:
        if state.phase == PHASE_TASK:
            run_task_phase(state, roster)
        if state.phase == PHASE_MEETING:
            run_meeting(state, roster)
        if state.phase != PHASE_FINISHED:
            outcome = check_termination(state)
            if outcome is not None:
                _finish(state, outcome)
    return GameRecord(
        game_id=state.game_id,
        config=config,
        seed=config.seed,
        events=state.events,
        outcome=state.outcome,
        meeting_rounds=state.meeting_rounds,
        ejection_rounds=state.ejection_rounds,
    )
