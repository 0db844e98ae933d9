"""State machine behavior: setup, menus, effects, meetings, termination."""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crewsim.agents.base import AgentResponse
from crewsim.agents.chat import ChatEndpointConfig, make_chat_roster
from crewsim.agents.mock_server import MockChatServer
from crewsim.agents.scripted import make_scripted_roster
from crewsim.core.serialize import encode_record
from crewsim.core.types import (
    PHASE_FINISHED,
    PHASE_MEETING,
    PHASE_TASK,
    Action,
    ActionKind,
    GameConfig,
    Outcome,
    Role,
    player_name,
)
from crewsim.engine import engine
from crewsim.engine.engine import (
    ConfigError,
    IllegalActionError,
    apply_action,
    build_observation,
    check_termination,
    legal_actions,
    new_game,
    run_game,
    run_meeting,
    run_task_phase,
    tally_votes,
)
from crewsim.engine.replay import verify_record
from mockmodels import game_reply


def response(action: Action) -> AgentResponse:
    return AgentResponse(condensed_memory="", thinking="", action=action)


class Scripted:
    """Test policy driven by canned callables."""

    def __init__(self, decide=None, speak=None, vote=None):
        self._decide = decide or (lambda obs: None)
        self._speak = speak or (lambda obs: "")
        self._vote = vote or (lambda obs: None)
        self.decide_calls = 0

    def decide(self, obs):
        self.decide_calls += 1
        return self._decide(obs)

    def speak(self, obs):
        return self._speak(obs)

    def vote(self, obs):
        return self._vote(obs)


def idle_roster(n):
    return [Scripted() for _ in range(n)]


# ---- new_game ----


def test_new_game_is_deterministic():
    cfg = GameConfig(3, 1, seed=99)
    a, b = new_game(cfg), new_game(cfg)
    assert [p.role for p in a.players] == [p.role for p in b.players]
    assert a.turn_order == b.turn_order
    assert [[t.room for t in p.tasks] for p in a.players] == [
        [t.room for t in p.tasks] for p in b.players
    ]


def test_new_game_role_and_task_counts():
    state = new_game(GameConfig(5, 2, seed=3))
    assert sum(1 for p in state.players if p.role is Role.IMPOSTOR) == 2
    state = new_game(GameConfig(3, 1, tasks_per_crew=3, seed=3))
    assert sum(len(p.tasks) for p in state.players) == 9
    assert all(not p.tasks for p in state.players if p.role is Role.IMPOSTOR)
    assert all(p.location == state.config.map.cafeteria for p in state.players)


def test_new_game_rejects_violations():
    with pytest.raises(ConfigError):
        new_game(GameConfig(2, 3, seed=0))


# ---- legal actions ----


def impostor_and_crew(state):
    imp = next(p for p in state.players if p.role is Role.IMPOSTOR)
    crew = next(p for p in state.players if p.role is Role.CREWMATE)
    return imp, crew


def test_kill_available_when_alone_with_crewmate():
    state = new_game(GameConfig(3, 1, seed=5, kill_cooldown=0))
    imp, crew = impostor_and_crew(state)
    for p in state.players:
        p.location = "Admin"
    imp.location = crew.location = "Storage"
    state.round = state.timestep = 1
    menu = legal_actions(state, imp.id)
    assert Action.kill(crew.id) in menu
    assert all(a.target == crew.id for a in menu if a.kind.value == "kill")


def test_kill_respects_cooldown():
    state = new_game(GameConfig(3, 1, seed=5, kill_cooldown=4))
    imp, crew = impostor_and_crew(state)
    state.round = state.timestep = 2
    assert Action.kill(crew.id) not in legal_actions(state, imp.id)
    state.round = state.timestep = 4
    assert Action.kill(crew.id) in legal_actions(state, imp.id)


def test_report_body_requires_body_in_room():
    state = new_game(GameConfig(3, 1, seed=5))
    _, crew = impostor_and_crew(state)
    assert Action.report_body() not in legal_actions(state, crew.id)
    victim = next(p for p in state.players if p.id != crew.id)
    state.bodies.append((victim.id, crew.location))
    assert Action.report_body() in legal_actions(state, crew.id)


def test_emergency_meeting_only_in_cafeteria_with_budget():
    state = new_game(GameConfig(3, 1, seed=5))
    _, crew = impostor_and_crew(state)
    assert Action.call_meeting() in legal_actions(state, crew.id)
    crew.location = "Electrical"
    assert Action.call_meeting() not in legal_actions(state, crew.id)
    crew.location = state.config.map.cafeteria
    crew.emergency_calls_left = 0
    assert Action.call_meeting() not in legal_actions(state, crew.id)


def test_crew_menu_never_contains_kill_or_vent():
    state = new_game(GameConfig(4, 2, seed=8, kill_cooldown=0))
    state.round = state.timestep = 1
    for p in state.players:
        if p.role is Role.CREWMATE:
            kinds = {a.kind.value for a in legal_actions(state, p.id)}
            assert "kill" not in kinds and "vent" not in kinds


def test_dead_player_has_no_actions():
    state = new_game(GameConfig(3, 1, seed=5))
    state.players[0].alive = False
    with pytest.raises(ValueError):
        legal_actions(state, 0)
    with pytest.raises(KeyError):
        legal_actions(state, 42)


# ---- apply_action ----


def test_move_changes_only_location():
    state = new_game(GameConfig(3, 1, seed=5))
    target = state.config.map.neighbors(state.players[0].location)[0]
    before = [(p.alive, len(p.tasks)) for p in state.players]
    apply_action(state, 0, Action.move(target))
    assert state.players[0].location == target
    assert [(p.alive, len(p.tasks)) for p in state.players] == before


def test_kill_leaves_a_body_and_sets_cooldown():
    state = new_game(GameConfig(3, 1, seed=5, kill_cooldown=3))
    imp, crew = impostor_and_crew(state)
    state.round = state.timestep = 3
    _, events = apply_action(state, imp.id, Action.kill(crew.id))
    assert not crew.alive and crew.death == "killed"
    assert (crew.id, imp.location) in state.bodies
    assert imp.kill_ready_at == 6
    assert any(e.kind == "kill" for e in events)


def test_completing_last_task_wins_for_crew():
    cfg = GameConfig(3, 1, seed=5, tasks_per_crew=1)
    state = new_game(cfg)
    crews = [p for p in state.players if p.role is Role.CREWMATE]
    for p in crews[:-1]:
        for t in p.tasks:
            t.done = True
    last = crews[-1]
    last.location = last.tasks[0].room
    apply_action(state, last.id, Action.complete_task(0))
    assert state.phase == PHASE_FINISHED
    assert state.outcome == Outcome.crew_tasks()


def test_illegal_action_raises_and_leaves_state_unchanged():
    state = new_game(GameConfig(3, 1, seed=5))
    events_before = len(state.events)
    location = state.players[0].location
    with pytest.raises(IllegalActionError):
        apply_action(state, 0, Action.move("Navigation"))  # not adjacent to Cafeteria
    assert len(state.events) == events_before
    assert state.players[0].location == location


def test_report_switches_phase_to_meeting():
    state = new_game(GameConfig(3, 1, seed=5))
    _, crew = impostor_and_crew(state)
    victim = next(p for p in state.players if p.id != crew.id)
    victim.alive = False
    victim.death = "killed"
    state.bodies.append((victim.id, crew.location))
    apply_action(state, crew.id, Action.report_body())
    assert state.phase == PHASE_MEETING
    assert state.meeting.cause.kind == "body_report"
    assert state.meeting.cause.victim == victim.id


# ---- task phase ----


def test_quiet_task_phase_advances_one_timestep():
    state = new_game(GameConfig(3, 1, seed=5))
    run_task_phase(state, idle_roster(4))
    assert state.phase == PHASE_TASK
    assert state.round == 1 and state.timestep == 1


def test_meeting_trigger_skips_remaining_players():
    state = new_game(GameConfig(3, 1, seed=5))
    order = state.turn_order
    # plant a body in the cafeteria so the third player in order can report it
    victim = order[3]
    state.players[victim].alive = False
    state.players[victim].death = "killed"
    state.bodies.append((victim, state.config.map.cafeteria))

    agents = {pid: Scripted() for pid in order}
    agents[order[2]] = Scripted(decide=lambda obs: response(Action.report_body()))
    run_task_phase(state, agents)

    assert state.phase == PHASE_MEETING
    assert agents[order[0]].decide_calls == 1
    assert agents[order[1]].decide_calls == 1
    assert agents[order[2]].decide_calls == 1
    assert agents[order[3]].decide_calls == 0  # dead, and phase flipped anyway


def test_parity_kill_ends_phase_before_later_players_act():
    cfg = GameConfig(3, 1, seed=5, kill_cooldown=0)
    state = None
    for seed in range(60):
        candidate = new_game(GameConfig(3, 1, seed=seed, kill_cooldown=0))
        imp = next(p for p in candidate.players if p.role is Role.IMPOSTOR)
        if candidate.turn_order[0] == imp.id:
            state = candidate
            break
    assert state is not None, "no seed put the impostor first in turn order"
    imp = next(p for p in state.players if p.role is Role.IMPOSTOR)
    # one crewmate already dead: the next kill reaches parity
    first_crew = next(p for p in state.players if p.role is Role.CREWMATE)
    first_crew.alive = False
    first_crew.death = "killed"

    def kill_someone(obs):
        kills = [a for a in obs.legal_actions if a.kind.value == "kill"]
        return response(kills[0]) if kills else None

    agents = {p.id: Scripted() for p in state.players}
    agents[imp.id] = Scripted(decide=kill_someone)
    run_task_phase(state, agents)

    assert state.phase == PHASE_FINISHED
    assert state.outcome == Outcome.impostor_parity()
    assert all(a.decide_calls == 0 for pid, a in agents.items() if pid != imp.id)


def test_agent_exception_degrades_to_no_op():
    state = new_game(GameConfig(3, 1, seed=5))

    def boom(obs):
        raise RuntimeError("agent crashed")

    agents = idle_roster(4)
    agents[state.turn_order[0]] = Scripted(decide=boom)
    run_task_phase(state, agents)
    assert state.phase == PHASE_TASK
    reasons = [e.data["reason"] for e in state.events if e.kind == "no_op"]
    assert "agent_error" in reasons


class FailsAfterFirstDecide(Scripted):
    """Abstains once with an exchange, as a chat agent does, then raises on
    every later ``decide`` while that old exchange stays set."""

    def decide(self, obs):
        self.decide_calls += 1
        if self.decide_calls > 1:
            raise RuntimeError("endpoint down")
        self.last_exchange = {"prompt": "first prompt", "raw": "first reply"}
        return None


def test_failed_decide_logs_agent_error_without_the_stale_exchange():
    state = new_game(GameConfig(3, 1, seed=5))
    pid = state.turn_order[0]
    agents = idle_roster(4)
    agents[pid] = FailsAfterFirstDecide()
    run_task_phase(state, agents)
    run_task_phase(state, agents)
    first, second = [e.data for e in state.events if e.kind == "no_op" and e.data["player"] == pid]
    assert first == {"player": pid, "reason": "abstention", "prompt": "first prompt", "raw": "first reply"}
    assert second == {"player": pid, "reason": "agent_error", "detail": "endpoint down"}


# ---- meetings ----


def start_emergency_meeting(state):
    caller = next(p for p in state.players if p.alive)
    apply_action(state, caller.id, Action.call_meeting())
    return caller


def test_meeting_produces_k_rounds_of_utterances():
    state = new_game(GameConfig(3, 1, seed=5, discussion_rounds=3))
    start_emergency_meeting(state)
    agents = {p.id: Scripted(speak=lambda obs: "" ) for p in state.players}
    _, meeting = run_meeting(state, agents)
    assert len(meeting.transcript) == 12  # 4 alive x k=3, abstentions included
    assert all(text == "" for _, text in meeting.transcript)
    assert meeting.discussion_round == 3


def test_ejection_reveals_role_and_clears_bodies():
    state = new_game(GameConfig(3, 1, seed=5))
    imp, _ = impostor_and_crew(state)
    state.bodies.append((99, "Storage"))  # cleared regardless of validity
    start_emergency_meeting(state)
    agents = {p.id: Scripted(vote=lambda obs, t=imp.id: t) for p in state.players}
    run_meeting(state, agents)
    assert not state.players[imp.id].alive
    assert state.players[imp.id].death == "ejected"
    reveal = next(e for e in state.events if e.kind == "reveal")
    assert reveal.data == {"player": imp.id, "role": "impostor"}
    assert state.bodies == []
    assert state.phase == PHASE_FINISHED  # sole impostor ejected -> crew win
    assert state.outcome == Outcome.crew_ejected()


def test_all_skip_votes_resume_play():
    state = new_game(GameConfig(3, 1, seed=5))
    start_emergency_meeting(state)
    agents = {p.id: Scripted() for p in state.players}  # everyone skips
    run_meeting(state, agents)
    assert state.phase == PHASE_TASK
    assert any(e.kind == "no_ejection" for e in state.events)
    assert state.ejection_rounds == []


def test_invalid_vote_becomes_skip():
    state = new_game(GameConfig(3, 1, seed=5))
    start_emergency_meeting(state)
    agents = {p.id: Scripted(vote=lambda obs: 77) for p in state.players}
    run_meeting(state, agents)
    tallied = next(e for e in state.events if e.kind == "votes_tallied")
    assert all(target is None for target in tallied.data["votes"].values())


@pytest.mark.parametrize("target", ["Red", 1.5, [1]])
def test_a_ballot_that_is_no_player_id_becomes_a_logged_skip(target):
    state = new_game(GameConfig(3, 1, seed=5))
    start_emergency_meeting(state)
    agents = {p.id: Scripted(vote=lambda obs: target) for p in state.players}
    run_meeting(state, agents)
    no_ops = [e.data for e in state.events if e.kind == "no_op"]
    expected = {"reason": "illegal_vote", "detail": repr(target)}
    assert no_ops == [{"player": pid, **expected} for pid in state.turn_order]
    ballots = [e.data["target"] for e in state.events if e.kind == "vote"]
    assert ballots == [None] * len(state.players)


def test_raising_vote_becomes_skip_ballot():
    state = new_game(GameConfig(3, 1, seed=5))
    imp, crew = impostor_and_crew(state)
    start_emergency_meeting(state)

    def boom(obs):
        raise RuntimeError("endpoint down")

    agents = {p.id: Scripted(vote=lambda obs, t=imp.id: t) for p in state.players}
    agents[crew.id] = Scripted(vote=boom)
    run_meeting(state, agents)
    ballots = {e.data["voter"]: e.data["target"] for e in state.events if e.kind == "vote"}
    assert ballots[crew.id] is None
    assert sum(target == imp.id for target in ballots.values()) == 3
    assert not any(e.kind == "no_op" for e in state.events)


class FlakySpeaker(Scripted):
    """Keeps its last exchange, as a chat agent does, and raises on every
    second ``speak`` before that call has an exchange."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def speak(self, obs):
        self.calls += 1
        if self.calls % 2 == 0:
            raise RuntimeError("endpoint down")
        self.last_exchange = {"prompt": f"prompt #{self.calls}", "raw": f"reply #{self.calls}"}
        return f"statement {self.calls}"


def test_failed_speak_logs_no_exchange():
    state = new_game(GameConfig(3, 1, seed=5, discussion_rounds=2))
    start_emergency_meeting(state)
    agents = {p.id: FlakySpeaker() for p in state.players}
    run_meeting(state, agents)
    utterances = [e.data for e in state.events if e.kind == "utterance"]
    assert len(utterances) == 8
    for data in utterances:
        if data["text"]:
            call = data["text"].split()[-1]
            assert (data["prompt"], data["raw"]) == (f"prompt #{call}", f"reply #{call}")
        else:
            assert "prompt" not in data and "raw" not in data


# ---- voting ----


def brute_force_tally(votes):
    candidates = {}
    skip = 0
    for target in votes.values():
        if target is None:
            skip += 1
        else:
            candidates[target] = candidates.get(target, 0) + 1
    winners = [
        c
        for c, n in candidates.items()
        if n > skip and all(n > m for other, m in candidates.items() if other != c)
    ]
    return winners[0] if len(winners) == 1 else None


def test_tally_examples():
    assert tally_votes({0: 2, 1: 2, 2: 2, 3: 1, 4: None}) == 2
    assert tally_votes({0: 1, 1: 0, 2: 0, 3: 1}) is None  # 2-2 tie
    assert tally_votes({0: None, 1: None, 2: None, 3: 1}) is None  # skip dominates
    assert tally_votes({}) is None


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        max_size=5,
    )
)
def test_tally_matches_brute_force(votes):
    assert tally_votes(votes) == brute_force_tally(votes)


# ---- termination ----


def termination_oracle(impostors, crew, tasks_done, round_, max_rounds):
    if impostors >= crew:
        return Outcome.impostor_parity()
    if impostors == 0:
        return Outcome.crew_ejected()
    if tasks_done:
        return Outcome.crew_tasks()
    if round_ >= max_rounds:
        return Outcome.timeout()
    return None


def make_state_with(impostors, crew, tasks_done):
    state = new_game(GameConfig(8, 1, seed=1, tasks_per_crew=1))
    # rebuild the population to the requested counts
    for p in state.players:
        p.alive = False
        p.death = "killed"
        p.tasks = []
    alive = 0
    for p in state.players:
        if alive < impostors:
            p.role = Role.IMPOSTOR
            p.alive = True
            p.death = None
            alive += 1
    for p in state.players:
        if not p.alive and crew > 0:
            p.role = Role.CREWMATE
            p.alive = True
            p.death = None
            from crewsim.core.types import Task

            p.tasks = [Task("Storage", done=tasks_done)]
            crew -= 1
    return state


def test_termination_examples():
    state = make_state_with(2, 2, False)
    assert check_termination(state) == Outcome.impostor_parity()
    state = make_state_with(0, 3, False)
    assert check_termination(state) == Outcome.crew_ejected()
    state = make_state_with(1, 3, True)
    assert check_termination(state) == Outcome.crew_tasks()
    state = make_state_with(1, 3, False)
    assert check_termination(state) is None
    state.round = state.config.max_rounds
    assert check_termination(state) == Outcome.timeout()


def test_termination_matches_rule_table_small():
    for impostors, crew, done in itertools.product(range(4), range(4), (False, True)):
        if impostors + crew == 0 or impostors + crew > 8:
            continue
        state = make_state_with(impostors, crew, done)
        expected = termination_oracle(impostors, crew, done, state.round, state.config.max_rounds)
        assert check_termination(state) == expected, (impostors, crew, done)


# ---- full games ----


def test_stand_still_crew_fall_to_hunter():
    cfg = GameConfig(3, 1, seed=21, kill_cooldown=3)
    record = run_game(cfg, make_scripted_roster(cfg, crew="stand_still", impostor="hunter"))
    assert record.outcome == Outcome.impostor_parity()
    kill_rounds = [e.round for e in record.events if e.kind == "kill"]
    assert kill_rounds == [3, 6]  # first kill when the opening cooldown elapses


def test_task_rushers_beat_pacifist():
    cfg = GameConfig(3, 1, seed=21)
    record = run_game(cfg, make_scripted_roster(cfg, crew="task_rusher", impostor="pacifist"))
    assert record.outcome == Outcome.crew_tasks()
    assert record.meeting_rounds == []


def test_stand_still_everyone_times_out():
    cfg = GameConfig(3, 1, seed=21, max_rounds=12)
    record = run_game(cfg, make_scripted_roster(cfg, crew="stand_still", impostor="pacifist"))
    assert record.outcome == Outcome.timeout()
    assert record.events[-1].round == 12


def test_run_game_requires_full_roster(small_config):
    with pytest.raises(ValueError):
        run_game(small_config, [Scripted(), Scripted()])


# ---- invariants over random games ----


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([(3, 1), (4, 2), (6, 1)]))
def test_game_invariants(seed, shape):
    crew, impostors = shape
    cfg = GameConfig(crew, impostors, seed=seed)
    record = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))

    # conservation: every player is exactly one of alive/killed/ejected at the end
    kills = sum(1 for e in record.events if e.kind == "kill")
    ejections = sum(1 for e in record.events if e.kind == "ejection")
    assert kills + ejections < cfg.num_players

    # alive count never increases
    alive = cfg.num_players
    for event in record.events:
        if event.kind in ("kill", "ejection"):
            alive -= 1
        assert alive >= 1

    # phase legality: utterances and votes only happen between meeting_start/meeting_end
    in_meeting = False
    for event in record.events:
        if event.kind == "meeting_start":
            in_meeting = True
        elif event.kind == "meeting_end":
            in_meeting = False
        elif event.kind in ("utterance", "vote", "votes_tallied", "ejection", "reveal", "no_ejection"):
            assert in_meeting, event.kind
        elif event.kind in ("move", "task_complete", "kill", "vent"):
            assert not in_meeting, event.kind

    # determinism and replayability
    again = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))
    assert encode_record(again) == encode_record(record)
    assert verify_record(record) == []


def test_chat_game_with_meeting_replays_exactly():
    with MockChatServer(game_reply) as server:
        endpoint = ChatEndpointConfig(base_url=server.url, model="mock", timeout=5.0, max_retries=0)
        cfg = GameConfig(3, 1, seed=2, max_rounds=20)
        record = run_game(cfg, make_chat_roster(cfg, endpoint))
    spoken = [e for e in record.events if e.kind == "utterance" and e.data["text"]]
    assert spoken and all("prompt" in e.data and "raw" in e.data for e in spoken)
    assert verify_record(record) == []


TASK_PHASE_KINDS = (
    ActionKind.KILL,
    ActionKind.REPORT_BODY,
    ActionKind.COMPLETE_TASK,
    ActionKind.VENT,
    ActionKind.CALL_MEETING,
    ActionKind.MOVE,
)


def menu_picker(played: set, illegal_at=None, fail_at=None) -> Scripted:
    """Plays the menu's first kind in ``TASK_PHASE_KINDS`` order; its turn
    ``illegal_at`` plays an action off the menu and its turn ``fail_at`` raises."""
    turns = itertools.count()

    def decide(obs):
        turn = next(turns)
        if turn == fail_at:
            raise RuntimeError("agent down")
        if turn == illegal_at:
            return response(Action.move("Nowhere"))
        kind = next(k for k in TASK_PHASE_KINDS if any(a.kind is k for a in obs.legal_actions))
        options = [a for a in obs.legal_actions if a.kind is kind]
        played.add(kind)
        return response(options[obs.round % len(options)])

    return Scripted(decide=decide)


def test_every_task_phase_kind_an_illegal_action_and_an_agent_error_replay():
    played = set()
    cfg = GameConfig(4, 1, seed=1, max_rounds=40)
    record = run_game(cfg, [menu_picker(played, 3, 4) if pid == 0 else menu_picker(played) for pid in range(5)])
    assert played == set(TASK_PHASE_KINDS)
    reasons = {e.data["reason"] for e in record.events if e.kind == "no_op"}
    assert {"illegal", "agent_error"} <= reasons
    assert verify_record(record) == []


def test_rewritten_game_start_is_reported():
    cfg = GameConfig(3, 1, seed=7)
    record = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))
    record.events[0].data["turn_order"].reverse()
    problems = verify_record(record)
    assert len(problems) == 1 and "index 0" in problems[0] and "game_start" in problems[0]


def test_rewritten_turn_bookkeeping_is_not_reported():
    cfg = GameConfig(3, 1, seed=7)
    record = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))
    turn = next(e for e in record.events if e.kind == "turn")
    turn.data["thinking"] = "rewritten after the game"
    assert verify_record(record) == []


def test_one_legal_menu_per_observation(monkeypatch):
    """The menu a turn's observation shows is the menu ``apply_action``
    checks, so a game computes one menu per observation and none per action."""
    calls = Counter()
    for name in ("legal_actions", "build_observation", "apply_action"):

        def counting(*args, _name=name, _original=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
    cfg = GameConfig(4, 2, seed=10)
    record = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))
    assert record.meeting_rounds and calls["apply_action"] > 0
    assert calls["legal_actions"] == calls["build_observation"]


class KeepsMeetingObservations:
    """Plays a scripted policy and keeps every meeting observation it gets."""

    def __init__(self, policy, kept: list):
        self.policy, self.kept = policy, kept

    def decide(self, obs):
        return self.policy.decide(obs)

    def speak(self, obs):
        self.kept.append(("speak", obs))
        return self.policy.speak(obs)

    def vote(self, obs):
        self.kept.append(("vote", obs))
        return self.policy.vote(obs)


def test_kept_meeting_observations_still_hold_their_own_transcript():
    """Observations share the meeting's transcript tuple; one kept until the
    game ends must still hold only the utterances made before it was built."""
    cfg = GameConfig(4, 2, seed=10, discussion_rounds=3)
    kept = []
    roster = [KeepsMeetingObservations(p, kept) for p in make_scripted_roster(cfg, "random_walker", "hunter")]
    record = run_game(cfg, roster)
    said = defaultdict(list)
    for e in record.events:
        if e.kind == "utterance":
            said[e.data["meeting_index"]].append((player_name(e.data["speaker_id"]), e.data["text"]))
    assert len(said) >= 2
    spoken = Counter()
    for method, obs in kept:
        index = obs.meeting.index
        if method == "speak":
            assert obs.meeting.transcript == tuple(said[index][: spoken[index]])
            spoken[index] += 1
        else:
            assert obs.meeting.transcript == tuple(said[index])
    assert sum(spoken.values()) == sum(map(len, said.values()))


def test_observation_restricts_visibility():
    state = new_game(GameConfig(4, 2, seed=13))
    mover = state.players[0]
    mover.location = "Storage"
    obs = build_observation(state, mover.id)
    assert obs.visible_players == ()  # everyone else is still in the cafeteria
    other = state.players[1]
    obs_other = build_observation(state, other.id)
    visible_ids = {pid for pid, _ in obs_other.visible_players}
    assert mover.id not in visible_ids
    assert obs_other.meeting is None
