"""Response parsing, prompt construction, and scripted-policy behavior."""

from __future__ import annotations

import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crewsim.agents.base import Abstention, AgentResponse
from crewsim.agents.parsing import parse_response, render_response, resolve_action
from crewsim.agents.prompts import (
    CREW_INSTRUCTIONS,
    IMPOSTOR_INSTRUCTIONS,
    build_prompt,
    render_observation,
    role_instructions,
)
from crewsim.agents.scripted import _mentioned, make_scripted_roster
from crewsim.core.types import PLAYER_NAMES, Action, GameConfig, Role, player_name
from crewsim.engine.engine import build_observation, new_game, run_game
from crewsim.harness.corpus import iter_corpus

MENU = [
    Action.move("Storage"),
    Action.move("Admin"),
    Action.complete_task(1),
    Action.kill(1),
    Action.report_body(),
    Action.call_meeting(),
]


# ---- parse_response ----


def test_parse_full_response_with_speak():
    raw = (
        "[Condensed Memory] saw red in storage\n"
        "[Thinking Process] red is suspicious\n"
        "[Action] Speak: I think Red vented"
    )
    parsed = parse_response(raw, [Action.speak("")])
    assert isinstance(parsed, AgentResponse)
    assert parsed.condensed_memory == "saw red in storage"
    assert parsed.thinking == "red is suspicious"
    assert parsed.action == Action.speak("I think Red vented")


def test_parse_empty_and_sectionless_strings_abstain():
    assert isinstance(parse_response("", MENU), Abstention)
    assert isinstance(parse_response(None, MENU), Abstention)
    assert isinstance(parse_response("MOVE Storage", MENU), Abstention)


def test_parse_requires_all_three_sections():
    raw = "[Condensed Memory] m\n[Action] MOVE Storage"
    assert isinstance(parse_response(raw, MENU), Abstention)


def test_action_not_on_menu_abstains():
    raw = "[Condensed Memory] m\n[Thinking Process] t\n[Action] Kill Blue"
    menu_without_kill = [a for a in MENU if a.kind.value != "kill"]
    parsed = parse_response(raw, menu_without_kill)
    assert isinstance(parsed, Abstention)
    assert parsed.raw == raw


def test_menu_resolution_is_case_insensitive_with_punctuation():
    assert resolve_action("move storage.", MENU) == Action.move("Storage")
    assert resolve_action("REPORT BODY!", MENU) == Action.report_body()


def test_unique_prefix_resolution():
    assert resolve_action("KILL", MENU) == Action.kill(1)  # single kill option
    assert resolve_action("MOVE", MENU) is None  # two move options: ambiguous
    assert resolve_action("MOVE Sto", MENU) == Action.move("Storage")
    assert resolve_action("COMPLETE", MENU) == Action.complete_task(1)


def test_extra_trailing_words_do_not_match():
    assert resolve_action("KILL Blue because he vented", [Action.kill(1)]) is None


def test_sections_parse_case_insensitively_in_any_order():
    raw = "[ACTION] MOVE Admin\n[condensed memory] notes\n[Thinking   Process] hm"
    parsed = parse_response(raw, MENU)
    assert isinstance(parsed, AgentResponse)
    assert parsed.action == Action.move("Admin")


_section_text = st.text(
    alphabet=st.characters(blacklist_characters="[]", blacklist_categories=("Cs", "Cc")),
    min_size=1,
    max_size=60,
).map(lambda s: " ".join(s.split())).filter(lambda s: s)


@given(_section_text, _section_text, st.sampled_from(MENU + [Action.speak("hello crew")]))
@settings(max_examples=120)
def test_render_parse_round_trip(memory, thinking, action):
    original = AgentResponse(condensed_memory=memory, thinking=thinking, action=action)
    menu = MENU + [Action.speak("")]
    parsed = parse_response(render_response(original), menu)
    assert parsed == original


# ---- prompts ----


def make_observation(role=Role.IMPOSTOR, seed=5):
    state = new_game(GameConfig(3, 1, seed=seed))
    state.round = state.timestep = 3
    player = next(p for p in state.players if p.role is role)
    return build_observation(state, player.id)


def test_impostor_prompt_offers_kill_and_vent_syntax():
    obs = make_observation(Role.IMPOSTOR)
    prompt = build_prompt(obs)
    assert "KILL" in prompt
    assert IMPOSTOR_INSTRUCTIONS.splitlines()[0] in prompt
    assert "[Condensed Memory]" in prompt and "[Action]" in prompt


def test_crew_prompt_excludes_kill_and_vent():
    obs = make_observation(Role.CREWMATE)
    prompt = build_prompt(obs)
    assert "KILL" not in prompt
    assert "VENT" not in prompt
    assert CREW_INSTRUCTIONS.splitlines()[0] in prompt


def test_meeting_prompt_offers_only_speak():
    state = new_game(GameConfig(3, 1, seed=5))
    caller = next(p for p in state.players if p.alive)
    from crewsim.engine.engine import apply_action

    apply_action(state, caller.id, Action.call_meeting())
    obs = build_observation(state, caller.id)
    assert [a.kind.value for a in obs.legal_actions] == ["speak"]
    prompt = build_prompt(obs)
    assert "SPEAK: <your message>" in prompt


def test_prompt_includes_previous_memory():
    obs = make_observation(Role.CREWMATE)
    prompt = build_prompt(obs, memory="Blue was in Medbay at round 2")
    assert "Blue was in Medbay at round 2" in prompt


def test_role_instructions_never_leak_into_crew_observation():
    # dynamic observation text for a crew viewer must not mention impostors
    # outside announcement (*) and quoted transcript (>) lines
    cfg = GameConfig(4, 2, seed=33)
    state = new_game(cfg)
    roster = make_scripted_roster(cfg, "random_walker", "hunter")
    rendered = []
    from crewsim.engine.engine import run_meeting, run_task_phase
    from crewsim.core.types import PHASE_MEETING, PHASE_TASK

    for _ in range(40):
        if state.phase == PHASE_TASK:
            for pid in state.turn_order:
                if state.players[pid].alive and state.phase == PHASE_TASK:
                    obs = build_observation(state, pid)
                    if obs.viewer_role is Role.CREWMATE:
                        rendered.append(render_observation(obs))
            state.public_cursor.clear()  # re-observe; harmless for the leak check
            run_task_phase(state, roster)
        elif state.phase == PHASE_MEETING:
            run_meeting(state, roster)
        else:
            break
    assert rendered
    for text in rendered:
        plain = [
            line
            for line in text.splitlines()
            if not line.startswith("* ") and not line.startswith("> ")
        ]
        assert "impostor" not in "\n".join(plain).lower()


def test_role_instructions_lookup():
    assert role_instructions(Role.CREWMATE) is CREW_INSTRUCTIONS
    assert role_instructions(Role.IMPOSTOR) is IMPOSTOR_INSTRUCTIONS


# ---- scripted policies ----


def test_scripted_policies_are_deterministic():
    cfg = GameConfig(4, 2, seed=77)
    first = run_game(cfg, make_scripted_roster(cfg, "task_rusher", "hunter"))
    second = run_game(cfg, make_scripted_roster(cfg, "task_rusher", "hunter"))
    assert [e.to_dict() for e in first.events] == [e.to_dict() for e in second.events]


def test_task_rusher_completes_task_when_co_located(small_config):
    state = new_game(small_config)
    roster = make_scripted_roster(small_config, "task_rusher", "pacifist")
    crew = next(p for p in state.players if p.role is Role.CREWMATE)
    crew.location = crew.tasks[0].room
    obs = build_observation(state, crew.id)
    decided = roster[crew.id].decide(obs)
    assert decided.action.kind.value == "complete_task"


def test_hunter_kills_when_possible(small_config):
    cfg = GameConfig(3, 1, seed=11, kill_cooldown=0)
    state = new_game(cfg)
    roster = make_scripted_roster(cfg, "stand_still", "hunter")
    state.round = state.timestep = 1
    imp = next(p for p in state.players if p.role is Role.IMPOSTOR)
    obs = build_observation(state, imp.id)
    decided = roster[imp.id].decide(obs)
    assert decided.action.kind.value == "kill"


def test_seeded_meeting_snapshot():
    # frozen transcript of the first meeting of a fixed seeded game
    cfg = GameConfig(3, 1, seed=0)
    record = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))
    assert record.meeting_rounds == [1]
    first_meeting = [
        e.data for e in record.events if e.kind == "utterance" and e.data["meeting_index"] == 0
    ]
    texts = [(d["speaker_id"], d["text"]) for d in first_meeting][:4]
    assert texts == [
        (2, "I think Blue is acting suspicious. Has anyone seen Blue doing tasks?"),
        (3, "I was near Cafeteria earlier, but I didn't really see what happened."),
        (0, "I think Green is acting suspicious. Has anyone seen Green doing tasks?"),
        (1, "I think Red is acting suspicious. Has anyone seen Red doing tasks?"),
    ]


def test_accuser_votes_most_accused():
    cfg = GameConfig(3, 1, seed=0)
    record = run_game(cfg, make_scripted_roster(cfg, "random_walker", "hunter"))
    tallied = [e for e in record.events if e.kind == "votes_tallied"]
    assert tallied, "expected votes in this seeded game"
    votes = tallied[0].data["votes"]
    # every living player cast a ballot; the most-mentioned names drew votes
    assert votes == {"2": 0, "3": 1, "0": 2, "1": 2}
    assert record.ejection_rounds == [1]


def per_name_search(name: str, text: str) -> bool:
    """The reference: one whole-word search per name."""
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def golden_lines_and_name_sets() -> tuple[set[str], set[tuple[str, ...]]]:
    """Every utterance text in the golden corpus, and every name set a
    scripted policy searches there: each meeting's attendees but the viewer
    (``_most_accused``) and each viewer alone (``_accused_me``)."""
    lines, name_sets = set(), set()
    for record in iter_corpus(Path(__file__).parent / "data" / "golden" / "corpus"):
        alive = set(range(record.config.num_players))
        for event in record.events:
            if event.kind == "kill":
                alive.discard(event.data["victim"])
            elif event.kind == "ejection":
                alive.discard(event.data["player"])
            elif event.kind == "meeting_start":
                for viewer in alive:
                    name_sets.add(tuple(player_name(pid) for pid in sorted(alive) if pid != viewer))
                    name_sets.add((player_name(viewer),))
            elif event.kind == "utterance":
                lines.add(event.data["text"])
    return lines, name_sets


def test_name_alternation_matches_per_name_search():
    lines, name_sets = golden_lines_and_name_sets()
    assert len(lines) > 20 and len(name_sets) > 10
    assert {name for names in name_sets for name in names} == set(PLAYER_NAMES[:6])
    # names that prefix one another, case and punctuation next to a name
    lines |= {"P1 and P10 both saw P100.", "Redd, red and RED are not Red's.", "Blue-Green? Yellow!", ""}
    name_sets |= {("P1", "P10"), ("P10", "P1"), ("Red", "Redd"), ("Blue", "Green", "Yellow")}
    for names in name_sets:
        for text in lines:
            assert _mentioned(names, text) == {n for n in names if per_name_search(n, text)}, (names, text)
