"""Domain types: config validation, word counting, maps, serialization."""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crewsim
from crewsim.core.serialize import default_map, encode_record, load_map
from crewsim.core.types import (
    Action,
    ActionKind,
    GameConfig,
    GameRecord,
    MapSpec,
    UtteranceRecord,
    Role,
    stable_seed,
    validate_config,
    word_count,
)


# ---- config validation ----


def test_valid_grid_config_has_no_issues():
    assert validate_config(GameConfig(num_crew=3, num_impostors=1)) == []


def test_tiny_game_warns_but_is_not_a_violation():
    issues = validate_config(GameConfig(num_crew=1, num_impostors=1))
    assert issues and all(i.severity == "warning" for i in issues)
    assert any("4-8" in i.message for i in issues)


def test_impostor_majority_is_a_violation():
    issues = validate_config(GameConfig(num_crew=2, num_impostors=3))
    assert any(i.severity == "violation" and i.field == "num_impostors" for i in issues)


def test_violations_name_field_and_rule():
    issues = validate_config(GameConfig(num_crew=3, num_impostors=1, tasks_per_crew=0, seed=2**64))
    fields = {i.field for i in issues if i.severity == "violation"}
    assert fields == {"tasks_per_crew", "seed"}


# ---- actions ----


def test_bounded_action_factories_return_interned_values():
    assert Action.move("Storage") is Action.move("Storage")
    assert Action.vote(None) is Action.vote(None)
    assert Action.kill(1) is Action.kill(1)
    cases = [
        (Action.move("Storage"), Action(ActionKind.MOVE, room="Storage"), "MOVE Storage"),
        (Action.complete_task(2), Action(ActionKind.COMPLETE_TASK, task_index=2), "COMPLETE TASK 2"),
        (Action.kill(1), Action(ActionKind.KILL, target=1), "KILL Blue"),
        (Action.vent("Admin"), Action(ActionKind.VENT, room="Admin"), "VENT Admin"),
        (Action.report_body(), Action(ActionKind.REPORT_BODY), "REPORT BODY"),
        (Action.call_meeting(), Action(ActionKind.CALL_MEETING), "CALL MEETING"),
        (Action.vote(None), Action(ActionKind.VOTE), "VOTE SKIP"),
        (Action.vote(0), Action(ActionKind.VOTE, target=0), "VOTE Red"),
    ]
    for interned, built, tag in cases:
        assert interned == built and hash(interned) == hash(built)
        assert interned.tag == built.tag == tag
    assert Action.vote(True).target is True  # not the interned vote(1)


def test_speak_is_not_interned():
    assert Action.speak("Red vented") is not Action.speak("Red vented")
    assert Action.speak() is not Action.speak()
    assert Action.speak("Red vented") == Action(ActionKind.SPEAK, text="Red vented")


# ---- word counting ----


def test_word_count_examples():
    assert word_count("") == 0
    assert word_count("I think Red vented") == 4


@given(st.lists(st.text(alphabet="abcXYZ'", min_size=1, max_size=8), max_size=10))
def test_word_count_ignores_whitespace_shape(words):
    text = "  ".join(words)
    assert word_count(text) == len(words)
    assert word_count(f"  {text}\t\n") == len(words)


def test_utterance_record_abstention_iff_empty():
    assert not UtteranceRecord("g", 0, 1, 2, Role.CREWMATE, "hello there", 2).abstained
    assert UtteranceRecord("g", 0, 1, 2, Role.CREWMATE, "", 0).abstained


# ---- map ----


def test_default_map_is_valid():
    spec = default_map()
    assert spec.validate() == []
    assert spec.cafeteria in spec.rooms
    assert len(spec.rooms) == 8
    assert len(spec.vents) == 2


def test_map_validation_catches_problems():
    spec = MapSpec(
        rooms=("A", "B", "C"),
        adjacency=(("A", "B"), ("C", "C")),
        vents=(),
        cafeteria="Z",
    )
    problems = spec.validate()
    assert any("self-edge" in p for p in problems)
    assert any("cafeteria" in p for p in problems)


def test_map_distance_and_neighbors():
    spec = default_map()
    assert spec.distance("Cafeteria", "Cafeteria") == 0
    assert "Weapons" in spec.neighbors("Cafeteria")
    assert spec.distance("Navigation", "Electrical") >= 2  # walking, not venting


def test_map_file_round_trip(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(default_map().to_dict()), "utf-8")
    assert load_map(path) == default_map()


# ---- serialization ----


def test_record_round_trip_for_scripted_game(small_config):
    from crewsim.agents.scripted import make_scripted_roster
    from crewsim.engine.engine import run_game

    record = run_game(small_config, make_scripted_roster(small_config, "random_walker", "hunter"))
    line = encode_record(record)
    assert GameRecord.from_dict(json.loads(line)) == record
    assert "\n" not in line


def test_record_round_trip_preserves_unicode(small_config):
    from crewsim.agents.scripted import make_scripted_roster
    from crewsim.engine.engine import run_game

    record = run_game(small_config, make_scripted_roster(small_config, "stand_still", "pacifist"))
    record.events[0].data["note"] = "café ‘quotes’"
    assert GameRecord.from_dict(json.loads(encode_record(record))) == record


def test_event_timesteps_never_decrease(small_config):
    from crewsim.agents.scripted import make_scripted_roster
    from crewsim.engine.engine import run_game

    record = run_game(small_config, make_scripted_roster(small_config, "random_walker", "hunter"))
    steps = [e.timestep for e in record.events]
    assert steps == sorted(steps)


def test_stable_seed_is_stable():
    assert stable_seed("game", 0, 1) == stable_seed("game", 0, 1)
    assert stable_seed("game", 0, 1) != stable_seed("game", 1, 0)
    assert 0 <= stable_seed("x") < 2**64


# ---- package exports ----


@pytest.mark.parametrize(
    "package",
    ["crewsim", *(info.name for info in pkgutil.walk_packages(crewsim.__path__, "crewsim.") if info.ispkg)],
)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
