"""Frozen digests of what the engine writes and what it asks a model.

The scripted golden covers one policy pair on 8 games. These digests cover
every scripted policy pair over several shapes and rules, and, for chat
games, every prompt the engine has an agent send. A change to the engine,
the observation or the prompts that alters a single byte fails here; a
change meant to alter them updates the digests and says why.
"""

from __future__ import annotations

import hashlib
import itertools

from crewsim.agents.chat import SYSTEM_PROMPT, ChatAgent
from crewsim.agents.scripted import (
    SCRIPTED_CREW_POLICIES,
    SCRIPTED_IMPOSTOR_POLICIES,
    make_scripted_roster,
)
from crewsim.core.serialize import encode_record
from crewsim.core.types import GameConfig
from crewsim.engine.engine import assign_roles, run_game
from crewsim.engine.replay import verify_record
from mockmodels import game_reply

SHAPES = ((3, 1), (4, 2), (6, 1))

# sha256 over the encoded records of the scripted matrix, in loop order.
SCRIPTED_MATRIX_SHA256 = "5e62e41b02a87fbda285295d1601a54d83666877c130a724117681da5c9811a9"

# sha256 over the encoded records of the chat games, and over the sha256 of
# each prompt they sent (501 prompts over 15 meetings, 164 utterances and 82
# votes, with kills, vents, ejections and every outcome but the task win).
CHAT_RECORDS_SHA256 = "d8820936e9ed4d6f51a4c14e369fd8a6231df4db8fe60fd01ba5b1f0da0c1fb1"
CHAT_PROMPTS_SHA256 = "d83f04364e0aa4f52ea98be8e4c246cd51850562b8733e969aefadd89a1cff35"


def _line(text: str) -> bytes:
    return text.encode("utf-8") + b"\n"


def test_scripted_record_matrix_digest():
    """6 policy pairs x 3 shapes x discussion_rounds {1, 3} x kill_cooldown
    {0, 3} x 2 seeds: 144 games, each of which replays exactly."""
    digest = hashlib.sha256()
    grid = itertools.product(
        SCRIPTED_CREW_POLICIES, SCRIPTED_IMPOSTOR_POLICIES, SHAPES, (1, 3), (0, 3), (7, 8)
    )
    games = 0
    for crew, impostor, (num_crew, num_impostors), rounds, cooldown, seed in grid:
        config = GameConfig(
            num_crew, num_impostors, discussion_rounds=rounds, kill_cooldown=cooldown, seed=seed
        )
        record = run_game(config, make_scripted_roster(config, crew=crew, impostor=impostor))
        digest.update(_line(encode_record(record)))
        assert verify_record(record) == [], (crew, impostor, num_crew, num_impostors, rounds, cooldown, seed)
        games += 1
    assert games == 144
    assert digest.hexdigest() == SCRIPTED_MATRIX_SHA256


class InProcessClient:
    """Stands in for ``ChatClient`` with no server: each completion is
    ``mockmodels.game_reply`` of the request a client would send. Keeps
    every prompt it was asked."""

    def __init__(self):
        self.prompts: list[str] = []

    def complete(self, user: str, system: str | None = SYSTEM_PROMPT) -> str:
        self.prompts.append(user)
        payload = {"messages": [{"role": "system", "content": system}, {"role": "user", "content": user}]}
        _, body = game_reply(payload, len(self.prompts) - 1)
        return body["choices"][0]["message"]["content"]


def test_chat_records_and_prompts_digest():
    records, prompts = hashlib.sha256(), hashlib.sha256()
    kinds = set()
    for (num_crew, num_impostors), seed in itertools.product(SHAPES, (7, 8)):
        config = GameConfig(
            num_crew, num_impostors, discussion_rounds=2, kill_cooldown=1, max_rounds=20, seed=seed
        )
        client = InProcessClient()
        roles = assign_roles(config)
        record = run_game(config, [ChatAgent(pid, roles[pid], client) for pid in range(config.num_players)])
        kinds.update(event.kind for event in record.events)
        records.update(_line(encode_record(record)))
        for prompt in client.prompts:
            prompts.update(hashlib.sha256(prompt.encode("utf-8")).digest())
    assert {"kill", "vent", "utterance", "vote", "meeting_start"} <= kinds
    assert records.hexdigest() == CHAT_RECORDS_SHA256
    assert prompts.hexdigest() == CHAT_PROMPTS_SHA256
