"""Batch experiment runner: one file per game, one JSONL per configuration.

Games are independent: each worker owns its game and writes one file, so a
run can be parallelized, interrupted, and resumed (existing game files are
skipped) without changing the resulting corpus bytes. The JSONLs are derived
from the game files and rebuilt at the end of each run. Before anything is
written, the first game of every configuration is set up, so a plan that
cannot run raises ``PlanError``; a game that crashes later is recorded as a
failure line and the run continues.

Scripted games are CPU-bound and run in a process pool of ``workers``
(in this process for one). Chat games wait on the endpoint, so they run on
threads instead, up to the endpoint's ``max_concurrency`` games at once. A
game sends one request at a time, so that also bounds the requests in
flight. The corpus is the same whatever the bound as long as the
endpoint's reply depends on the request alone. An interrupted run starts
no further games; chat games already running finish first.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from itertools import repeat
from pathlib import Path

from crewsim.agents.chat import ChatAgent, ChatEndpointConfig, make_chat_roster
from crewsim.agents.scripted import make_scripted_roster
from crewsim.core.serialize import encode_record
from crewsim.core.types import GameConfig
from crewsim.engine.engine import new_game, run_game
from crewsim.harness.plan import ExperimentPlan

logger = logging.getLogger(__name__)


class PlanError(ValueError):
    """A plan whose first game of some configuration cannot be set up."""


def _endpoint_config(agents_spec: dict) -> ChatEndpointConfig:
    """The chat endpoint of a plan's agent spec: a file path or an inline object."""
    endpoint = agents_spec.get("endpoint")
    if isinstance(endpoint, str):
        return ChatEndpointConfig.from_file(endpoint)
    if isinstance(endpoint, dict):
        return ChatEndpointConfig(**endpoint)
    raise ValueError("chat agent spec needs an 'endpoint' (file path or inline object)")


def build_roster(config: GameConfig, agents_spec: dict):
    """Instantiate one policy per player from a plan's agent spec."""
    kind = agents_spec.get("type", "scripted")
    if kind == "scripted":
        return make_scripted_roster(
            config,
            crew=agents_spec.get("crew", "random_walker"),
            impostor=agents_spec.get("impostor", "hunter"),
        )
    if kind == "chat":
        endpoint_cfg = _endpoint_config(agents_spec)
        return make_chat_roster(config, endpoint_cfg, carry_memory=agents_spec.get("carry_memory", True))
    raise ValueError(f"unknown agent spec type {kind!r}")


def _close_clients(roster) -> None:
    for client in {agent.client for agent in roster if isinstance(agent, ChatAgent)}:
        client.close()  # the game's chat client, shared by its agents


def _run_one(config_data: dict, agents_spec: dict, game_id: str, path_str: str) -> tuple[str, str | None]:
    """Run a single game and write its file. Returns (path, error or None)."""
    path = Path(path_str)
    config = GameConfig.from_dict(config_data)
    roster = []
    try:
        roster = build_roster(config, agents_spec)
        record = run_game(config, roster, game_id=game_id)
        line = encode_record(record)
        error = None
    except Exception as exc:  # noqa: BLE001 - a bad game must not sink the batch
        line = json.dumps({"failed": True, "game_id": game_id, "error": str(exc)})
        error = str(exc)
    finally:
        _close_clients(roster)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(line + "\n", encoding="utf-8")
    tmp.replace(path)
    return path_str, error


def run_experiment(plan: ExperimentPlan, out_dir: str | Path, workers: int = 1, echo=None) -> Path:
    """Execute the plan into ``out_dir``; returns the corpus directory.

    Already-present game files are kept as-is, so deleting a subset of game
    files and re-running regenerates exactly that subset. The plan's JSONLs
    are deleted first, so a run stopped before it rebuilds them leaves none
    that disagrees with the game files. A plan whose agent spec or config
    cannot set up some configuration's first game raises ``PlanError``.
    """
    for ci in range(len(plan.entries)):
        config = plan.game_config(ci, 0)
        try:
            new_game(config)
            _close_clients(build_roster(config, plan.agents))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise PlanError(f"{plan.config_name(ci)}: {type(exc).__name__}: {exc}") from exc

    echo = echo or (lambda msg: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(
        json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    configs, game_ids, paths = [], [], []
    for ci, entry in enumerate(plan.entries):
        name = plan.config_name(ci)
        cfg_dir = out / name
        cfg_dir.mkdir(exist_ok=True)
        (out / f"{name}.jsonl").unlink(missing_ok=True)
        for rep in range(entry.repetitions):
            path = cfg_dir / f"game_{rep:04d}.json"
            if path.exists():
                continue
            config = plan.game_config(ci, rep)
            configs.append(config.to_dict())
            game_ids.append(f"c{ci:02d}-{config.label()}-r{rep:04d}")
            paths.append(str(path))

    echo(f"{len(paths)} games to run ({sum(e.repetitions for e in plan.entries)} total in plan)")
    pool = None
    if paths and plan.agents.get("type") == "chat":
        games_at_once = min(_endpoint_config(plan.agents).max_concurrency, len(paths))
        pool = ThreadPoolExecutor(games_at_once, thread_name_prefix="game")
    elif paths and workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
    failures = 0
    try:
        for path_str, error in (pool.map if pool else map)(_run_one, configs, repeat(plan.agents), game_ids, paths):
            if error:
                failures += 1
                logger.warning("game failed: %s (%s)", path_str, error)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    summary: dict[str, dict] = {}
    for ci, entry in enumerate(plan.entries):
        name = plan.config_name(ci)
        cfg_dir = out / name
        lines = []
        counts = {"games": 0, "crew_wins": 0, "impostor_wins": 0, "timeouts": 0, "failures": 0}
        for rep in range(entry.repetitions):
            path = cfg_dir / f"game_{rep:04d}.json"
            if not path.exists():
                continue
            line = path.read_text("utf-8").strip()
            lines.append(line)
            counts["games"] += 1
            data = json.loads(line)
            if data.get("failed"):
                counts["failures"] += 1
            elif data["outcome"]["winner"] == "crew":
                counts["crew_wins"] += 1
            elif data["outcome"]["winner"] == "impostor":
                counts["impostor_wins"] += 1
            else:
                counts["timeouts"] += 1
        (out / f"{name}.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
        summary[name] = counts
        echo(f"{name}: {counts}")

    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", "utf-8")
    if failures:
        echo(f"{failures} game(s) failed; see log")
    return out
