"""Batch experiment runner: one file per game, one JSONL per configuration.

Games are independent: each worker owns its game and writes one file, so a
run can be parallelized, interrupted, and resumed (existing game files are
skipped) without changing the resulting corpus bytes. A crashing game is
recorded as a failure line and the run continues.

Scripted games are CPU-bound and run in a process pool of ``workers``
(in this process for one). Chat games wait on the endpoint, so they run on
threads instead, up to the endpoint's ``max_concurrency`` games at once. A
game sends one request at a time, so that also bounds the requests in
flight. The corpus is the same whatever the bound as long as the
endpoint's reply depends on the request alone. An interrupted chat run
stops starting games but lets the running ones finish.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

from crewsim.agents.chat import ChatAgent, ChatEndpointConfig, make_chat_roster
from crewsim.agents.scripted import make_scripted_roster
from crewsim.core.serialize import encode_record
from crewsim.core.types import GameConfig
from crewsim.engine.engine import run_game
from crewsim.harness.plan import ExperimentPlan

logger = logging.getLogger(__name__)


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
        for client in {agent.client for agent in roster if isinstance(agent, ChatAgent)}:
            client.close()  # the game's chat client, shared by its agents
    tmp = path.with_suffix(".tmp")
    tmp.write_text(line + "\n", encoding="utf-8")
    tmp.replace(path)
    return path_str, error


def _count_failures(outcomes) -> int:
    """Log each failed game of ``(path, error)`` outcomes; returns how many."""
    failures = 0
    for path_str, error in outcomes:
        if error:
            failures += 1
            logger.warning("game failed: %s (%s)", path_str, error)
    return failures


def _chat_games_at_once(agents_spec: dict) -> int:
    """The endpoint's ``max_concurrency``, or 1 when the endpoint cannot be
    read: then every game records the same error, as a serial run would."""
    try:
        endpoint = _endpoint_config(agents_spec)
        endpoint.validate()
    except Exception:  # noqa: BLE001 - reported per game by _run_one
        return 1
    return endpoint.max_concurrency


def _run_chat_games(agents_spec: dict, jobs: list) -> int:
    """Run chat games on threads, ``max_concurrency`` at a time; returns the
    failed games. On an error, games not yet started are dropped."""
    pool = ThreadPoolExecutor(min(_chat_games_at_once(agents_spec), len(jobs)), thread_name_prefix="game")
    try:
        futures = [pool.submit(_run_one, *job) for job in jobs]
        return _count_failures(future.result() for future in futures)
    finally:
        pool.shutdown(cancel_futures=True)


def run_experiment(plan: ExperimentPlan, out_dir: str | Path, workers: int = 1, echo=None) -> Path:
    """Execute the plan into ``out_dir``; returns the corpus directory.

    Already-present game files are kept as-is, so deleting a subset of game
    files and re-running regenerates exactly that subset.
    """
    echo = echo or (lambda msg: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(
        json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    jobs = []
    for ci, entry in enumerate(plan.entries):
        cfg_dir = out / plan.config_name(ci)
        cfg_dir.mkdir(exist_ok=True)
        for rep in range(entry.repetitions):
            path = cfg_dir / f"game_{rep:04d}.json"
            if path.exists():
                continue
            config = plan.game_config(ci, rep)
            game_id = f"c{ci:02d}-{config.label()}-r{rep:04d}"
            jobs.append((config.to_dict(), plan.agents, game_id, str(path)))

    echo(f"{len(jobs)} games to run ({sum(e.repetitions for e in plan.entries)} total in plan)")
    if plan.agents.get("type") == "chat" and jobs:
        failures = _run_chat_games(plan.agents, jobs)
    elif workers > 1 and jobs:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            failures = _count_failures(pool.map(_run_one, *zip(*jobs)))
    else:
        failures = _count_failures(_run_one(*job) for job in jobs)

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
