"""Experiment plans: which configurations to run, how often, with whom.

Per-game seeds are ``(base_seed + stable_hash(config index, repetition))``,
so repetitions are independent of each other yet fully reproducible under
resume and across worker counts. A plan read from a file reads a relative
``map_file`` or chat ``endpoint`` path from the plan's own directory, and
keeps the endpoint as an absolute path, so the plan a run writes can be
rerun from any directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from crewsim.core.serialize import checked_map, default_map, load_map
from crewsim.core.types import CONFIG_FIELDS, MAX_SEED, GameConfig, stable_seed

# The map is given as "map" or "map_file"; per-game seeds come from the plan.
_CONFIG_KEYS = tuple(k for k in CONFIG_FIELDS if k not in ("map", "seed"))


@dataclass
class PlanEntry:
    config: GameConfig  # seed field is a placeholder; per-game seeds override it
    repetitions: int

    def to_dict(self) -> dict:
        data = {k: getattr(self.config, k) for k in _CONFIG_KEYS}
        map_data = self.config.map.to_dict()
        if map_data != default_map().to_dict():  # as written: records keep the edge order
            data["map"] = map_data
        data["repetitions"] = self.repetitions
        return data


@dataclass
class ExperimentPlan:
    entries: list[PlanEntry]
    base_seed: int = 0
    agents: dict = field(default_factory=lambda: {"type": "scripted"})

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("plan has no configurations")
        if not 0 <= self.base_seed <= MAX_SEED:
            raise ValueError("base_seed must fit in 64 unsigned bits")
        for entry in self.entries:
            if entry.repetitions < 1:
                raise ValueError("repetitions must be at least 1")

    def game_seed(self, config_index: int, repetition: int) -> int:
        return (self.base_seed + stable_seed("game", config_index, repetition)) % (MAX_SEED + 1)

    def game_config(self, config_index: int, repetition: int) -> GameConfig:
        base = self.entries[config_index].config
        data = base.to_dict()
        data["seed"] = self.game_seed(config_index, repetition)
        return GameConfig.from_dict(data)

    def config_name(self, config_index: int) -> str:
        return f"config_{config_index:02d}_{self.entries[config_index].config.label()}"

    def to_dict(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "agents": self.agents,
            "configs": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> ExperimentPlan:
        entries = []
        for raw in data["configs"]:
            raw = dict(raw)
            repetitions = raw.pop("repetitions", 1)
            map_file = raw.pop("map_file", None)
            map_data = raw.pop("map", None)
            if map_file is not None and map_data is not None:
                raise ValueError("a plan config gives both 'map' and 'map_file'")
            unknown = set(raw) - set(_CONFIG_KEYS)
            if unknown:
                raise ValueError(f"unknown config fields in plan: {sorted(unknown)}")
            config = GameConfig(**raw)
            if map_file:
                path = Path(map_file)
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                config.map = load_map(path)
            elif map_data is not None:
                config.map = checked_map(map_data, "map in plan")
            entries.append(PlanEntry(config=config, repetitions=repetitions))
        agents = dict(data.get("agents", {"type": "scripted"}))
        if isinstance(agents.get("endpoint"), str) and base_dir is not None:
            agents["endpoint"] = str((base_dir / agents["endpoint"]).resolve())  # as map_file: beside the plan
        return cls(
            entries=entries,
            base_seed=data.get("base_seed", 0),
            agents=agents,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> ExperimentPlan:
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), base_dir=path.parent)


def default_plan() -> ExperimentPlan:
    """The 11-configuration grid (sizes 4-8, impostor minorities), 100 reps each."""
    text = resources.files("crewsim.data").joinpath("default_plan.json").read_text("utf-8")
    return ExperimentPlan.from_dict(json.loads(text))
