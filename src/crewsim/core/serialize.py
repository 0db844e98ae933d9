"""JSON persistence for game records and map files.

Game records serialize as one JSON object per line (JSONL, UTF-8) with stable
field order, so identical games produce byte-identical lines.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from crewsim.core.types import GameRecord, MapSpec

_DEFAULT_MAP: MapSpec | None = None


def default_map() -> MapSpec:
    """The 8-room map shipped with the package."""
    global _DEFAULT_MAP
    if _DEFAULT_MAP is None:
        text = resources.files("crewsim.data").joinpath("default_map.json").read_text("utf-8")
        _DEFAULT_MAP = MapSpec.from_dict(json.loads(text))
    return _DEFAULT_MAP


def load_map(path: str | Path) -> MapSpec:
    with open(path, encoding="utf-8") as fh:
        return checked_map(json.load(fh), f"map file {path}")


def checked_map(data: dict, source: str) -> MapSpec:
    """The map ``data`` describes; a ValueError naming ``source`` if it is invalid."""
    spec = MapSpec.from_dict(data)
    problems = spec.validate()
    if problems:
        raise ValueError(f"invalid {source}: " + "; ".join(problems))
    return spec


def encode_record(record: GameRecord) -> str:
    """One-line JSON encoding; field order fixed by ``GameRecord.to_dict``."""
    return json.dumps(record.to_dict(), ensure_ascii=False, separators=(",", ":"))
