"""Reading simulation corpora written by the experiment runner."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from crewsim.core.types import GameRecord


def _iter_texts(corpus_dir: Path) -> Iterator[str]:
    """The JSON text of each stored record, in (config, repetition) order.

    A configuration is read from its JSONL when it has one, and from its game
    files otherwise: a rerun that stops before its rebuild leaves no JSONL.
    """
    names = {path.stem for path in corpus_dir.glob("config_*.jsonl")}
    names.update(path.name for path in corpus_dir.glob("config_*") if path.is_dir())
    for name in sorted(names):
        jsonl = corpus_dir / f"{name}.jsonl"
        if jsonl.is_file():
            with open(jsonl, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        yield line
        else:
            for path in sorted((corpus_dir / name).glob("game_*.json")):
                text = path.read_text("utf-8").strip()
                if text:
                    yield text


def iter_corpus(corpus_dir: str | Path) -> Iterator[GameRecord]:
    """Yield game records in deterministic (config, repetition) order.

    Failed-game placeholder lines are skipped; count them separately with
    ``count_failures`` when reconciling totals.
    """
    for text in _iter_texts(Path(corpus_dir)):
        data = json.loads(text)
        if not data.get("failed"):
            yield GameRecord.from_dict(data)


def count_failures(corpus_dir: str | Path) -> int:
    """Failed-game placeholders in the corpus. Only records whose text holds
    ``"failed"`` are decoded, and each is checked for the top-level flag."""
    texts = _iter_texts(Path(corpus_dir))
    return sum(1 for text in texts if '"failed"' in text and json.loads(text).get("failed"))
