"""Reading simulation corpora written by the experiment runner."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from crewsim.core.types import GameRecord


def _iter_texts(corpus_dir: Path) -> Iterator[str]:
    """The JSON text of each stored record, in (config, repetition) order."""
    consolidated = sorted(corpus_dir.glob("config_*.jsonl"))
    if consolidated:
        for path in consolidated:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        yield line
        return
    for path in sorted(corpus_dir.glob("config_*/game_*.json")):
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
