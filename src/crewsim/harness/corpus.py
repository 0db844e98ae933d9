"""Reading simulation corpora written by the experiment runner.

``_iter_dicts`` yields each stored record as its decoded JSON object, in
(config, repetition) order, failed-game placeholders included.
``iter_corpus`` turns those objects into ``GameRecord``s, for callers that
need the whole log (replay and its checks). The analysis and the annotator
read the decoded objects directly: they use only a record's config, outcome,
round lists and its utterance and ejection events, so they build no
``Event`` per logged step.
"""

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


def _iter_dicts(corpus_dir: str | Path) -> Iterator[dict]:
    """Each stored record as its decoded JSON object, in (config, repetition)
    order; a failed-game placeholder is an object whose ``failed`` is true."""
    for text in _iter_texts(Path(corpus_dir)):
        yield json.loads(text)


def iter_corpus(corpus_dir: str | Path) -> Iterator[GameRecord]:
    """Yield game records in deterministic (config, repetition) order.

    Failed-game placeholder lines are skipped; count them separately with
    ``count_failures`` when reconciling totals.
    """
    for data in _iter_dicts(corpus_dir):
        if not data.get("failed"):
            yield GameRecord.from_dict(data)


def count_failures(corpus_dir: str | Path) -> int:
    """Failed-game placeholders in the corpus. Only records whose text holds
    ``"failed"`` are decoded, and each is checked for the top-level flag."""
    texts = _iter_texts(Path(corpus_dir))
    return sum(1 for text in texts if '"failed"' in text and json.loads(text).get("failed"))
