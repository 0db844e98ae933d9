"""Annotation run objects and their JSONL persistence.

A run file starts with one metadata line, then one ``{"key", "label"}`` line
per classified utterance, append-friendly so interrupted runs can resume. A
crash mid-append can tear the last line; loading drops it, and resume cuts
it from the file and labels that utterance again. Loading decodes the whole
file as one JSON array, and goes line by line only when that fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class AnnotationRun:
    """Labels from one classifier pass over a corpus."""

    task: str  # "speech_act" | "deception"
    run_id: int
    backend: str
    labels: dict[str, str] = field(default_factory=dict)

    def meta(self) -> dict:
        return {"task": self.task, "run_id": self.run_id, "backend": self.backend}


def label_line(key: str, label: str) -> str:
    """One label line of a run file: the bytes of
    ``json.dumps({"key": key, "label": label}) + "\\n"``, without building a
    dict encoder per line."""
    return '{"key": %s, "label": %s}\n' % (json.dumps(key), json.dumps(label))


def save_run(run: AnnotationRun, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(run.meta(), sort_keys=True) + "\n")
        for key, label in run.labels.items():
            fh.write(label_line(key, label))


def load_run(path: str | Path) -> AnnotationRun:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in (ln.strip() for ln in fh) if line]
    try:
        # Each line holds one JSON object, so the lines joined by commas are
        # one array of those objects: one decode instead of one per line.
        records = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        records = []
    if len(records) != len(lines):  # a torn or malformed line: decode line by line
        records = []
        for number, line in enumerate(lines, 1):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if number < len(lines):  # only the last line can be torn by a crash
                    raise
    if not records:
        raise ValueError(f"empty annotation run file: {path}")
    meta = records[0]
    labels = {item["key"]: item["label"] for item in records[1:]}
    return AnnotationRun(task=meta["task"], run_id=meta["run_id"], backend=meta["backend"], labels=labels)
