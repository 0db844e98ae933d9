"""Corpus annotation: N classifier passes per task plus stability reporting.

Only non-abstention utterances are classified. Each (task, run) writes its
own resumable JSONL file; a merged ``annotations.jsonl`` view (one column
per task/run pair) and per-task stability reports are derived at the end.

A backend with ``max_concurrency`` above one (the chat backend) gets that
many requests in flight from one thread pool. Labels are still written in
item order, so the files are byte-identical to a serial run whenever the
backend's reply depends on the request alone, and a crash leaves a prefix
that resume continues.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from crewsim.annotate.classify import classify_deception, classify_speech_act
from crewsim.annotate.labels import UNCLASSIFIABLE
from crewsim.annotate.reliability import stability
from crewsim.annotate.runs import AnnotationRun, label_line, load_run
from crewsim.core.types import GameConfig, Role, player_name, utterance_key
# bench/tracing.py patches iter_corpus on this module by name.
from crewsim.harness.corpus import _iter_dicts, iter_corpus  # noqa: F401

logger = logging.getLogger(__name__)

TASKS = ("speech_act", "deception")


@dataclass(frozen=True)
class _Item:
    key: str
    text: str
    discussion: str


def collect_items(corpus_dir: str | Path, discussion_window: str = "meeting") -> list[_Item]:
    """Non-abstention utterances with their discussion context.

    ``discussion_window`` controls the deception-classifier context:
    "meeting" (default) supplies the transcript of the utterance's own
    meeting, which is what precedes that meeting's vote; "game" supplies
    every meeting transcript of the game up to and including that one.

    Records are read as decoded JSON objects, of whose events only utterances
    are looked at. Each record's config is still decoded and each speaker
    role still passes through ``Role``, so a malformed record fails here as
    it does in the analysis.
    """
    if discussion_window not in ("meeting", "game"):
        raise ValueError(f"discussion_window must be 'meeting' or 'game', got {discussion_window!r}")
    items: list[_Item] = []
    for data in _iter_dicts(corpus_dir):
        if data.get("failed"):
            continue
        GameConfig.from_dict(data["config"])
        meetings: dict[int, list[dict]] = {}
        for event in data["events"]:
            if event["kind"] == "utterance":
                utt = event["data"]
                Role(utt["speaker_role"])
                meetings.setdefault(utt["meeting_index"], []).append(utt)
        history: list[str] = []
        for meeting_index in sorted(meetings):
            spoken = [utt for utt in meetings[meeting_index] if utt["text"] != ""]
            lines = [f"{player_name(utt['speaker_id'])}: {utt['text']}" for utt in spoken]
            history.extend(lines)
            discussion = "\n".join(lines if discussion_window == "meeting" else history)
            for utt in spoken:
                key = utterance_key(
                    utt["game_id"], utt["meeting_index"], utt["discussion_round"], utt["speaker_id"]
                )
                items.append(_Item(key=key, text=utt["text"], discussion=discussion))
    return items


def _label(item: _Item, backend, task: str) -> str:
    if task == "speech_act":
        label = classify_speech_act(item.text, backend, key=item.key)
        return label.value if label is not None else UNCLASSIFIABLE
    return classify_deception(item.text, item.discussion, backend, key=item.key).value


def _annotate_run(
    items: list[_Item], backend, task: str, run_id: int, path: Path, echo, pool: ThreadPoolExecutor | None
) -> AnnotationRun:
    done: dict[str, str] = {}
    name = getattr(backend, "name", "?")
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        os.truncate(path, complete)  # a crash tore the last line mid-append
    if complete:
        existing = load_run(path)
        if existing.task != task:
            raise ValueError(f"{path} holds task {existing.task!r}, expected {task!r}")
        if existing.backend != name:
            raise ValueError(f"{path} holds labels from backend {existing.backend!r}, expected {name!r}")
        done = existing.labels
    with open(path, "a", encoding="utf-8") as fh:
        if path.stat().st_size == 0:
            meta = AnnotationRun(task=task, run_id=run_id, backend=name)
            fh.write(json.dumps(meta.meta(), sort_keys=True) + "\n")
        pending = [item for item in items if item.key not in done]
        label = functools.partial(_label, backend=backend, task=task)
        values = pool.map(label, pending) if pool is not None else map(label, pending)
        for item, value in zip(pending, values):
            done[item.key] = value
            fh.write(label_line(item.key, value))
            fh.flush()
        if pending:
            echo(f"{task} run {run_id}: labeled {len(pending)} utterances")
    return AnnotationRun(task=task, run_id=run_id, backend=name, labels=done)


def annotate_corpus(
    corpus_dir: str | Path,
    backend,
    runs: int = 3,
    out_dir: str | Path | None = None,
    discussion_window: str = "meeting",
    echo=None,
) -> Path:
    """Run the classifier ``runs`` times per task over the corpus."""
    echo = echo or (lambda msg: None)
    corpus_dir = Path(corpus_dir)
    out = Path(out_dir) if out_dir is not None else corpus_dir / "annotations"
    out.mkdir(parents=True, exist_ok=True)

    items = collect_items(corpus_dir, discussion_window=discussion_window)
    echo(f"{len(items)} utterances to annotate per task per run")

    all_runs: dict[str, list[AnnotationRun]] = {task: [] for task in TASKS}
    workers = getattr(backend, "max_concurrency", 1)
    # One pool for every pass, so its threads and their keep-alive
    # connections carry over; on an error, queued requests are dropped.
    pool = ThreadPoolExecutor(workers, thread_name_prefix="annotate") if workers > 1 else None
    try:
        for task in TASKS:
            for run_id in range(runs):
                path = out / f"{task}.run{run_id}.jsonl"
                path.touch()
                all_runs[task].append(_annotate_run(items, backend, task, run_id, path, echo, pool))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        close = getattr(backend, "close", None)
        if close is not None:
            close()

    merged_path = out / "annotations.jsonl"
    with open(merged_path, "w", encoding="utf-8") as fh:
        for item in items:
            row: dict[str, str] = {"key": item.key}
            for task in TASKS:
                for run in all_runs[task]:
                    row[f"{task}_run{run.run_id}"] = run.labels.get(item.key, "")
            fh.write(json.dumps(row) + "\n")

    for task in TASKS:
        if runs == 3 and not items:
            echo(f"stability[{task}] skipped: the corpus has no spoken utterances")
        elif runs == 3:
            report = stability(all_runs[task])
            (out / f"stability_{task}.json").write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", "utf-8"
            )
            echo(
                f"stability[{task}]: identical={report.identical_fraction:.3f} "
                f"two-of-three={report.two_of_three_fraction:.3f} all-differ={report.all_differ_fraction:.3f}"
            )
        else:
            echo(f"stability[{task}] skipped: requires exactly 3 runs, got {runs}")
    return out
