"""Metamorphic relations for ``analyze``: laws the report obeys, checked
without knowing the right answer.

Game order: the report is a function of the set of games, so moving every
stored game to another place in the corpus, and every label line to another
place in its run file, leaves ``report.json`` byte-identical. Each section
counts, sorts, sums exactly (Spearman's half-integer ranks) or sums floats
with ``math.fsum``; a float sum taken in corpus order would break this
relation.

Failed games: a failed-game placeholder line added to every configuration
changes only ``counts.failed_records`` in the report.
"""

from __future__ import annotations

import json
import random
import shutil
from functools import partial
from pathlib import Path

import pytest

from crewsim.annotate.backends import RuleBackend
from crewsim.harness.analysis import analyze
from crewsim.harness.annotator import annotate_corpus
from crewsim.harness.plan import ExperimentPlan, default_plan
from crewsim.harness.runner import run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden"


def _shuffled(items: list, seed: int) -> list:
    return random.Random(seed).sample(items, len(items))


def _reversed(items: list) -> list:
    return items[::-1]


ORDERS = {
    "shuffle-1": partial(_shuffled, seed=1),
    "shuffle-2": partial(_shuffled, seed=2),
    "shuffle-3": partial(_shuffled, seed=3),
    "reverse": _reversed,
}


@pytest.fixture(scope="module")
def scripted_110(tmp_path_factory) -> tuple[Path, Path]:
    """The bundled grid at 10 repetitions per configuration, labeled once."""
    plan = default_plan().to_dict()
    for config in plan["configs"]:
        config["repetitions"] = 10
    out = tmp_path_factory.mktemp("scripted_110")
    corpus = run_experiment(ExperimentPlan.from_dict(plan), out / "corpus")
    return corpus, annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=out / "annotations")


@pytest.fixture(scope="module", params=["golden", "scripted_110"])
def corpus_and_report(request) -> tuple[Path, Path, str]:
    """A corpus, its labels, and the report of the two as stored."""
    if request.param == "golden":
        corpus, annotations = GOLDEN / "corpus", GOLDEN / "annotations"
    else:
        corpus, annotations = request.getfixturevalue("scripted_110")
    return corpus, annotations, analyze(corpus, annotations).to_json()


def _reordered(corpus: Path, annotations: Path, out: Path, order, store: str) -> tuple[Path, Path]:
    """A copy of ``corpus`` and its run-0 label files with the games, taken
    across every configuration, put in ``order`` and the label lines after
    each file's metadata line likewise. ``store`` picks what the reader sees:
    the per-configuration JSONLs, or the game files alone."""
    new_corpus, new_annotations = out / "corpus", out / "annotations"
    shutil.copytree(corpus, new_corpus)
    new_annotations.mkdir()
    paths = sorted(new_corpus.glob("config_*/game_*.json"))
    texts = [path.read_text("utf-8") for path in paths]
    moved = order(texts)
    assert moved != texts and sorted(moved) == sorted(texts)
    for path, text in zip(paths, moved):
        path.write_text(text, "utf-8")
    for jsonl in new_corpus.glob("config_*.jsonl"):
        if store == "jsonl":
            games = sorted(new_corpus.glob(f"{jsonl.stem}/game_*.json"))
            jsonl.write_text("".join(path.read_text("utf-8") for path in games), "utf-8")
        else:
            jsonl.unlink()
    for run in annotations.glob("*.run0.jsonl"):
        meta, *labels = run.read_text("utf-8").splitlines(keepends=True)
        (new_annotations / run.name).write_text(meta + "".join(order(labels)), "utf-8")
    return new_corpus, new_annotations


@pytest.mark.parametrize("store", ["jsonl", "game_files"])
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_game_order_leaves_the_report_unchanged(corpus_and_report, order, store, tmp_path):
    """``to_json()`` is ``report.json`` without its final newline."""
    corpus, annotations, expected = corpus_and_report
    assert analyze(*_reordered(corpus, annotations, tmp_path, order, store)).to_json() == expected


def test_a_failed_game_placeholder_changes_only_the_failure_count(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(GOLDEN / "corpus", corpus)
    jsonls = sorted(corpus.glob("config_*.jsonl"))
    for i, jsonl in enumerate(jsonls):
        placeholder = json.dumps({"failed": True, "game_id": f"failed-{i}", "error": "boom"})
        jsonl.write_text(jsonl.read_text("utf-8") + placeholder + "\n", "utf-8")
    expected = json.loads(analyze(GOLDEN / "corpus", GOLDEN / "annotations").to_json())
    report = json.loads(analyze(corpus, GOLDEN / "annotations").to_json())
    assert expected["sections"]["counts"]["failed_records"] == 0
    expected["sections"]["counts"]["failed_records"] = len(jsonls)
    assert report == expected
