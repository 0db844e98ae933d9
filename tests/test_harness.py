"""Experiment runner, corpus annotation, analysis, and the CLI."""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from crewsim.agents.chat import ChatAgent, ChatClient, ChatEndpointConfig
from crewsim.agents.mock_server import MockChatServer, completion_body
from crewsim.annotate.backends import ChatBackend, ReplayBackend, RuleBackend
from crewsim.annotate.labels import UNCLASSIFIABLE
from crewsim.annotate.classify import deception_template
from crewsim.core.serialize import default_map, encode_record
from crewsim.core.types import Event, GameConfig, player_name
from crewsim.engine import engine
from crewsim.engine.replay import verify_record
from crewsim.harness import runner
from crewsim.harness.analysis import _Game, _load_corpus, _Utt, analyze
from crewsim.harness.annotator import _Item, annotate_corpus, collect_items
from crewsim.harness.cli import main as cli_main
from crewsim.harness.corpus import count_failures, iter_corpus
from crewsim.harness.plan import ExperimentPlan, default_plan
from crewsim.harness.runner import _run_one, build_roster, run_experiment
from mockmodels import ContentKeyedModel, game_reply
from test_digests import InProcessClient

TINY_PLAN = {
    "base_seed": 404,
    "agents": {"type": "scripted", "crew": "random_walker", "impostor": "hunter"},
    "configs": [
        {"num_crew": 3, "num_impostors": 1, "repetitions": 4},
        {"num_crew": 4, "num_impostors": 2, "repetitions": 4},
    ],
}


def tiny_plan() -> ExperimentPlan:
    return ExperimentPlan.from_dict(TINY_PLAN)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---- plan ----


def test_plan_round_trip(tmp_path):
    plan = tiny_plan()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()), "utf-8")
    again = ExperimentPlan.from_file(path)
    assert again.to_dict() == plan.to_dict()


def test_per_game_seeds_are_stable_and_distinct():
    plan = tiny_plan()
    assert plan.game_seed(0, 0) == tiny_plan().game_seed(0, 0)
    seeds = {plan.game_seed(ci, rep) for ci in range(2) for rep in range(4)}
    assert len(seeds) == 8
    assert plan.game_config(1, 2).seed == plan.game_seed(1, 2)


def test_default_plan_is_the_full_grid():
    plan = default_plan()
    assert len(plan.entries) == 11
    assert sum(e.repetitions for e in plan.entries) == 1100
    labels = [e.config.label() for e in plan.entries]
    for named in ("3v1", "6v1", "5v2", "5v3"):
        assert named in labels
    sizes = sorted({e.config.num_players for e in plan.entries})
    assert sizes == [4, 5, 6, 7, 8]


def test_plan_rejects_bad_fields():
    with pytest.raises(ValueError):
        ExperimentPlan.from_dict({"configs": []})
    with pytest.raises(ValueError):
        ExperimentPlan.from_dict({"configs": [{"num_crew": 3, "num_impostors": 1, "bogus": 2}]})


WEAPONS_MAP = {**default_map().to_dict(), "cafeteria": "Weapons"}


def test_plan_checks_an_inline_map():
    config = {"num_crew": 3, "num_impostors": 1}
    plan = ExperimentPlan.from_dict({"configs": [{**config, "map": WEAPONS_MAP}]})
    assert plan.entries[0].config.map.cafeteria == "Weapons"
    assert plan.to_dict()["configs"][0]["map"] == WEAPONS_MAP
    assert all("map" not in entry for entry in tiny_plan().to_dict()["configs"])
    with pytest.raises(ValueError, match="invalid map in plan"):
        ExperimentPlan.from_dict({"configs": [{**config, "map": {**WEAPONS_MAP, "cafeteria": "Bridge"}}]})
    with pytest.raises(ValueError, match="both"):
        ExperimentPlan.from_dict({"configs": [{**config, "map": WEAPONS_MAP, "map_file": "map.json"}]})


def test_the_written_plan_rebuilds_a_corpus_on_a_custom_map(tmp_path):
    (tmp_path / "map.json").write_text(json.dumps(WEAPONS_MAP), "utf-8")
    config = {"num_crew": 3, "num_impostors": 1, "repetitions": 2, "map_file": "map.json"}
    (tmp_path / "plan.json").write_text(json.dumps({**TINY_PLAN, "configs": [config]}), "utf-8")
    first = run_experiment(ExperimentPlan.from_file(tmp_path / "plan.json"), tmp_path / "a")
    record = json.loads((first / "config_00_3v1.jsonl").read_text("utf-8").splitlines()[0])
    assert record["config"]["map"]["cafeteria"] == "Weapons"
    again = run_experiment(ExperimentPlan.from_file(first / "plan.json"), tmp_path / "b")
    assert tree_bytes(again) == tree_bytes(first)


# ---- runner ----


def test_run_experiment_layout_and_determinism(tmp_path):
    first = run_experiment(tiny_plan(), tmp_path / "a")
    second = run_experiment(tiny_plan(), tmp_path / "b")
    assert tree_bytes(first) == tree_bytes(second)
    assert (first / "config_00_3v1.jsonl").exists()
    assert len(list((first / "config_00_3v1").glob("game_*.json"))) == 4
    summary = json.loads((first / "summary.json").read_text())
    assert summary["config_00_3v1"]["games"] == 4


def test_run_experiment_resume_regenerates_only_missing(tmp_path):
    out = run_experiment(tiny_plan(), tmp_path / "corpus")
    baseline = tree_bytes(out)
    (out / "config_00_3v1" / "game_0001.json").unlink()
    (out / "config_01_4v2" / "game_0003.json").unlink()
    marker = out / "config_00_3v1" / "game_0000.json"
    stamp = marker.stat().st_mtime_ns
    run_experiment(tiny_plan(), out)
    assert tree_bytes(out) == baseline
    assert marker.stat().st_mtime_ns == stamp  # untouched on resume


def test_a_configuration_without_its_jsonl_is_read_from_its_game_files(tmp_path):
    """A rerun that stops before rebuilding the JSONLs leaves some
    configurations without one; their games must still be read."""
    out = tmp_path / "corpus"
    run_experiment(ExperimentPlan.from_dict({**TINY_PLAN, "configs": TINY_PLAN["configs"][:1]}), out)
    run_experiment(tiny_plan(), out)
    complete = [encode_record(record) for record in iter_corpus(out)]
    (out / "config_01_4v2.jsonl").unlink()
    assert [encode_record(record) for record in iter_corpus(out)] == complete
    assert len(complete) == 8
    assert analyze(out).sections["counts"]["games"] == 8


def test_a_stopped_rerun_leaves_no_stale_jsonl(tmp_path, monkeypatch):
    out = run_experiment(tiny_plan(), tmp_path / "corpus")
    (out / "config_00_3v1" / "game_0001.json").unlink()

    def stop(*job):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_run_one", stop)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(tiny_plan(), out)
    assert sorted(out.glob("config_*.jsonl")) == []
    assert len(list(iter_corpus(out))) == 7


def test_parallel_run_matches_serial(tmp_path):
    serial = run_experiment(tiny_plan(), tmp_path / "serial", workers=1)
    parallel = run_experiment(tiny_plan(), tmp_path / "parallel", workers=3)
    assert tree_bytes(serial) == tree_bytes(parallel)


def test_crashing_game_is_recorded_as_failure(tmp_path):
    path = tmp_path / "game_0000.json"
    _, error = _run_one(
        tiny_plan().game_config(0, 0).to_dict(), {"type": "no-such-kind"}, "gid", str(path)
    )
    assert error is not None
    data = json.loads(path.read_text())
    assert data["failed"] is True and data["game_id"] == "gid"


# ---- annotation over a corpus ----


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return run_experiment(tiny_plan(), out / "corpus")


def test_annotate_corpus_rule_backend_is_stable(corpus, tmp_path):
    out = annotate_corpus(corpus, RuleBackend(), runs=3, out_dir=tmp_path / "ann")
    stability = json.loads((out / "stability_speech_act.json").read_text())
    assert stability["identical_fraction"] == 1.0
    assert stability["two_of_three_fraction"] == 0.0
    merged = [json.loads(line) for line in (out / "annotations.jsonl").read_text().splitlines()]
    assert merged and all("speech_act_run0" in row and "deception_run2" in row for row in merged)
    items = collect_items(corpus)
    assert len(merged) == len(items)


def test_annotate_corpus_resumes_partial_run(corpus, tmp_path):
    out_dir = tmp_path / "ann"
    annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=out_dir)
    complete = (out_dir / "speech_act.run0.jsonl").read_text()
    lines = complete.splitlines()
    truncated = "\n".join(lines[: len(lines) // 2]) + "\n"
    (out_dir / "speech_act.run0.jsonl").write_text(truncated, "utf-8")
    annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=out_dir)
    resumed = (out_dir / "speech_act.run0.jsonl").read_text()
    assert sorted(resumed.splitlines()) == sorted(complete.splitlines())


def test_annotate_corpus_refuses_to_resume_another_backends_run(corpus, tmp_path):
    out_dir = tmp_path / "ann"
    annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=out_dir)
    before = tree_bytes(out_dir)
    other = ReplayBackend(
        speech_acts={i.key: "Directives" for i in collect_items(corpus)},
        deception={i.key: "Equivocation" for i in collect_items(corpus)},
    )
    with pytest.raises(ValueError, match="backend 'rules', expected 'replay'"):
        annotate_corpus(corpus, other, runs=1, out_dir=out_dir)
    assert tree_bytes(out_dir) == before


def test_annotate_corpus_two_runs_skips_stability(corpus, tmp_path):
    notices = []
    out = annotate_corpus(corpus, RuleBackend(), runs=2, out_dir=tmp_path / "ann", echo=notices.append)
    assert not (out / "stability_speech_act.json").exists()
    assert any("skipped" in n for n in notices)


def test_annotate_corpus_resumes_after_torn_last_line(corpus, tmp_path):
    out = annotate_corpus(corpus, RuleBackend(), runs=3, out_dir=tmp_path / "ann")
    complete = tree_bytes(out)
    path = out / "deception.run1.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    half = len(lines) // 2
    path.write_bytes(b"".join(lines[:half]) + lines[half][:7])  # a crash mid-append
    first = out / "speech_act.run0.jsonl"
    first.write_bytes(first.read_bytes()[:10])  # a crash while writing the metadata line
    annotate_corpus(corpus, RuleBackend(), runs=3, out_dir=out)
    assert tree_bytes(out) == complete


def test_annotate_corpus_without_spoken_utterances(tmp_path):
    plan = ExperimentPlan.from_dict(
        {
            "base_seed": 7,
            "agents": {"type": "scripted", "crew": "stand_still", "impostor": "hunter"},
            "configs": [{"num_crew": 3, "num_impostors": 1, "repetitions": 2, "max_rounds": 30}],
        }
    )
    corpus = run_experiment(plan, tmp_path / "corpus")
    assert collect_items(corpus) == []
    notices = []
    out = annotate_corpus(corpus, RuleBackend(), runs=3, out_dir=tmp_path / "ann", echo=notices.append)
    for run_file in sorted(out.glob("*.run*.jsonl")):
        assert len(run_file.read_text().splitlines()) == 1  # the metadata line only
    assert len(list(out.glob("*.run*.jsonl"))) == 6
    assert (out / "annotations.jsonl").read_text() == ""
    assert not list(out.glob("stability_*.json"))
    assert sum("no spoken utterances" in n for n in notices) == 2


# ---- concurrent chat annotation ----

SPEECH_ACT_REPLIES = ("Representatives", "Directives", "Commissives", "Expressives", "Declarations", "Unsure")
DECEPTION_REPLIES = ("Falsification", "Concealment", "Equivocation", "Unsure")


_DECEPTION_HEAD = deception_template().split("[DISCUSSION]")[0]


def classifier_reply(payload, index):
    """Mock classifier model: each reply, an off-label "Unsure" included, is
    a pure function of the prompt."""
    prompt = payload["messages"][-1]["content"]
    replies = DECEPTION_REPLIES if prompt.startswith(_DECEPTION_HEAD) else SPEECH_ACT_REPLIES
    word = replies[int(hashlib.sha256(prompt.encode()).hexdigest(), 16) % len(replies)]
    return 200, completion_body(word)


class Interrupt(BaseException):
    """Stands in for Ctrl-C: not an Exception, so no classifier absorbs it."""


class InterruptedChatBackend(ChatBackend):
    def __init__(self, endpoint, at_call: int):
        super().__init__(endpoint)
        self.calls = itertools.count()
        self.at_call = at_call

    def deception_reply(self, key, text, discussion):
        if next(self.calls) == self.at_call:
            raise Interrupt
        return super().deception_reply(key, text, discussion)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    plan = ExperimentPlan.from_dict(
        {
            "base_seed": 404,
            "agents": {"type": "scripted", "crew": "random_walker", "impostor": "hunter"},
            "configs": [{"num_crew": 3, "num_impostors": 1, "repetitions": 2}],
        }
    )
    return run_experiment(plan, tmp_path_factory.mktemp("small") / "corpus")


@pytest.fixture(scope="module")
def classifier():
    model = ContentKeyedModel(classifier_reply)
    with MockChatServer(model) as server:
        yield model, server


def chat_endpoint(server, max_concurrency: int) -> ChatEndpointConfig:
    return ChatEndpointConfig(
        base_url=server.url, model="mock", timeout=5.0, max_retries=0, max_concurrency=max_concurrency
    )


@pytest.fixture(scope="module")
def serial_chat_annotations(small_corpus, classifier, tmp_path_factory):
    model, server = classifier
    model.reset()
    out_dir = tmp_path_factory.mktemp("serial") / "ann"
    out = annotate_corpus(small_corpus, ChatBackend(chat_endpoint(server, 1)), runs=3, out_dir=out_dir)
    assert model.peak == 1
    return tree_bytes(out)


def test_concurrent_chat_annotation_matches_serial_bytes(small_corpus, classifier, serial_chat_annotations, tmp_path):
    model, server = classifier
    model.reset()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race would show
    try:
        out = annotate_corpus(small_corpus, ChatBackend(chat_endpoint(server, 8)), runs=3, out_dir=tmp_path / "ann")
    finally:
        sys.setswitchinterval(interval)
    assert 1 < model.peak <= 8
    assert model.requests == 2 * 3 * len(collect_items(small_corpus))
    assert tree_bytes(out) == serial_chat_annotations
    assert {"stability_speech_act.json", "stability_deception.json", "annotations.jsonl"} <= set(
        serial_chat_annotations
    )
    labels = (out / "speech_act.run0.jsonl").read_text() + (out / "deception.run0.jsonl").read_text()
    assert "unclassifiable" in labels.lower() and "missing" in labels.lower()


def test_concurrency_never_exceeds_the_bound(small_corpus, classifier, tmp_path):
    model, server = classifier
    model.reset()
    annotate_corpus(small_corpus, ChatBackend(chat_endpoint(server, 3)), runs=1, out_dir=tmp_path / "ann")
    assert 1 < model.peak <= 3


def test_interrupted_concurrent_annotation_resumes_to_same_bytes(
    small_corpus, classifier, serial_chat_annotations, tmp_path
):
    model, server = classifier
    n_items = len(collect_items(small_corpus))
    out_dir = tmp_path / "ann"
    with pytest.raises(Interrupt):
        annotate_corpus(
            small_corpus, InterruptedChatBackend(chat_endpoint(server, 8), at_call=n_items + 5), runs=3, out_dir=out_dir
        )
    written = len((out_dir / "deception.run1.jsonl").read_text().splitlines()) - 1
    assert 0 <= written < n_items
    assert not (out_dir / "deception.run2.jsonl").exists()
    annotate_corpus(small_corpus, ChatBackend(chat_endpoint(server, 8)), runs=3, out_dir=out_dir)
    assert tree_bytes(out_dir) == serial_chat_annotations


def test_discussion_window_widens_context(corpus):
    per_meeting = {i.key: i.discussion for i in collect_items(corpus, "meeting")}
    per_game = {i.key: i.discussion for i in collect_items(corpus, "game")}
    assert per_meeting.keys() == per_game.keys()
    assert all(per_meeting[k] in per_game[k] for k in per_meeting)
    assert any(len(per_game[k]) > len(per_meeting[k]) for k in per_meeting)
    with pytest.raises(ValueError):
        collect_items(corpus, "universe")


# ---- analysis ----


def _skipped_sections(report) -> dict[str, str]:
    sections = report.sections
    return {name: data["insufficient_data"] for name, data in sections.items() if "insufficient_data" in data}


def _files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


# The golden corpus fills every section; these sparse corpora pin the skip
# branches: each insufficient_data reason and the files written without them.


def test_analyze_without_annotations_marks_sections(corpus, tmp_path):
    report = analyze(corpus, out_dir=tmp_path / "report")
    no_speech, no_deception = "no speech_act annotations supplied", "no deception annotations supplied"
    assert _skipped_sections(report) == {
        "speech_act_by_role": no_speech,
        "role_act_chi2": no_speech,
        "speech_act_role_odds": no_speech,
        "speech_act_outcome_odds": no_speech,
        "pre_ejection": no_speech,
        "deception_proportions": no_deception,
        "deception_outcome_chi2": no_deception,
        "deception_vs_ejections": no_deception,
        "speech_deception_spearman": no_speech,
        "deception_win_regression": no_deception,
        "cross_role_dynamics": no_speech,
    }
    assert _files(tmp_path / "report") == [
        "meeting_ecdf.csv",
        "meeting_ecdf.svg",
        "report.json",
        "win_rates.csv",
        "win_regression.csv",
        "win_regression.svg",
        "win_round_ecdf.csv",
        "win_round_ecdf.svg",
    ]


def test_a_game_without_deception_labels_stays_out_of_the_game_level_coupling(tmp_path):
    """``deception_vs_ejections`` reads the deception counts of every completed
    game; a game that has none must not join ``speech_deception_spearman``."""
    annotations = tmp_path / "annotations"
    shutil.copytree(GOLDEN / "annotations", annotations)
    run = annotations / "deception.run0.jsonl"
    meta, *lines = run.read_text("utf-8").splitlines(keepends=True)
    run.write_text(meta + "".join(line for line in lines if '"c00-3v1-r0000|' not in line), "utf-8")
    sections = analyze(GOLDEN / "corpus", annotations).sections
    assert "insufficient_data" not in sections["deception_vs_ejections"]
    assert sections["speech_deception_spearman"]["n_games"] == 5  # 6 with every label


def _with_placeholders(src: Path, dst: Path) -> Path:
    """A copy of corpus ``src`` whose second and third 3v1 games are failed-game
    placeholders, and whose first utterance reads "failed"."""
    shutil.copytree(src, dst)
    path = dst / "config_00_3v1.jsonl"
    records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    spoken = next(e for e in records[0]["events"] if e["kind"] == "utterance")
    spoken["data"]["text"] = "failed"  # holds '"failed"' but is no placeholder
    lines = [json.dumps(record) for record in records]
    lines[1:3] = [json.dumps({"failed": True, "game_id": f"g{i}", "error": "boom"}) for i in (1, 2)]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return dst


def test_failed_placeholders_are_counted_exactly(tmp_path):
    corpus = _with_placeholders(GOLDEN / "corpus", tmp_path / "corpus")
    assert count_failures(corpus) == 2
    ann = annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=tmp_path / "ann")
    assert analyze(corpus, ann).sections["counts"]["failed_records"] == 2


def test_analyze_zero_meeting_corpus(tmp_path):
    plan = ExperimentPlan.from_dict(
        {
            "base_seed": 7,
            "agents": {"type": "scripted", "crew": "stand_still", "impostor": "hunter"},
            "configs": [{"num_crew": 3, "num_impostors": 1, "repetitions": 6, "max_rounds": 30}],
        }
    )
    corpus = run_experiment(plan, tmp_path / "corpus")
    ann = annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=tmp_path / "ann")
    report = analyze(corpus, ann, out_dir=tmp_path / "report")
    meeting = report.sections["meeting_ecdf"]["3v1"]
    assert meeting["discussions"]["n"] == 0
    assert meeting["discussions"]["note"] == "no meetings"
    assert _skipped_sections(report) == {
        "win_regression": "need at least 8 completed games, have 6",
        "role_act_chi2": "fewer than two speech-act categories observed",
        "speech_act_role_odds": "no classified utterances for one of ('impostor', 'crewmate')",
        "speech_act_outcome_odds": "no classified utterances in completed games",
        "pre_ejection": "no classified utterances in ejection meetings",
        "deception_outcome_chi2": "no labeled utterances in completed games",
        "speech_deception_spearman": "need at least 3 games with both annotation tasks",
        "deception_win_regression": "need at least 8 completed games, have 6",
    }
    assert _files(tmp_path / "report") == [
        "cross_role_dynamics.csv",
        "deception_proportions.csv",
        "deception_proportions.svg",
        "deception_vs_ejections.csv",
        "meeting_ecdf.csv",
        "meeting_ecdf.svg",
        "report.json",
        "speech_act_by_role.csv",
        "win_rates.csv",
        "win_round_ecdf.csv",
        "win_round_ecdf.svg",
    ]


def test_role_act_chi2_reports_a_role_without_classified_utterances(corpus, tmp_path):
    """An empty role row is insufficient data, not a ValueError out of chi_squared."""
    ann = annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=tmp_path / "ann")
    impostor_keys = {
        utt.key
        for record in iter_corpus(corpus)
        for utt in record.utterances()
        if utt.speaker_role.value == "impostor"
    }
    path = ann / "speech_act.run0.jsonl"
    meta, *rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    rows = [{**row, "label": UNCLASSIFIABLE} if row["key"] in impostor_keys else row for row in rows]
    path.write_text("".join(json.dumps(row) + "\n" for row in [meta, *rows]), "utf-8")
    sections = analyze(corpus, ann).sections
    assert sections["role_act_chi2"] == {
        "insufficient_data": "no classified utterances for one of ('crewmate', 'impostor')"
    }
    assert "acts" in sections["speech_act_by_role"]["crewmate"]


def test_analyze_report_is_deterministic(corpus, tmp_path):
    ann = annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=tmp_path / "ann")
    a = analyze(corpus, ann)
    b = analyze(corpus, ann)
    assert a.to_json() == b.to_json()


def test_role_odds_orientation_matches_by_role_counts(corpus, tmp_path):
    from crewsim.stats import odds_ratio

    ann = annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=tmp_path / "ann")
    sections = analyze(corpus, ann).sections
    by_role = sections["speech_act_by_role"]
    imp_total = by_role["impostor"]["total"]
    crew_total = by_role["crewmate"]["total"]
    for act, cell in sections["speech_act_role_odds"].items():
        if "odds_ratio" not in cell:
            continue
        imp = by_role["impostor"]["acts"][act]["count"]
        crew = by_role["crewmate"]["acts"][act]["count"]
        expected = odds_ratio(imp, imp_total - imp, crew, crew_total - crew).odds_ratio
        assert cell["odds_ratio"] == pytest.approx(expected, rel=1e-12)
        assert cell["groups"] == ["impostor", "crewmate"]


def test_analyze_counts_reconcile(corpus, tmp_path):
    ann = annotate_corpus(corpus, RuleBackend(), runs=1, out_dir=tmp_path / "ann")
    counts = analyze(corpus, ann).sections["counts"]
    assert counts["abstentions"] + counts["spoken"] == counts["utterance_opportunities"]
    assert counts["speech_act"]["reconciles"]
    assert counts["deception"]["reconciles"]
    assert counts["games"] == counts["completed"] + counts["timeouts"]


# ---- golden snapshot ----

GOLDEN = Path(__file__).parent / "data" / "golden"


# Each stage of the golden plan is built once per module, from the stage
# before it, so a part's check does not hinge on a later stage.


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory) -> Path:
    plan = ExperimentPlan.from_file(Path(__file__).parent / "data" / "golden_plan.json")
    return run_experiment(plan, tmp_path_factory.mktemp("golden") / "corpus")


@pytest.fixture(scope="module")
def golden_annotations(golden_corpus) -> Path:
    return annotate_corpus(golden_corpus, RuleBackend(), runs=3, out_dir=golden_corpus.parent / "annotations")


@pytest.fixture(scope="module")
def golden_report(golden_corpus, golden_annotations) -> Path:
    out = golden_corpus.parent / "report"
    analyze(golden_corpus, golden_annotations, out_dir=out)
    return out


@pytest.mark.parametrize("part", ["corpus", "annotations", "report"])
def test_golden_pipeline_snapshot(part, request):
    """Each bundled part (corpus, annotations, report) regenerates byte-identically."""
    fresh = tree_bytes(request.getfixturevalue(f"golden_{part}"))
    frozen = tree_bytes(GOLDEN / part)
    assert fresh.keys() == frozen.keys()
    mismatched = [name for name in frozen if fresh[name] != frozen[name]]
    assert mismatched == []


def test_golden_pipeline_runs_with_numpy_unimportable(tmp_path):
    """No crewsim module needs numpy, so no report number can come from a BLAS
    kernel picked per CPU: every module imports and the CLI rebuilds the golden
    corpus and annotations with numpy blocked."""
    src = Path(__file__).resolve().parents[1] / "src"
    plan = Path(__file__).parent / "data" / "golden_plan.json"
    corpus, annotations, report = (str(tmp_path / part) for part in ("corpus", "annotations", "report"))
    code = f"""
import importlib, pkgutil, sys
sys.modules["numpy"] = None
sys.path.insert(0, {str(src)!r})
import crewsim
for module in pkgutil.walk_packages(crewsim.__path__, "crewsim."):
    importlib.import_module(module.name)
from crewsim.harness.cli import main
for argv in (
    ["simulate", "--plan", {str(plan)!r}, "--out", {corpus!r}],
    ["annotate", "--corpus", {corpus!r}, "--backend", "rules", "--runs", "3", "--out", {annotations!r}],
    ["analyze", "--corpus", {corpus!r}, "--annotations", {annotations!r}, "--out", {report!r}],
):
    assert main(argv) == 0, argv
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for part in ("corpus", "annotations"):
        fresh, frozen = tree_bytes(tmp_path / part), tree_bytes(GOLDEN / part)
        assert fresh.keys() == frozen.keys()
        assert [name for name in frozen if fresh[name] != frozen[name]] == []
    assert (tmp_path / "report" / "report.json").is_file()


def test_every_golden_menu_has_distinct_tags(monkeypatch):
    """Replay finds a logged action by its tag, so no menu may hold two
    actions with one tag."""
    menus = []
    legal_actions = engine.legal_actions

    def recording(state, player_id):
        menus.append(legal_actions(state, player_id))
        return menus[-1]

    monkeypatch.setattr(engine, "legal_actions", recording)
    plan = ExperimentPlan.from_file(Path(__file__).parent / "data" / "golden_plan.json")
    for ci, entry in enumerate(plan.entries):
        for rep in range(entry.repetitions):
            config = plan.game_config(ci, rep)
            engine.run_game(config, build_roster(config, plan.agents))
    assert menus
    assert all(len({action.tag for action in menu}) == len(menu) for menu in menus)


def test_every_golden_game_replays_through_the_cli(capsys):
    for path in sorted((GOLDEN / "corpus").glob("config_*.jsonl")):
        for index in range(len(path.read_text("utf-8").splitlines())):
            assert cli_main(["replay", "--game", str(path), "--index", str(index), "--verify"]) == 0
            assert capsys.readouterr().err == "replay verified: event trace and outcome reproduced\n"


def test_cli_replays_a_per_game_file(capsys):
    corpus = GOLDEN / "corpus"
    assert cli_main(["replay", "--game", str(corpus / "config_00_3v1.jsonl"), "--index", "3"]) == 0
    from_jsonl = capsys.readouterr().out
    assert cli_main(["replay", "--game", str(corpus / "config_00_3v1" / "game_0003.json"), "--verify"]) == 0
    assert capsys.readouterr().out == from_jsonl


# ---- corpus readers ----


def _reference_corpus(corpus: Path):
    """What ``_load_corpus`` returns, built from ``GameRecord``s."""
    games, utterances, ejected = [], [], set()
    for record in iter_corpus(corpus):
        slots = record.utterances()
        spoken = [u for u in slots if not u.abstained]
        winner = record.outcome.winner
        utterances += [
            _Utt(u.key, record.game_id, u.speaker_role.value, u.meeting_index, u.abstained, winner) for u in slots
        ]
        ejected |= {(record.game_id, e.data["meeting_index"]) for e in record.events if e.kind == "ejection"}
        games.append(
            _Game(
                record.game_id,
                record.config.label(),
                record.config.num_crew,
                record.config.num_impostors,
                winner,
                record.outcome.reason,
                record.events[-1].round if record.events else 0,
                record.meeting_rounds,
                record.ejection_rounds,
                sum(u.word_count for u in spoken),
                len(spoken),
            )
        )
    return games, utterances, ejected, count_failures(corpus)


def _reference_items(corpus: Path, discussion_window: str) -> list:
    """What ``collect_items`` returns, built from ``GameRecord.utterances()``."""
    items = []
    for record in iter_corpus(corpus):
        meetings: dict[int, list] = {}
        for utt in record.utterances():
            meetings.setdefault(utt.meeting_index, []).append(utt)
        history: list[str] = []
        for index in sorted(meetings):
            spoken = [u for u in meetings[index] if not u.abstained]
            lines = [f"{player_name(u.speaker_id)}: {u.text}" for u in spoken]
            history += lines
            discussion = "\n".join(lines if discussion_window == "meeting" else history)
            items += [_Item(u.key, u.text, discussion) for u in spoken]
    return items


def _in_process_chat_corpus(out: Path) -> Path:
    """Two chat games whose player model is ``mockmodels.game_reply``, asked
    in process, stored as one configuration's JSONL."""
    out.mkdir()
    lines = []
    for seed in (7, 8):
        config = GameConfig(3, 1, discussion_rounds=2, kill_cooldown=1, max_rounds=20, seed=seed)
        client, roles = InProcessClient(), engine.assign_roles(config)
        agents = [ChatAgent(pid, roles[pid], client) for pid in range(config.num_players)]
        lines.append(encode_record(engine.run_game(config, agents, game_id=f"chat-{seed}")))
    (out / "config_00_3v1.jsonl").write_text("\n".join(lines) + "\n", "utf-8")
    return out


@pytest.fixture(scope="module", params=["golden", "chat", "placeholders"])
def reader_corpus(request, tmp_path_factory) -> tuple[Path, int]:
    """A corpus for the reader equivalence checks, with its failed-game count."""
    if request.param == "golden":
        return GOLDEN / "corpus", 0
    out = tmp_path_factory.mktemp("readers") / "corpus"
    if request.param == "chat":
        corpus = _in_process_chat_corpus(out)
        records = map(json.loads, (corpus / "config_00_3v1.jsonl").read_text("utf-8").splitlines())
        utterances = [e["data"] for record in records for e in record["events"] if e["kind"] == "utterance"]
        assert utterances and all({"prompt", "raw"} <= data.keys() for data in utterances)
        return corpus, 0
    return _with_placeholders(GOLDEN / "corpus", out), 2


def test_load_corpus_matches_the_game_record_reference(reader_corpus):
    corpus, failures = reader_corpus
    loaded = _load_corpus(corpus)
    assert loaded == _reference_corpus(corpus)
    assert loaded[1] and loaded[-1] == failures


@pytest.mark.parametrize("window", ["meeting", "game"])
def test_collect_items_matches_the_game_record_reference(reader_corpus, window):
    corpus, _ = reader_corpus
    items = collect_items(corpus, window)
    assert items and items == _reference_items(corpus, window)


def _unknown_role(record: dict) -> None:
    next(e for e in record["events"] if e["kind"] == "utterance")["data"]["speaker_role"] = "ghost"


def _no_num_crew(record: dict) -> None:
    del record["config"]["num_crew"]


@pytest.mark.parametrize("corrupt, error", [(_unknown_role, ValueError), (_no_num_crew, TypeError)])
def test_corpus_readers_refuse_a_malformed_record(corrupt, error, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(GOLDEN / "corpus", corpus)
    path = corpus / "config_01_4v2.jsonl"
    records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    corrupt(records[-1])
    path.write_text("".join(json.dumps(record) + "\n" for record in records), "utf-8")
    with pytest.raises(error):
        analyze(corpus, GOLDEN / "annotations")
    with pytest.raises(error):
        collect_items(corpus)


def test_analyze_and_collect_items_build_no_event(monkeypatch, tmp_path):
    """Both stages read decoded records; ``iter_corpus`` still builds events."""
    built = []
    from_dict = Event.from_dict
    monkeypatch.setattr(Event, "from_dict", staticmethod(lambda data: built.append(1) or from_dict(data)))
    analyze(GOLDEN / "corpus", GOLDEN / "annotations", out_dir=tmp_path / "report")
    collect_items(GOLDEN / "corpus")
    assert len(built) == 0
    next(iter_corpus(GOLDEN / "corpus"))
    assert len(built) > 0


# ---- concurrent chat games ----

CHAT_CONFIGS = [
    {"num_crew": 3, "num_impostors": 1, "repetitions": 2, "max_rounds": 12, "discussion_rounds": 1},
    {"num_crew": 4, "num_impostors": 1, "repetitions": 1, "max_rounds": 12, "discussion_rounds": 1},
]


@pytest.fixture(scope="module")
def player_model():
    model = ContentKeyedModel(game_reply)
    with MockChatServer(model) as server:
        yield model, server


@pytest.fixture(scope="module")
def endpoint_file(tmp_path_factory):
    return tmp_path_factory.mktemp("endpoint") / "endpoint.json"


def simulate_chat(server, endpoint_file: Path, max_concurrency: int, out: Path) -> Path:
    """Run the chat plan; the plan names the endpoint file, so ``plan.json``
    stays the same whatever bound the file holds."""
    endpoint = {"base_url": server.url, "model": "mock", "timeout": 5.0, "max_retries": 0}
    endpoint_file.write_text(json.dumps({**endpoint, "max_concurrency": max_concurrency}), "utf-8")
    plan = ExperimentPlan.from_dict(
        {"base_seed": 31, "agents": {"type": "chat", "endpoint": str(endpoint_file)}, "configs": CHAT_CONFIGS}
    )
    return run_experiment(plan, out)


@pytest.fixture(scope="module")
def serial_chat_corpus(player_model, endpoint_file, tmp_path_factory):
    model, server = player_model
    model.reset()
    corpus = simulate_chat(server, endpoint_file, 1, tmp_path_factory.mktemp("serial_games") / "corpus")
    assert model.peak == 1
    return corpus


@pytest.fixture(scope="module")
def concurrent_chat_corpus(player_model, endpoint_file, serial_chat_corpus, tmp_path_factory):
    """The chat plan at bound 8, with the server's peak in flight."""
    model, server = player_model
    model.reset()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race would show
    try:
        corpus = simulate_chat(server, endpoint_file, 8, tmp_path_factory.mktemp("concurrent_games") / "corpus")
    finally:
        sys.setswitchinterval(interval)
    return corpus, model.peak


def test_concurrent_chat_games_match_serial_bytes(concurrent_chat_corpus, serial_chat_corpus):
    corpus, peak = concurrent_chat_corpus
    assert 1 < peak <= 3  # three games, one request in flight each
    assert tree_bytes(corpus) == tree_bytes(serial_chat_corpus)
    records = list(iter_corpus(corpus))
    assert len(records) == 3
    assert any(e.kind == "vote" for record in records for e in record.events)
    assert all(verify_record(record) == [] for record in records)


def test_concurrent_chat_games_keep_the_bound(player_model, endpoint_file, serial_chat_corpus, tmp_path):
    model, server = player_model
    model.reset()
    corpus = simulate_chat(server, endpoint_file, 2, tmp_path / "corpus")
    assert 1 < model.peak <= 2
    assert tree_bytes(corpus) == tree_bytes(serial_chat_corpus)


def test_a_chat_game_closes_its_client(player_model, tmp_path, monkeypatch):
    _, server = player_model
    closed = []
    close = ChatClient.close
    monkeypatch.setattr(ChatClient, "close", lambda client: (closed.append(client), close(client)))
    spec = {"type": "chat", "endpoint": {"base_url": server.url, "model": "mock", "timeout": 5.0, "max_retries": 0}}
    config = ExperimentPlan.from_dict({"base_seed": 31, "agents": spec, "configs": CHAT_CONFIGS}).game_config(0, 0)
    _, error = _run_one(config.to_dict(), spec, "gid", str(tmp_path / "game_0000.json"))
    assert error is None
    assert len(closed) == 1  # one client, shared by the game's agents


def test_cli_reads_a_relative_endpoint_from_the_plans_directory(player_model, tmp_path, monkeypatch):
    _, server = player_model
    plans = tmp_path / "plans"
    plans.mkdir()
    endpoint = {"base_url": server.url, "model": "mock", "timeout": 5.0, "max_retries": 0}
    (plans / "endpoint.json").write_text(json.dumps(endpoint), "utf-8")
    plan = {"base_seed": 31, "agents": {"type": "chat", "endpoint": "endpoint.json"}, "configs": CHAT_CONFIGS}
    (plans / "chat.json").write_text(json.dumps(plan), "utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["simulate", "--plan", "plans/chat.json", "--out", "corpus"]) == 0
    assert count_failures(tmp_path / "corpus") == 0
    assert len(list(iter_corpus(tmp_path / "corpus"))) == 3
    monkeypatch.chdir(plans)  # the written plan names the endpoint file wherever it is read from
    assert cli_main(["simulate", "--plan", "../corpus/plan.json", "--out", "../rerun"]) == 0
    assert tree_bytes(tmp_path / "rerun") == tree_bytes(tmp_path / "corpus")


@pytest.mark.parametrize(
    "endpoint",
    [
        "missing.json",
        {"base_url": "ftp://nowhere", "model": "mock"},
        {"base_url": "http://x", "model": "mock", "max_concurrency": 0},
        {"base_url": "http://x", "model": "mock", "api_key_env": "CREWSIM_TEST_UNSET_KEY"},
    ],
    ids=["missing-file", "bad-url", "zero-bound", "unset-key"],
)
def test_chat_plan_with_a_bad_endpoint_is_refused_before_any_game(endpoint, tmp_path):
    if isinstance(endpoint, str):
        endpoint = str(tmp_path / endpoint)
    plan = ExperimentPlan.from_dict(
        {"base_seed": 31, "agents": {"type": "chat", "endpoint": endpoint}, "configs": CHAT_CONFIGS}
    )
    with pytest.raises(ValueError, match="config_00_3v1"):
        run_experiment(plan, tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


def test_cli_replay_verifies_concurrent_chat_games(concurrent_chat_corpus, capsys):
    corpus, _ = concurrent_chat_corpus
    games = 0
    for path in sorted(corpus.glob("config_*.jsonl")):
        for index in range(len(path.read_text("utf-8").splitlines())):
            assert cli_main(["replay", "--game", str(path), "--index", str(index), "--verify"]) == 0
            games += 1
    assert games == 3
    assert "replay verified" in capsys.readouterr().err


# ---- CLI ----


def test_cli_simulate_annotate_analyze_replay(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(TINY_PLAN), "utf-8")
    corpus = tmp_path / "corpus"
    assert cli_main(["simulate", "--plan", str(plan_path), "--out", str(corpus)]) == 0
    assert cli_main(["annotate", "--corpus", str(corpus), "--backend", "rules", "--runs", "3"]) == 0
    report_dir = tmp_path / "report"
    assert (
        cli_main(
            [
                "analyze",
                "--corpus",
                str(corpus),
                "--annotations",
                str(corpus / "annotations"),
                "--out",
                str(report_dir),
            ]
        )
        == 0
    )
    assert (report_dir / "report.json").exists()
    capsys.readouterr()
    assert cli_main(["replay", "--game", str(corpus / "config_00_3v1.jsonl"), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "game over" in out


def test_cli_replay_reports_index_bounds(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", "utf-8")
    assert cli_main(["replay", "--game", str(empty)]) == 2
    capsys.readouterr()
    jsonl = GOLDEN / "corpus" / "config_00_3v1.jsonl"
    assert cli_main(["replay", "--game", str(jsonl), "--index", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--index -1 is out of range" in captured.err


def test_cli_annotate_refuses_zero_runs(tmp_path, capsys):
    out = tmp_path / "annotations"
    args = ["annotate", "--corpus", str(GOLDEN / "corpus"), "--backend", "rules", "--out", str(out)]
    assert cli_main([*args, "--runs", "0"]) == 2
    assert "--runs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


ANNOTATE_GOLDEN = ["annotate", "--corpus", "{golden}", "--out", "{tmp}/out"]


@pytest.mark.parametrize(
    "command, path_name",
    [
        pytest.param(["simulate", "--plan", "{path}", "--out", "{tmp}/corpus"], "missing.json", id="simulate-plan"),
        pytest.param(["annotate", "--corpus", "{path}", "--backend", "rules"], "missing", id="annotate-corpus"),
        pytest.param(
            [*ANNOTATE_GOLDEN, "--backend", "chat", "--endpoint", "{path}"], "missing.json", id="annotate-endpoint"
        ),
        pytest.param(
            [*ANNOTATE_GOLDEN, "--backend", "replay", "--replay-speech", "{path}"], "missing.jsonl", id="annotate-replay"
        ),
        pytest.param(["analyze", "--corpus", "{path}", "--out", "{tmp}/out"], "missing", id="analyze-corpus"),
        pytest.param(["analyze", "--corpus", "{path}", "--out", "{tmp}/out"], "empty", id="analyze-empty-corpus"),
        pytest.param(
            ["analyze", "--corpus", "{golden}", "--annotations", "{path}"], "missing", id="analyze-annotations"
        ),
        pytest.param(["replay", "--game", "{path}"], "missing.jsonl", id="replay-game"),
    ],
)
def test_cli_refuses_a_missing_path_in_one_line(command, path_name, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    path = tmp_path / path_name
    argv = [arg.format(path=path, tmp=tmp_path, golden=GOLDEN / "corpus") for arg in command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty"]


SIMULATE_PLAN = ["simulate", "--plan", "{path}", "--out", "{tmp}/corpus"]
ANNOTATE_ENDPOINT = [*ANNOTATE_GOLDEN, "--backend", "chat", "--endpoint", "{path}"]


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param(SIMULATE_PLAN, '{"configs": [{"num_crew": 3, "num_impostors": 1, "bogus": 1}]}', id="plan-field"),
        pytest.param(SIMULATE_PLAN, "not json", id="plan-not-json"),
        pytest.param(SIMULATE_PLAN, '{"base_seed": 1}', id="plan-without-configs"),
        pytest.param(
            SIMULATE_PLAN, '{"configs": [{"num_crew": 3, "num_impostors": 1, "map_file": "nowhere.json"}]}', id="plan-map-file"
        ),
        pytest.param(
            SIMULATE_PLAN,
            '{"agents": {"crew": "task_rushr"}, "configs": [{"num_crew": 3, "num_impostors": 1, "repetitions": 2}]}',
            id="plan-policy",
        ),
        pytest.param(
            SIMULATE_PLAN, '{"agents": {"type": "llm"}, "configs": [{"num_crew": 3, "num_impostors": 1}]}', id="plan-agent-type"
        ),
        pytest.param(
            SIMULATE_PLAN,
            '{"configs": [{"num_crew": 3, "num_impostors": 1}, {"num_crew": 1, "num_impostors": 3, "repetitions": 2}]}',
            id="plan-1v3",
        ),
        pytest.param(ANNOTATE_ENDPOINT, '{"base_url": "http://localhost:1", "model": "m", "bogus": 1}', id="endpoint-key"),
        pytest.param(ANNOTATE_ENDPOINT, '{"base_url": "ftp://localhost", "model": "m"}', id="endpoint-url"),
        pytest.param([*ANNOTATE_GOLDEN, "--backend", "replay", "--replay-speech", "{path}"], "\n", id="replay-empty"),
    ],
)
def test_cli_refuses_a_malformed_file_in_one_line(command, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(content, "utf-8")
    argv = [arg.format(path=path, tmp=tmp_path, golden=GOLDEN / "corpus") for arg in command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json"]


@pytest.mark.parametrize("flag, run_file", [("--replay-speech", "deception"), ("--replay-deception", "speech_act")])
def test_cli_annotate_refuses_a_replay_file_of_the_other_task(flag, run_file, tmp_path, capsys):
    path = GOLDEN / "annotations" / f"{run_file}.run0.jsonl"
    argv = ["annotate", "--corpus", str(GOLDEN / "corpus"), "--out", str(tmp_path / "out"), "--backend", "replay"]
    assert cli_main([*argv, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err
    assert "speech_act" in err and "deception" in err
    assert not (tmp_path / "out").exists()


def test_cli_replay_reads_a_jsonl_with_a_failed_game(tmp_path, capsys):
    game = (GOLDEN / "corpus" / "config_00_3v1" / "game_0000.json").read_text("utf-8")
    failed = json.dumps({"failed": True, "game_id": "c00-3v1-r0001", "error": "endpoint down"})
    path = tmp_path / "config_00_3v1.jsonl"
    path.write_text(game + failed + "\n", "utf-8")
    assert cli_main(["replay", "--game", str(path), "--index", "0", "--verify"]) == 0
    capsys.readouterr()
    assert cli_main(["replay", "--game", str(path), "--index", "1"]) == 2
    assert capsys.readouterr().err == "game c00-3v1-r0001 failed and has no record: endpoint down\n"
    assert cli_main(["replay", "--game", str(path), "--index", "2"]) == 2
    assert "--index 2 is out of range" in capsys.readouterr().err
