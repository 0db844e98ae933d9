"""The three benchmark workloads, their inputs and their output checks.

Every workload runs the whole pipeline (simulate -> annotate -> analyze) on
inputs generated from its seed; they differ in which stage is the timed part
(``total_s``) and which backends do the work:

- ``scripted_pipeline``: scripted agents, rule classifier, full analysis; all
  three stages are the timed part.
- ``chat_annotate``: a scripted corpus built during set-up, then chat
  annotation of a fixed number of its utterances against the mock endpoint
  (the timed part), then analysis of the corpus.
- ``chat_games``: chat agents against the mock endpoint (the timed part), then
  chat annotation of their utterances and analysis of the large chat records.

Inputs are drawn from the seed but conditioned on a fixed amount of work
(events, utterances, requests), so that a run measures the code, not the
draw. A workload object is driven by ``run.py``: ``fit()`` (once, untimed),
``setup()`` (repeated and timed), ``iterate()`` (repeated for the run's
seconds) and ``close()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import crewsim.harness.analysis as analysis
import crewsim.harness.annotator as annotator
import crewsim.harness.runner as runner
import mockchat
from mockchat import LATENCY_MS, UNUSABLE_RATE
from crewsim.agents.chat import ChatAgent, ChatEndpointConfig
from crewsim.annotate.backends import ChatBackend, RuleBackend
from crewsim.annotate.classify import deception_prompt, speech_act_prompt
from crewsim.annotate.runs import load_run
from crewsim.core.types import Event, GameRecord, stable_seed
from crewsim.engine.engine import assign_roles, run_game
from crewsim.engine.replay import verify_record
from crewsim.harness.corpus import count_failures, iter_corpus
from crewsim.harness.plan import ExperimentPlan, default_plan

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3  # classifier passes per task, as in the README quickstart
CHAT_MAX_ROUNDS = 20
# One discussion round per meeting keeps chat_games' annotation short, so a
# run holds enough passes for its CPU-bound stages to have a steady median.
CHAT_DISCUSSION_ROUNDS = 1
MAX_DRAWS = 20  # plans and reply seeds chat_annotate may draw before giving up
SCRIPTED_AGENTS = {"type": "scripted", "crew": "random_walker", "impostor": "hunter"}
IMPORTS = "crewsim.harness.cli, crewsim.harness.analysis, crewsim.harness.runner, crewsim.harness.annotator"

# Input sizes per workload. A fitted plan simulates ``pool`` repetitions of
# each grid configuration and keeps ``reps`` per configuration on average
# whose (events, spoken utterances) come closest to ``target``. Analyses
# that take milliseconds are repeated ``repeats`` times per pass and
# chat_annotate's corpus rebuild ``rebuilds`` times, each timed as the
# median. "tiny" keeps the smoke test fast; "full" is what the benchmark
# measures.
SIZES = {
    "full": {
        "scripted_pipeline": {"fit": {"pool": 14, "reps": 10, "target": (10800, 2600)}},
        "chat_annotate": {
            "fit": {"pool": 5, "reps": 4, "target": (4320, 1040)},
            "items": 15,
            "rebuilds": 3,
            "repeats": 10,
        },
        "chat_games": {"configs": [(3, 1, 1), (4, 1, 1)], "candidates": 600, "target": (170, 12), "repeats": 60},
    },
    "tiny": {
        "scripted_pipeline": {"fit": {"pool": 2, "reps": 1, "target": (1080, 260)}},
        "chat_annotate": {
            "fit": {"pool": 3, "reps": 2, "target": (2160, 520)},
            "items": 30,
            "rebuilds": 1,
            "repeats": 2,
        },
        "chat_games": {"configs": [(3, 1, 1)], "candidates": 20, "target": (60, 10), "repeats": 2},
    },
}


class Tally:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} {what}")

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


def tree_digest(*dirs: Path) -> tuple[str, int]:
    """sha256 over the position of each directory, and the relative path
    and bytes of every file in it; total bytes."""
    digest = hashlib.sha256()
    size = 0
    for position, base in enumerate(dirs):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            data = path.read_bytes()
            size += len(data)
            digest.update(f"{position}/{path.relative_to(base).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest(), size


def timed_import() -> float:
    """Seconds a fresh interpreter spends importing the pipeline modules."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        f"import {IMPORTS}; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def make_plan(seed: int, configs, agents: dict, **extra) -> ExperimentPlan:
    return ExperimentPlan.from_dict(
        {
            "base_seed": seed,
            "agents": agents,
            "configs": [
                {"num_crew": crew, "num_impostors": imps, "repetitions": reps, **extra}
                for crew, imps, reps in configs
            ],
        }
    )


def game_work(line: str) -> tuple[int, int]:
    """(events, spoken utterances) of one corpus line."""
    data = json.loads(line)
    if data.get("failed"):
        return 0, 0
    record = GameRecord.from_dict(data)
    return len(record.events), sum(1 for u in record.utterances() if not u.abstained)


def fit_prefixes(work: list[list[tuple[int, int]]], reps: int, target: tuple[int, int]) -> list[int]:
    """Repetitions per configuration, ``reps`` on average and at most the
    pool size, whose games' summed (events, spoken utterances) come closest
    to ``target``. Moves one repetition at a time between configurations,
    so the number of games stays fixed, while the relative error drops."""

    def cost(counts: list[int]) -> float:
        totals = [sum(game[k] for games, r in zip(work, counts) for game in games[:r]) for k in (0, 1)]
        return sum(abs(total - goal) / goal for total, goal in zip(totals, target))

    counts = [reps] * len(work)
    best = cost(counts)
    improved = True
    while improved:
        improved = False
        for i in range(len(work)):
            for j in range(len(work)):
                if i == j or counts[i] == 1 or counts[j] == len(work[j]):
                    continue
                trial = counts[:]
                trial[i] -= 1
                trial[j] += 1
                if cost(trial) < best:
                    counts, best, improved = trial, cost(trial), True
    return counts


def fitted_plan(seed: int, pool_dir: Path, pool: int, reps: int, target: tuple[int, int]) -> ExperimentPlan:
    """A scripted plan on the bundled grid whose games do the target work.

    Simulates ``pool`` repetitions per configuration, then keeps the first
    repetitions chosen by ``fit_prefixes``; the plan has the same base seed,
    so it replays exactly the kept games."""
    grid = [(c["num_crew"], c["num_impostors"]) for c in default_plan().to_dict()["configs"]]
    pool_plan = make_plan(seed, [(crew, imps, pool) for crew, imps in grid], SCRIPTED_AGENTS)
    shutil.rmtree(pool_dir, ignore_errors=True)
    runner.run_experiment(pool_plan, pool_dir, workers=1)
    work = [
        [game_work(path.read_text("utf-8")) for path in sorted((pool_dir / pool_plan.config_name(ci)).glob("game_*.json"))]
        for ci in range(len(grid))
    ]
    shutil.rmtree(pool_dir)
    counts = fit_prefixes(work, reps, target)
    return make_plan(seed, [(crew, imps, r) for (crew, imps), r in zip(grid, counts)], SCRIPTED_AGENTS)


def classifier_prompts(items: list) -> dict[str, list[str]]:
    """The classifier prompt of each of ``items``, by task."""
    return {
        "speech_act": [speech_act_prompt(it.text) for it in items],
        "deception": [deception_prompt(it.text, it.discussion) for it in items],
    }


def select_games(pool: Path, target: int, seed: int) -> list[tuple[str, str]] | None:
    """The subset of ``pool`` games (found first by a subset-sum pass in
    corpus order) holding ``target`` spoken utterances, of whose
    ``2 * target`` classifier prompts exactly ``UNUSABLE_RATE`` get an
    injected reply from the mock with reply seed ``seed``, as (corpus file
    name, line) pairs; None if there is no such subset. A fixed utterance
    count makes the annotation work the same for every seed, and the
    injected share is the configured rate exactly."""
    lines = [
        (path.name, line)
        for path in sorted(pool.glob("config_*.jsonl"))
        for line in path.read_text("utf-8").splitlines()
    ]
    items = annotator.collect_items(pool)
    hits = Counter(
        it.key.split("|", 1)[0]
        for texts in classifier_prompts(items).values()
        for it, prompt in zip(items, texts)
        if mockchat.injected(seed, prompt)
    )
    goal = (target, round(2 * target * UNUSABLE_RATE))
    subsets: dict[tuple[int, int], list[int]] = {(0, 0): []}
    for index, (_, line) in enumerate(lines):
        _, spoken = game_work(line)
        injected = hits[json.loads(line).get("game_id")]
        for (total, hit), chosen in list(subsets.items()):
            key = (total + spoken, hit + injected)
            if key[0] <= target and key not in subsets:
                subsets[key] = chosen + [index]
    return [lines[index] for index in subsets[goal]] if goal in subsets else None


def write_corpus(corpus: Path, games: list[tuple[str, str]]) -> None:
    files: dict[str, list[str]] = {}
    for name, line in games:
        files.setdefault(name, []).append(line)
    corpus.mkdir(parents=True)
    for name, kept in files.items():
        (corpus / name).write_text("\n".join(kept) + "\n", "utf-8")


def verify_without_exchanges(record: GameRecord) -> list[str]:
    """``verify_record`` on the record with each logged chat exchange (the
    ``prompt`` and ``raw`` reply the engine copies from a chat agent into
    its event) set aside. A replay has no chat agent, so it cannot log them,
    and ``verify_record`` compares whole utterance events; the exchanges are
    checked against the mock by ``ChatGames._check_exchanges`` instead."""
    events = [
        Event(e.timestep, e.round, e.kind, {k: v for k, v in e.data.items() if k not in ("prompt", "raw")})
        for e in record.events
    ]
    return verify_record(dataclasses.replace(record, events=events))


class OracleClient:
    """Stands in for ``ChatClient``: answers from the mock's oracle, in process."""

    def __init__(self, seed: int):
        self.seed = seed
        self.calls = 0
        self.injected = 0

    def complete(self, user: str, system: str | None = None) -> str:
        self.calls += 1
        self.injected += mockchat.injected(self.seed, user)
        return mockchat.reply_for(self.seed, user)


class MockEndpoint:
    """The mock chat endpoint running in its own process."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(mockchat.__file__)),
                "--seed", str(seed),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError("mock endpoint did not start")
        self.endpoint = {
            "base_url": f"http://127.0.0.1:{line[1]}/v1/chat/completions",
            "model": "bench-mock",
            "timeout": 30.0,
            "max_retries": 2,
            "temperature": 0.0,
        }

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.work = work
        self.tally = Tally()
        self.mock_seed = seed  # the mock's reply seed
        self.mock: MockEndpoint | None = None
        self.digest: str | None = None
        self.inputs: dict = {}

    def fit(self) -> None:
        """Draw the inputs from the seed and fit them to the target work;
        deterministic for a seed, so done once and not timed."""

    def setup(self) -> float:
        """One set-up from scratch; returns its seconds."""
        self.close()
        seconds = timed_import()
        start = time.perf_counter()
        self.prepare()
        return seconds + time.perf_counter() - start

    def prepare(self) -> None:
        """The timed part of set-up after the imports."""

    def iterate(self, index: int, trace) -> dict:
        """One pass with its stages inside ``trace`` (a tracer or a null
        context); returns stage seconds and work counts."""
        raise NotImplementedError

    def check_trace(self, tracer) -> None:
        """Checks that need the traced counts: no chat call came back empty,
        and unusable replies are exactly the mock's injected ones."""
        counts = tracer.counts
        calls = tracer.metrics()["agents.chat.complete.calls"][0]
        self.tally.add(calls, counts["agents.chat.empty"], "chat calls that returned nothing after retries")
        self.tally.check(
            counts["agents.abstentions"] == counts["injected.game"],
            "traced passes whose agent abstentions differ from the injected malformed replies",
        )
        self.tally.check(
            counts["annotate.unusable"] == counts["injected.annotate"],
            "traced passes whose unusable classifier replies differ from the injected ones",
        )

    def close(self) -> None:
        if self.mock is not None:
            self.mock.stop()
            self.mock = None

    # ---- shared stages and checks ----

    def _simulate(self, corpus: Path) -> float:
        start = time.perf_counter()
        runner.run_experiment(self.plan, corpus, workers=1)
        return time.perf_counter() - start

    def _annotate(self, corpus: Path, out: Path, backend) -> float:
        start = time.perf_counter()
        annotator.annotate_corpus(corpus, backend, runs=RUNS, out_dir=out)
        return time.perf_counter() - start

    def _analyze(self, corpus: Path, annotations: Path, out: Path) -> float:
        start = time.perf_counter()
        analysis.analyze(corpus, annotations, out)
        return time.perf_counter() - start

    def _repeat(self, stage, out: Path, repeats: int, what: str, expected: str | None = None) -> float:
        """Run ``stage(out)`` ``repeats`` times; returns the median seconds.
        Every output must equal ``expected`` (by default the first output).
        Each output is removed before the next repeat, untimed: on ext4,
        keeping them made file creation up to four times slower after a
        dozen output directories, by an amount that changed from run to
        run, which swamped a stage this short."""
        seconds = []
        for k in range(repeats):
            if k:
                shutil.rmtree(out)
            seconds.append(stage(out))
            digest = tree_digest(out)[0]
            expected = expected or digest
            self.tally.check(digest == expected, what)
        return statistics.median(seconds)

    def _check_outputs(self, dirs: list[Path], result: dict) -> None:
        """Outputs of every pass must be byte-identical to the first pass."""
        digest, size = tree_digest(*dirs)
        if self.digest is None:
            self.digest = digest
        self.tally.check(digest == self.digest, "passes whose output digest differs from the first pass")
        self.tally.check((dirs[-1] / "report.json").is_file(), "passes without report.json")
        result["output_bytes"] = size

    def _check_corpus(self, corpus: Path, plan: ExperimentPlan) -> list:
        expected = sum(entry.repetitions for entry in plan.entries)
        failures = count_failures(corpus)
        records = list(iter_corpus(corpus))
        self.tally.add(expected, failures, "games that failed")
        self.tally.check(len(records) + failures == expected, "corpora whose game count differs from the plan")
        return records

    def _check_oracle_labels(self, corpus: Path, annotations: Path) -> tuple[int, int]:
        """Every chat label of every run equals the mock's oracle for its
        prompt; returns (prompts, prompts whose reply the mock made unusable)."""
        items = annotator.collect_items(corpus)
        prompts = injected = 0
        for task, texts in classifier_prompts(items).items():
            expected = {it.key: mockchat.expected_label(self.mock_seed, p) for it, p in zip(items, texts)}
            prompts += len(texts)
            injected += sum(1 for p in texts if mockchat.injected(self.mock_seed, p))
            for run_id in range(RUNS):
                got = load_run(annotations / f"{task}.run{run_id}.jsonl").labels
                wrong = sum(1 for key, label in expected.items() if got.get(key) != label)
                self.tally.add(len(expected), wrong, f"{task} labels that differ from the mock's oracle")
        return prompts, injected

    def _check_labels(self, annotations: Path) -> tuple[int, int]:
        """(utterances, labels) of one annotation directory."""
        items = len((annotations / "annotations.jsonl").read_text("utf-8").splitlines())
        labels = 0
        for task in annotator.TASKS:
            for run_id in range(RUNS):
                run = load_run(annotations / f"{task}.run{run_id}.jsonl")
                empty = sum(1 for value in run.labels.values() if not value)
                self.tally.add(len(run.labels), empty, f"{task} labels that are empty")
                self.tally.check(len(run.labels) == items, f"{task} runs missing labels")
                labels += len(run.labels)
        return items, labels


class ScriptedPipeline(Workload):
    name = "scripted_pipeline"

    def fit(self) -> None:
        self.plan = fitted_plan(self.seed, self.work / "pool", **self.size["fit"])

    def iterate(self, index: int, trace) -> dict:
        base = self.work / "pass"
        corpus, annotations, report = base / "corpus", base / "annotations", base / "report"
        with trace:
            simulate_s = self._simulate(corpus)
            annotate_s = self._annotate(corpus, annotations, RuleBackend())
            analyze_s = self._analyze(corpus, annotations, report)
        records = self._check_corpus(corpus, self.plan)
        items, labels = self._check_labels(annotations)
        result = {
            "total_s": simulate_s + annotate_s + analyze_s,
            "simulate_s": simulate_s,
            "games": len(records),
            "annotate_s": annotate_s,
            "labels": labels,
            "analyze_s": analyze_s,
        }
        self._check_outputs([corpus, annotations, report], result)
        if index == 0:
            # replay one game per configuration
            sample = {}
            for record in records:
                sample.setdefault(record.config.label(), record)
            bad = sum(1 for record in sample.values() if verify_record(record))
            self.tally.add(len(sample), bad, "sampled games that fail replay verification")
            self.inputs = {
                "repetitions": [entry.repetitions for entry in self.plan.entries],
                "games": len(records),
                "events": sum(len(record.events) for record in records),
                "utterances": items,
                "corpus_bytes": sum(p.stat().st_size for p in corpus.glob("config_*.jsonl")),
            }
        shutil.rmtree(base)
        return result


class ChatAnnotate(Workload):
    name = "chat_annotate"

    def fit(self) -> None:
        """Draw a seed for both the fitted scripted plan and the mock's
        replies from the seed, until some of the plan's games hold the
        target utterances with the configured share of injected replies
        (most seeds need one draw)."""
        built = self.work / "fit"
        for k in range(MAX_DRAWS):
            self.mock_seed = stable_seed("chat_annotate", self.seed, k)
            self.plan = fitted_plan(self.mock_seed, self.work / "pool", **self.size["fit"])
            shutil.rmtree(built, ignore_errors=True)
            runner.run_experiment(self.plan, built, workers=1)
            if select_games(built, self.size["items"], self.mock_seed):
                shutil.rmtree(built)
                return
        raise RuntimeError(f"no draw in {MAX_DRAWS} gives the target utterances with an exact injected share")

    def prepare(self) -> None:
        """Start the mock, build the fitted scripted corpus and copy the
        games holding exactly the target number of spoken utterances, and
        of injected replies, into the corpus that is annotated."""
        self.mock = MockEndpoint(self.mock_seed)
        self.built, self.corpus = self.work / "built", self.work / "corpus"
        shutil.rmtree(self.built, ignore_errors=True)
        shutil.rmtree(self.corpus, ignore_errors=True)
        runner.run_experiment(self.plan, self.built, workers=1)
        games = select_games(self.built, self.size["items"], self.mock_seed)
        write_corpus(self.corpus, games)
        self.games = len(games)
        self.built_digest = tree_digest(self.built)[0]

    def iterate(self, index: int, trace) -> dict:
        """Rebuilds the scripted corpus (the simulate stage, outside
        ``total_s``), chat-annotates the selected utterances (``total_s``)
        and analyzes the rebuilt corpus with those labels."""
        base = self.work / "pass"
        rebuilt, annotations, report = base / "corpus", base / "annotations", base / "report"
        backend = ChatBackend(ChatEndpointConfig(**self.mock.endpoint))
        with trace:
            simulate_s = self._repeat(
                self._simulate, rebuilt, self.size["rebuilds"],
                "rebuilt corpora that differ from the set-up build", self.built_digest,
            )
            annotate_s = self._annotate(self.corpus, annotations, backend)
            analyze_s = self._repeat(
                lambda out: self._analyze(rebuilt, annotations, out), report, self.size["repeats"],
                "repeated analyses whose output differs from the first",
            )
        records = self._check_corpus(rebuilt, self.plan)
        items, labels = self._check_labels(annotations)
        prompts, injected = self._check_oracle_labels(self.corpus, annotations)
        self.tally.check(
            injected / prompts == UNUSABLE_RATE, "passes whose share of injected classifier replies is not the rate"
        )
        if index == 0:
            self.inputs = {
                "built_games": len(records),
                "games": self.games,
                "utterances": items,
                "requests_per_pass": 2 * RUNS * items,
                "injected_unusable_share": injected / prompts,
                "unusable_rate": UNUSABLE_RATE,
                "latency_ms": LATENCY_MS,
            }
        result = {
            "total_s": annotate_s,
            "simulate_s": simulate_s,
            "games": len(records),
            "annotate_s": annotate_s,
            "labels": labels,
            "analyze_s": analyze_s,
        }
        self._check_outputs([rebuilt, annotations, report], result)
        shutil.rmtree(base)
        return result


class ChatGames(Workload):
    name = "chat_games"

    def fit(self) -> None:
        """Draw candidate plans from the seed and keep, among those whose
        injected malformed replies are the configured share of the requests
        to the nearest whole reply, the one whose games' requests, and
        less so spoken utterances, are nearest the target; so a pass does the same
        amount of chat work for every seed. The mock's replies are pure
        functions of the prompt, so a game played offline against the
        oracle sends exactly the requests it will send over HTTP."""
        best = None
        for k in range(self.size["candidates"]):
            base_seed = stable_seed("chat_games", self.seed, k)
            work = self._offline_work(self._plan(base_seed, {}))
            requests_sent, injected = work[0], work[2]
            (goal_requests, goal_spoken), spoken = self.size["target"], work[1]
            distance = abs(requests_sent - goal_requests) + abs(spoken - goal_spoken) / 4
            error = (injected != round(UNUSABLE_RATE * requests_sent), distance)
            if best is None or error < best[0]:
                best = (error, base_seed, requests_sent, injected)
        _, self.base_seed, self.requests, self.injected_requests = best

    def _plan(self, base_seed: int, endpoint: dict) -> ExperimentPlan:
        agents = {"type": "chat", "endpoint": endpoint, "carry_memory": True}
        return make_plan(
            base_seed,
            self.size["configs"],
            agents,
            max_rounds=CHAT_MAX_ROUNDS,
            discussion_rounds=CHAT_DISCUSSION_ROUNDS,
        )

    def prepare(self) -> None:
        self.mock = MockEndpoint(self.mock_seed)
        self.plan = self._plan(self.base_seed, self.mock.endpoint)

    def _offline_work(self, plan: ExperimentPlan) -> tuple[int, int, int]:
        """(requests, spoken utterances, injected replies) of the plan played
        against the oracle."""
        client = OracleClient(self.mock_seed)
        spoken = 0
        for ci, entry in enumerate(plan.entries):
            for rep in range(entry.repetitions):
                config = plan.game_config(ci, rep)
                roles = assign_roles(config)
                record = run_game(config, [ChatAgent(pid, roles[pid], client) for pid in range(config.num_players)])
                spoken += sum(1 for u in record.utterances() if not u.abstained)
        return client.calls, spoken, client.injected

    def check_trace(self, tracer) -> None:
        super().check_trace(tracer)
        self.tally.check(
            tracer.counts["calls.game"] == self.requests,
            "traced passes whose game requests differ from the offline replay of the plan",
        )
        self.tally.check(
            tracer.counts["injected.game"] == self.injected_requests == round(UNUSABLE_RATE * self.requests),
            "traced passes whose injected malformed game replies are not the rate to the nearest reply",
        )

    def _check_exchanges(self, records: list) -> int:
        """Every logged reply is the mock's reply to its prompt, and exactly
        the deliberately malformed ones became abstentions."""
        exchanges = wrong = misread = 0
        for record in records:
            for event in record.events:
                prompt = event.data.get("prompt")
                if prompt is None:
                    continue
                exchanges += 1
                if event.data.get("raw", "") != mockchat.reply_for(self.mock_seed, prompt):
                    wrong += 1
                abstained = (event.kind == "no_op" and event.data.get("reason") == "abstention") or (
                    event.kind == "utterance" and event.data.get("text") == ""
                )
                if abstained != mockchat.injected(self.mock_seed, prompt):
                    misread += 1
        self.tally.add(exchanges, wrong, "logged replies that differ from the mock's reply")
        self.tally.add(exchanges, misread, "replies whose abstention does not match the injected malformation")
        return exchanges

    def iterate(self, index: int, trace) -> dict:
        base = self.work / "pass"
        corpus, annotations, report = base / "corpus", base / "annotations", base / "report"
        backend = ChatBackend(ChatEndpointConfig(**self.mock.endpoint))
        with trace:
            simulate_s = self._simulate(corpus)
            annotate_s = self._annotate(corpus, annotations, backend)
            analyze_s = self._repeat(
                lambda out: self._analyze(corpus, annotations, out), report, self.size["repeats"],
                "repeated analyses whose output differs from the first",
            )
        records = self._check_corpus(corpus, self.plan)
        bad = [problems for problems in map(verify_without_exchanges, records) if problems]
        first = f" (first: {bad[0][0][:300]})" if bad else ""
        self.tally.add(len(records), len(bad), "games that fail replay verification" + first)
        items, labels = self._check_labels(annotations)
        prompts, injected = self._check_oracle_labels(corpus, annotations)
        exchanges = self._check_exchanges(records)
        if index == 0:
            sizes = [p.stat().st_size for p in corpus.glob("config_*/game_*.json")]
            self.inputs = {
                "base_seed": self.plan.base_seed,
                "games": len(records),
                "requests_per_pass": self.requests,
                "injected_malformed_share": self.injected_requests / self.requests,
                "logged_exchanges": exchanges,
                "utterances": items,
                "injected_unusable_share": injected / prompts,
                "record_bytes_min": min(sizes, default=0),
                "record_bytes_max": max(sizes, default=0),
                "unusable_rate": UNUSABLE_RATE,
                "latency_ms": LATENCY_MS,
            }
        result = {
            "total_s": simulate_s,
            "simulate_s": simulate_s,
            "games": len(records),
            "annotate_s": annotate_s,
            "labels": labels,
            "analyze_s": analyze_s,
        }
        self._check_outputs([corpus, annotations, report], result)
        shutil.rmtree(base)
        return result


WORKLOADS = {cls.name: cls for cls in (ScriptedPipeline, ChatAnnotate, ChatGames)}
