"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public names that one crewsim layer looks
up in the next (``crewsim.harness.runner.run_game``,
``crewsim.engine.engine.build_observation``, ...) with wrappers that record
a span per call, and ``uninstall()`` puts the originals back. Spans stay in
memory as ``[name, start, end, parent, child_time]`` lists; ``metrics()``
reduces them to the per-layer table and ``write_spans()`` writes them out
once the run is over. Nothing in ``src/`` knows it is being traced.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import requests

import crewsim.agents.chat as chat
import crewsim.agents.scripted as scripted
import crewsim.annotate.backends as backends
import crewsim.engine.engine as engine
import crewsim.harness.analysis as analysis
import crewsim.harness.annotator as annotator
import crewsim.harness.runner as runner
import crewsim.harness.svg as svg
import mockchat
from crewsim.agents.base import Abstention
from crewsim.annotate.labels import normalize_deception, normalize_speech_act
from crewsim.core.types import GameRecord

_NAME, _START, _END, _PARENT, _CHILD = range(5)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 50.0, 0.0
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)
    index = min(n - 1, max(0, int(-(-pct * n // 100)) - 1))  # nearest rank
    return pct, ordered[index]


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self, seed: int):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.seed = seed  # the mock's reply seed, to count its injected replies
        self._local = threading.local()
        self._lock = threading.Lock()
        self._inflight = 0
        self._saved: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0]
        self.spans.append(span)
        stack.append(span)
        span[_START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack().pop()
        if span[_PARENT] is not None:
            span[_PARENT][_CHILD] += span[_END] - span[_START]

    def call(self, fn, name: str, after=None, inflight: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inflight:
                with tracer._lock:
                    tracer._inflight += 1
                    tracer.counts[name + ".inflight_max"] = max(
                        tracer.counts[name + ".inflight_max"], tracer._inflight
                    )
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if inflight:
                    with tracer._lock:
                        tracer._inflight -= 1
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def iterator(self, fn, name: str):
        """Wrap a generator function: one span per item it yields."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                tracer.counts[name + ".records"] += 1
                yield item

        return wrapper

    # ---- installation ----

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        self._patch(owner, attr, self.call(getattr(owner, attr), name, **options))

    def install(self) -> Tracer:
        wrap = self.wrap
        wrap(runner, "run_game", "engine.run_game")
        wrap(engine, "build_observation", "engine.build_observation")
        wrap(engine, "legal_actions", "engine.legal_actions")
        wrap(engine, "apply_action", "engine.apply_action")
        for cls in vars(scripted).values():
            if isinstance(cls, type) and issubclass(cls, scripted.ScriptedAgent):
                for method in ("decide", "speak", "vote"):
                    if method in cls.__dict__:
                        wrap(cls, method, f"agents.policy.{method}")
        wrap(chat.ChatClient, "complete", "agents.chat.complete", after=self._after_complete, inflight=True)
        wrap(requests.Session, "post", "agents.chat.http", after=_after_post)
        wrap(chat, "build_prompt", "agents.build_prompt", after=_after_prompt)
        wrap(chat, "parse_response", "agents.parse_response", after=_after_parse)
        for cls, prefix in ((backends.RuleBackend, "annotate.rules"), (backends.ChatBackend, "annotate.chat")):
            wrap(cls, "speech_act_reply", f"{prefix}.speech_act_reply", after=_after_speech_act)
            wrap(cls, "deception_reply", f"{prefix}.deception_reply", after=_after_deception)
        wrap(annotator, "stability", "annotate.stability")
        wrap(runner, "encode_record", "core.encode_record", after=_after_encode)
        from_dict = GameRecord.__dict__["from_dict"].__func__
        self._patch(GameRecord, "from_dict", classmethod(self.call(from_dict, "core.record_from_dict")))
        wrap(runner, "run_experiment", "harness.run_experiment")
        wrap(annotator, "collect_items", "harness.collect_items", after=_after_collect)
        wrap(annotator, "annotate_corpus", "harness.annotate_corpus")
        wrap(analysis, "analyze", "harness.analyze")
        for module in (annotator, analysis):
            self._patch(module, "iter_corpus", self.iterator(module.iter_corpus, "harness.iter_corpus"))
        wrap(svg, "step_plot", "harness.svg")
        wrap(svg, "interval_plot", "harness.svg")
        wrap(analysis, "logistic_fit", "stats.logistic_fit", after=_after_logistic)
        for fn in ("chi_squared", "odds_ratio", "two_prop_z", "spearman"):
            wrap(analysis, fn, f"stats.{fn}")
        wrap(analysis, "Ecdf", "stats.ecdf")
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _after_complete(self, counts, args, result) -> None:
        if result == "":
            counts["agents.chat.empty"] += 1
        content = args[1]
        kind = "game" if mockchat.prompt_kind(content) == "game" else "annotate"
        counts[f"calls.{kind}"] += 1
        if mockchat.injected(self.seed, content):
            counts[f"injected.{kind}"] += 1

    # ---- reduction ----

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer table, every metric present (zero where idle)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        complete_ms = []
        for span in self.spans:
            name, duration = span[_NAME], span[_END] - span[_START]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - span[_CHILD]
            if name == "agents.chat.complete":
                complete_ms.append(duration * 1000.0)
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        sources = {"calls": (calls, "count"), "s": (total, "s"), "self_s": (own, "s")}

        def timed(name: str, *fields: str) -> None:
            for field in fields:
                source, unit = sources[field]
                out[f"{name}.{field}"] = (source[name], unit)

        timed("engine.run_game", "calls", "self_s")
        for name in ("engine.build_observation", "engine.legal_actions", "engine.apply_action"):
            timed(name, "calls", "s")
        out["engine.legal_actions_per_action"] = (
            _ratio(calls["engine.legal_actions"], calls["engine.apply_action"]), "ratio"
        )
        for method in ("decide", "speak", "vote"):
            timed(f"agents.policy.{method}", "calls", "s")

        timed("agents.chat.complete", "calls", "s")
        tail_pct, tail_ms = tail_percentile(complete_ms)
        out["agents.chat.complete.ms_p50"] = (statistics.median(complete_ms) if complete_ms else 0.0, "ms")
        out["agents.chat.complete.ms_tail"] = (tail_ms, "ms")
        out["agents.chat.complete.ms_tail_pct"] = (tail_pct, "%")
        requests_sent = calls["agents.chat.http"]
        out["agents.chat.requests"] = (requests_sent, "count")
        out["agents.chat.retries"] = (requests_sent - calls["agents.chat.complete"], "count")
        out["agents.chat.empty"] = (c["agents.chat.empty"], "count")
        server_s = c["agents.chat.server_s"]
        out["agents.chat.server_wait_s"] = (server_s, "s")
        out["agents.chat.client_busy_s"] = (total["agents.chat.complete"] - server_s, "s")
        out["agents.chat.inflight_max"] = (c["agents.chat.complete.inflight_max"], "count")
        timed("agents.build_prompt", "calls", "s")
        out["agents.build_prompt.bytes"] = (c["agents.build_prompt.bytes"], "B")
        timed("agents.parse_response", "calls", "s")
        parses = calls["agents.parse_response"]
        out["agents.abstention_ratio"] = (_ratio(c["agents.abstentions"], parses), "ratio")
        out["agents.injected_malformed_ratio"] = (_ratio(c["injected.game"], parses), "ratio")

        replies = 0
        chat_replies = 0
        for prefix in ("annotate.rules", "annotate.chat"):
            for task in ("speech_act_reply", "deception_reply"):
                timed(f"{prefix}.{task}", "calls", "s")
                replies += calls[f"{prefix}.{task}"]
                if prefix == "annotate.chat":
                    chat_replies += calls[f"{prefix}.{task}"]
        out["annotate.unusable_ratio"] = (_ratio(c["annotate.unusable"], replies), "ratio")
        out["annotate.injected_unusable_ratio"] = (_ratio(c["injected.annotate"], chat_replies), "ratio")
        timed("annotate.stability", "calls", "s")

        timed("core.encode_record", "calls", "s")
        out["core.encode_record.bytes"] = (c["core.encode_record.bytes"], "B")
        timed("core.record_from_dict", "calls", "s")

        timed("harness.run_experiment", "s", "self_s")
        out["harness.iter_corpus.records"] = (c["harness.iter_corpus.records"], "count")
        timed("harness.iter_corpus", "s")
        out["harness.collect_items.items"] = (c["harness.collect_items.items"], "count")
        timed("harness.collect_items", "s")
        timed("harness.annotate_corpus", "s", "self_s")
        timed("harness.analyze", "s", "self_s")
        timed("harness.svg", "calls", "s")

        timed("stats.logistic_fit", "calls", "s")
        out["stats.logistic_fit.iterations"] = (c["stats.logistic_fit.iterations"], "count")
        for name in ("stats.chi_squared", "stats.odds_ratio", "stats.two_prop_z", "stats.spearman", "stats.ecdf"):
            timed(name, "calls", "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: [id, name, start_s, end_s, parent id]."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((span[_START] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = ids[id(span[_PARENT])] if span[_PARENT] is not None else None
                fh.write(json.dumps(
                    [i, span[_NAME], round(span[_START] - origin, 7), round(span[_END] - origin, 7), parent]
                ) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _after_post(counts, args, result) -> None:
    counts["agents.chat.server_s"] += float(result.headers.get(mockchat.SERVICE_HEADER, 0.0))


def _after_prompt(counts, args, result) -> None:
    counts["agents.build_prompt.bytes"] += len(result.encode("utf-8"))


def _after_parse(counts, args, result) -> None:
    if isinstance(result, Abstention):
        counts["agents.abstentions"] += 1


def _after_speech_act(counts, args, result) -> None:
    if normalize_speech_act(result) is None:
        counts["annotate.unusable"] += 1


def _after_deception(counts, args, result) -> None:
    if normalize_deception(result) is None:
        counts["annotate.unusable"] += 1


def _after_encode(counts, args, result) -> None:
    counts["core.encode_record.bytes"] += len(result.encode("utf-8"))


def _after_collect(counts, args, result) -> None:
    counts["harness.collect_items.items"] += len(result)


def _after_logistic(counts, args, result) -> None:
    counts["stats.logistic_fit.iterations"] += result.iterations
