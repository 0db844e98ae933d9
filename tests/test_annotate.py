"""Label normalization, classification, rule backend, agreement, stability."""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crewsim.annotate.backends import ReplayBackend, RuleBackend, _any_word
from crewsim.annotate.classify import (
    classify_deception,
    classify_speech_act,
    deception_prompt,
    deception_template,
    speech_act_prompt,
    speech_act_template,
)
from crewsim.annotate.labels import (
    UNCLASSIFIABLE,
    DeceptionLabel,
    SpeechActLabel,
    normalize_deception,
    normalize_speech_act,
)
from crewsim.annotate.reliability import agreement, cohen_kappa, stability
from crewsim.annotate.runs import AnnotationRun, label_line, load_run, save_run
from crewsim.harness.corpus import iter_corpus

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden" / "corpus"


# ---- normalization ----

SPEECH_ACT_VARIANTS = {
    "Representatives": SpeechActLabel.REPRESENTATIVES,
    "representative": SpeechActLabel.REPRESENTATIVES,
    "REPRESENTATIVE ": SpeechActLabel.REPRESENTATIVES,
    "Directives": SpeechActLabel.DIRECTIVES,
    "directive": SpeechActLabel.DIRECTIVES,
    "DIRECTIVE ": SpeechActLabel.DIRECTIVES,
    " directives.": SpeechActLabel.DIRECTIVES,
    '"Directives"': SpeechActLabel.DIRECTIVES,
    "Commissives": SpeechActLabel.COMMISSIVES,
    "commissive!": SpeechActLabel.COMMISSIVES,
    "Expressives": SpeechActLabel.EXPRESSIVES,
    "expressive": SpeechActLabel.EXPRESSIVES,
    "Declarations": SpeechActLabel.DECLARATIONS,
    "declaration": SpeechActLabel.DECLARATIONS,
    "banana": None,
    "": None,
    "directive something": None,
}


def test_speech_act_normalization_table():
    for raw, expected in SPEECH_ACT_VARIANTS.items():
        assert normalize_speech_act(raw) is expected, raw


DECEPTION_VARIANTS = {
    "Falsification": DeceptionLabel.FALSIFICATION,
    "falsifications": DeceptionLabel.FALSIFICATION,
    "Concealment.": DeceptionLabel.CONCEALMENT,
    "EQUIVOCATION": DeceptionLabel.EQUIVOCATION,
    "equivocations": DeceptionLabel.EQUIVOCATION,
    "missing": DeceptionLabel.MISSING,
    "Falsification (lying)": None,  # multi-word replies are rejected, not guessed
    "truth": None,
}


def test_deception_normalization_table():
    for raw, expected in DECEPTION_VARIANTS.items():
        assert normalize_deception(raw) is expected, raw


def test_normalization_is_idempotent():
    for raw, expected in SPEECH_ACT_VARIANTS.items():
        if expected is not None:
            assert normalize_speech_act(expected.value) is expected


# ---- prompt templates ----


def test_templates_carry_placeholders_and_constraint():
    speech = speech_act_template()
    assert "[TEXT]" in speech
    assert "Only output one word." in speech
    deception = deception_template()
    assert "[TEXT]" in deception and "[DISCUSSION]" in deception
    assert "Only output one word per entry." in deception


def test_prompt_substitution():
    prompt = speech_act_prompt("Let's all check Electrical next.")
    assert "Text: Let's all check Electrical next." in prompt
    assert "[TEXT]" not in prompt
    both = deception_prompt("I was in Medbay", "Red: where were you?")
    assert "Discussion: Red: where were you?" in both
    assert "Text: I was in Medbay" in both


# ---- classification through backends ----


class StubBackend:
    name = "stub"

    def __init__(self, speech_reply="Directives", deception_reply="Equivocation", fail=False):
        self.speech_reply = speech_reply
        self.deception_reply = deception_reply
        self.fail = fail

    def speech_act_reply(self, key, text):
        if self.fail:
            raise ConnectionError("backend down")
        return self.speech_reply

    def deception_reply(self, key, text, discussion):
        if self.fail:
            raise ConnectionError("backend down")
        return self.deception_reply


def test_classify_speech_act_normalizes_reply():
    assert classify_speech_act("hello", StubBackend("directive.")) is SpeechActLabel.DIRECTIVES
    assert classify_speech_act("hello", StubBackend("banana")) is None


def test_classify_rejects_empty_utterance():
    with pytest.raises(ValueError):
        classify_speech_act("   ", StubBackend())
    with pytest.raises(ValueError):
        classify_deception("", "context", StubBackend())


def test_classify_transport_failure_degrades():
    assert classify_speech_act("hello", StubBackend(fail=True)) is None
    assert classify_deception("hello", "ctx", StubBackend(fail=True)) is DeceptionLabel.MISSING


def test_classify_deception_empty_reply_is_missing():
    assert classify_deception("hello", "ctx", StubBackend(deception_reply="")) is DeceptionLabel.MISSING


# ---- rule backend ----


def test_rule_backend_speech_act_examples():
    rules = RuleBackend()
    assert rules.speech_act_reply("", "Let's vote Blue.") == "Directives"
    assert rules.speech_act_reply("", "Let's all check Electrical next.") == "Directives"
    assert rules.speech_act_reply("", "I'll finish my tasks after this meeting.") == "Commissives"
    assert rules.speech_act_reply("", "Sorry, I didn't notice the body.") == "Expressives"
    assert rules.speech_act_reply("", "I saw Red in Storage right before the report.") == "Representatives"
    assert rules.speech_act_reply("", "Hmm.") == "Directives"  # documented default


def test_rule_backend_deception_examples():
    rules = RuleBackend()
    assert rules.deception_reply("", "I was in Medbay the whole time", "") == "Falsification"
    assert rules.deception_reply("", "I finished my tasks quickly", "") == "Concealment"
    assert (
        rules.deception_reply("", "I was near Storage earlier, but I didn't really see what happened.", "")
        == "Equivocation"
    )
    assert rules.deception_reply("", "Blue vented in front of me!", "") == "Equivocation"  # default


def _any_word_per_phrase(text: str, phrases: tuple[str, ...]) -> bool:
    """The rule classifier's original matcher: one search per phrase."""
    lowered = " ".join(text.split()).casefold()
    return any(re.search(rf"(?<![a-z]){re.escape(p)}(?![a-z])", lowered) for p in phrases)


def test_lexicon_pattern_matches_per_phrase_search():
    texts = [u.text for record in iter_corpus(GOLDEN_CORPUS) for u in record.utterances() if u.text]
    texts += ["I'll go", "i willow", "Lets  GO", "let'sgo", "sorry!", "unsorry", "kind  of near", "nearly"]
    lexicons = {
        name: value
        for name, value in vars(RuleBackend).items()
        if name.startswith("_") and name.isupper() and isinstance(value, tuple)
    }
    assert len(lexicons) == 8
    hits = 0
    for phrases in lexicons.values():
        for text in texts:
            expected = _any_word_per_phrase(text, phrases)
            assert _any_word(text, phrases) == expected, (text, phrases)
            hits += expected
    assert hits > len(texts)  # the comparison covers matches, not just misses


def test_rule_backend_is_deterministic():
    rules = RuleBackend()
    text = "Maybe we should skip. I don't think we have enough information yet."
    assert rules.speech_act_reply("", text) == rules.speech_act_reply("", text)
    assert classify_speech_act(text, rules) is SpeechActLabel.DIRECTIVES


def _counting(calls: list, fn):
    def wrapper(text):
        calls.append(text)
        return fn(text)

    return wrapper


def test_rule_backend_memo_replies_as_a_fresh_backend_per_call():
    texts = [u.text for record in iter_corpus(GOLDEN_CORPUS) for u in record.utterances() if not u.abstained]
    texts += ["", "   ", "Hmm."]
    fresh = {
        text: (RuleBackend().speech_act_reply("", text), RuleBackend().deception_reply("", text, "")) for text in texts
    }
    for seed in range(3):
        rules = RuleBackend()
        computed: list[str] = []
        rules._speech_act = _counting(computed, rules._speech_act)
        rules._deception_form = _counting(computed, rules._deception_form)
        calls = [(text, task) for text in texts for task in (0, 1)] * 2
        random.Random(seed).shuffle(calls)
        for text, task in calls:
            reply = rules.deception_reply(text, text, "") if task else rules.speech_act_reply(text, text)
            assert reply == fresh[text][task], (text, task)
        assert sorted(computed) == sorted([*set(texts)] * 2)  # each distinct text once per task


def test_rule_backend_memo_is_keyed_by_text_alone():
    rules = RuleBackend()
    computed: list[str] = []
    rules._deception_form = _counting(computed, rules._deception_form)
    text = "I was in Medbay the whole time"
    first = rules.deception_reply("g1-u1", text, "Red: I was in Medbay the whole time")
    second = rules.deception_reply("g2-u7", text, "Blue: where were you?\nRed: I was in Medbay the whole time")
    assert first == second == "Falsification"
    assert computed == [text]


# ---- replay backend ----


def test_replay_backend_returns_stored_labels():
    backend = ReplayBackend(speech_acts={"k1": "Directives"}, deception={"k1": "Equivocation"})
    assert classify_speech_act("text", backend, key="k1") is SpeechActLabel.DIRECTIVES
    assert classify_speech_act("text", backend, key="unknown") is None
    assert classify_deception("text", "d", backend, key="k1") is DeceptionLabel.EQUIVOCATION
    assert classify_deception("text", "d", backend, key="unknown") is DeceptionLabel.MISSING


# ---- agreement ----


def test_agreement_identical_vectors():
    result = agreement(["A", "B", "A"], ["A", "B", "A"])
    assert result.percent == 1.0
    assert result.kappa == pytest.approx(1.0)


def test_agreement_hand_example():
    result = agreement(list("AABB"), list("ABBB"))
    assert result.percent == pytest.approx(0.75)
    assert result.kappa == pytest.approx(0.5, abs=1e-12)


def test_agreement_degenerate_marginals_has_undefined_kappa():
    result = agreement(["A", "A", "A"], ["A", "A", "A"])
    assert result.percent == 1.0
    assert result.kappa is None


def test_agreement_is_symmetric():
    a, b = list("AABBC"), list("ABBBC")
    assert agreement(a, b).percent == agreement(b, a).percent
    assert agreement(a, b).kappa == pytest.approx(agreement(b, a).kappa)


def test_agreement_length_mismatch_errors():
    with pytest.raises(ValueError):
        agreement(["A"], ["A", "B"])
    with pytest.raises(ValueError):
        agreement([], [])


def test_cohen_kappa_opposite_constant_raters():
    assert cohen_kappa(["A", "A"], ["B", "B"]) == pytest.approx(0.0)


# ---- stability ----


def run_with(labels: dict[str, str], run_id: int) -> AnnotationRun:
    return AnnotationRun(task="speech_act", run_id=run_id, backend="stub", labels=labels)


def test_stability_identical_runs():
    labels = {f"k{i}": "Directives" for i in range(5)}
    report = stability([run_with(labels, 0), run_with(labels, 1), run_with(labels, 2)])
    assert report.identical_fraction == 1.0
    assert report.two_of_three_fraction == 0.0
    assert report.all_differ_fraction == 0.0
    assert set(report.pairwise_agreement) == {"run0-run1", "run0-run2", "run1-run2"}
    assert all(v == 1.0 for v in report.pairwise_agreement.values())


def make_stability_fixture():
    """10 items: 4 unanimous, 5 two-of-three, 1 all-distinct -> (0.4, 0.5, 0.1)."""
    a, b, c = {}, {}, {}
    for i in range(4):
        a[f"u{i}"] = b[f"u{i}"] = c[f"u{i}"] = "Directives"
    for i in range(4, 9):
        a[f"u{i}"] = b[f"u{i}"] = "Directives"
        c[f"u{i}"] = "Representatives"
    a["u9"], b["u9"], c["u9"] = "Directives", "Commissives", "Expressives"
    return [run_with(a, 0), run_with(b, 1), run_with(c, 2)]


def test_stability_constructed_fixture():
    report = stability(make_stability_fixture())
    assert report.n_items == 10
    assert report.identical_fraction == pytest.approx(0.4, abs=1e-12)
    assert report.two_of_three_fraction == pytest.approx(0.5, abs=1e-12)
    assert report.all_differ_fraction == pytest.approx(0.1, abs=1e-12)
    total = report.identical_fraction + report.two_of_three_fraction + report.all_differ_fraction
    assert total == pytest.approx(1.0, abs=1e-12)


def test_stability_coverage_mismatch_names_missing_keys():
    runs = make_stability_fixture()
    del runs[2].labels["u3"]
    with pytest.raises(ValueError, match="u3"):
        stability(runs)


def test_stability_requires_three_runs():
    runs = make_stability_fixture()
    with pytest.raises(ValueError):
        stability(runs[:2])


# ---- run persistence ----


def test_run_save_load_round_trip(tmp_path):
    run = run_with({"k1": "Directives", "k2": UNCLASSIFIABLE}, 1)
    path = tmp_path / "run.jsonl"
    save_run(run, path)
    loaded = load_run(path)
    assert loaded == run


@given(st.text(), st.text())
@example('c00-3v1-r0000/"quoted"', "back\\slash")
@example("caf\u00e9-\u4f1a\u8bae-\U0001f600", "Repr\u00e9sentatives")
@example("tab\there\nnewline\x00nul\x1f", "\u2028\u2029\x7f")
@example("\ud800 lone surrogate", "")
def test_label_line_is_the_json_dumps_of_its_dict(key, label):
    assert label_line(key, label) == json.dumps({"key": key, "label": label}) + "\n"


def test_load_run_drops_torn_final_line(tmp_path):
    path = tmp_path / "run.jsonl"
    save_run(run_with({"k1": "Directives", "k2": "Expressives"}, 0), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])  # a crash mid-append tore the last label
    assert load_run(path).labels == {"k1": "Directives"}


def test_load_run_reads_escaped_and_non_ascii_labels_alike_on_both_paths(tmp_path):
    """A whole file decodes as one JSON array; a torn last line sends the
    same lines through the per-line loop. Both give the labels each line
    decodes to on its own."""
    labels = {
        'c00-3v1-r0000|0|1|2 "quoted"': 'say "hi"',
        "back\\slash|\\": "\\",
        "pipe|in|key": "a|b",
        "café-会议-\U0001f600": "Représentatives",
        "tab\there\nnewline": "  ",
    }
    path = tmp_path / "run.jsonl"
    save_run(run_with(labels, 0), path)
    raw = {"über|raw": "été \"quoted\" \\"}  # a line written without ASCII escapes
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": "über|raw", "label": raw["über|raw"]}, ensure_ascii=False) + "\n")
    expected = {**labels, **raw}
    lines = path.read_text("utf-8").splitlines()
    assert {row["key"]: row["label"] for row in map(json.loads, lines[1:])} == expected
    assert load_run(path).labels == expected
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "torn|é')
    assert load_run(path).labels == expected


def test_load_run_raises_on_corruption_before_the_last_line(tmp_path):
    path = tmp_path / "run.jsonl"
    save_run(run_with({"k1": "Directives", "k2": "Expressives"}, 0), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_run(path)
