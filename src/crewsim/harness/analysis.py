"""Report generation over a corpus and its annotations.

``analyze`` is a pure function of its input files: the same corpus and
annotation directories always produce byte-identical reports. Every number
comes from a ``crewsim.stats`` operation applied to an explicitly described
corpus slice. Sections whose slice is empty are marked
``{"insufficient_data": ...}``, write no CSV/SVG file, and the run continues.

``SECTIONS`` is the one place to add a section: an entry names the
``_Analyzer`` method that builds it and the writer that exports it.

Conventions, applied throughout:

- Timeout and failed games are logged but excluded from win-rate and
  regression inputs.
- Distributional sections read annotation run 0 of each task; runs 1+ exist
  for stability analysis.
- "Words per discussion/utterance" count whitespace tokens over spoken
  (non-abstention) utterances; abstentions still count as utterance
  opportunities in the reconciliation totals.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path

from crewsim.annotate.labels import UNCLASSIFIABLE, DeceptionLabel, SpeechActLabel
from crewsim.annotate.runs import load_run
from crewsim.core.types import GameConfig, Outcome, Role, utterance_key
from crewsim.harness import svg
# bench/tracing.py patches iter_corpus on this module by name.
from crewsim.harness.corpus import _iter_dicts, iter_corpus  # noqa: F401
from crewsim.stats import (
    Ecdf,
    chi_squared,
    logistic_fit,
    logit_prop,
    odds_ratio,
    spearman,
    two_prop_z,
)
from crewsim.stats.logistic import collinear_columns

SPEECH_ACTS = [label.value for label in SpeechActLabel]
DECEPTION_TYPES = [label.value for label in DeceptionLabel]
WIN_PREDICTORS = [
    "num_crew",
    "num_impostors",
    "num_discussions",
    "num_ejects",
    "words_per_discussion",
    "words_per_utterance",
]
TASK_LABELS = {"speech_act": SPEECH_ACTS, "deception": DECEPTION_TYPES}
ROLES = ("crewmate", "impostor")
LOGIT_FIELDS = ["count", "proportion", "logit", "ci_low", "ci_high"]
_role = attrgetter("role")
_game = attrgetter("game_id")


class Insufficient(Exception):
    """A report section has no usable slice of data."""


@dataclass
class _Game:
    game_id: str
    label: str
    num_crew: int
    num_impostors: int
    winner: str
    reason: str
    end_round: int
    num_discussions: int
    num_ejects: int
    words: int
    n_spoken: int
    n_opportunities: int

    @property
    def completed(self) -> bool:
        return self.winner in ("crew", "impostor")

    @property
    def words_per_discussion(self) -> float:
        return self.words / self.num_discussions if self.num_discussions else 0.0

    @property
    def words_per_utterance(self) -> float:
        return self.words / self.n_spoken if self.n_spoken else 0.0


@dataclass
class _Utt:
    key: str
    game_id: str
    role: str
    meeting_index: int
    abstained: bool


@dataclass
class AnalysisReport:
    sections: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"sections": self.sections, "notes": self.notes}, indent=2, sort_keys=True
        )


def _load_corpus(corpus_dir: Path):
    """Read the corpus in one pass: the games, every utterance slot, the
    meetings that ejected someone, the meeting and ejection rounds per
    configuration label, and the number of failed-game placeholders.

    Records are read as decoded JSON objects, of whose events only utterances
    and ejections are looked at. Each record's config and outcome are still
    decoded and each speaker role still passes through ``Role``, so a
    malformed record fails here and ``GameConfig.label`` stays the one label
    rule.
    """
    games: list[_Game] = []
    utterances: list[_Utt] = []
    ejected_meetings: set[tuple[str, int]] = set()
    meeting_rounds_by_label: dict[str, list[int]] = {}
    ejection_rounds_by_label: dict[str, list[int]] = {}
    failures = 0
    for data in _iter_dicts(corpus_dir):
        if data.get("failed"):
            failures += 1
            continue
        game_id = data["game_id"]
        config = GameConfig.from_dict(data["config"])
        outcome = Outcome.from_dict(data["outcome"])
        events = data["events"]
        words = spoken = opportunities = 0
        for event in events:
            kind = event["kind"]
            if kind == "utterance":
                utt = event["data"]
                opportunities += 1
                abstained = utt["text"] == ""
                if not abstained:
                    spoken += 1
                    words += utt["word_count"]
                utterances.append(
                    _Utt(
                        key=utterance_key(
                            utt["game_id"], utt["meeting_index"], utt["discussion_round"], utt["speaker_id"]
                        ),
                        game_id=game_id,
                        role=Role(utt["speaker_role"]).value,
                        meeting_index=utt["meeting_index"],
                        abstained=abstained,
                    )
                )
            elif kind == "ejection":
                ejected_meetings.add((game_id, event["data"]["meeting_index"]))
        label = config.label()
        meeting_rounds, ejection_rounds = data["meeting_rounds"], data["ejection_rounds"]
        meeting_rounds_by_label.setdefault(label, []).extend(meeting_rounds)
        ejection_rounds_by_label.setdefault(label, []).extend(ejection_rounds)
        games.append(
            _Game(
                game_id=game_id,
                label=label,
                num_crew=config.num_crew,
                num_impostors=config.num_impostors,
                winner=outcome.winner,
                reason=outcome.reason,
                end_round=events[-1]["round"] if events else 0,
                num_discussions=len(meeting_rounds),
                num_ejects=len(ejection_rounds),
                words=words,
                n_spoken=spoken,
                n_opportunities=opportunities,
            )
        )
    return games, utterances, ejected_meetings, meeting_rounds_by_label, ejection_rounds_by_label, failures


def _load_labels(annotations_dir: Path | None, task: str) -> dict[str, str] | None:
    if annotations_dir is None:
        return None
    path = Path(annotations_dir) / f"{task}.run0.jsonl"
    if not path.exists():
        return None
    return load_run(path).labels


def _ecdf(values: list[int | float], empty_note: str | None = None) -> dict:
    out: dict = {"n": len(values), "points": []}
    if values:
        out["points"] = [{"x": x, "fraction": f} for x, f in Ecdf(values).steps()]
    elif empty_note:
        out["note"] = empty_note
    return out


def _logit_row(count: int, total: int) -> dict:
    # Wald interval on the corrected log-odds scale, matching logit_prop.
    se = (1.0 / (count + 0.5) + 1.0 / (total - count + 0.5)) ** 0.5
    logit = logit_prop(count, total)
    return {
        "count": count,
        "proportion": count / total,
        "logit": logit,
        "ci_low": logit - 1.96 * se,
        "ci_high": logit + 1.96 * se,
    }


def _tally(labeled: list[tuple[_Utt, str]], key) -> dict[object, Counter]:
    """Label counts per group; a group never seen reads as an empty Counter."""
    groups: dict[object, Counter] = defaultdict(Counter)
    for utt, label in labeled:
        groups[key(utt)][label] += 1
    return groups


def _logit_groups(groups: dict[str, Counter], categories: list[str], inner: str, why: str) -> dict:
    out = {}
    for name, counts in groups.items():
        total = sum(counts.values())
        if total:
            out[name] = {"total": total, inner: {c: _logit_row(counts[c], total) for c in categories}}
        else:
            out[name] = {"insufficient_data": why.format(name)}
    return out


def _chi2(
    counts: dict[str, Counter], rows: tuple[str, ...], categories: list[str], why: str, empty_row: str = ""
):
    """Chi-squared over ``rows`` x the observed ``categories``; returns (kept categories, result).

    Fewer than two observed categories raises ``why``; an empty row raises
    ``empty_row``, or ``why`` when that is not given.
    """
    kept = [c for c in categories if any(counts[r][c] for r in rows)]
    if len(kept) < 2:
        raise Insufficient(why)
    if not all(counts[r] for r in rows):
        raise Insufficient(empty_row or why)
    result = chi_squared([[counts[r][c] for c in kept] for r in rows])
    return kept, {"statistic": result.statistic, "df": result.df, "p_value": result.p_value}


def _spearman(xs: list[float], ys: list[float], **extra) -> dict:
    try:
        result = spearman(xs, ys)
    except ValueError as exc:
        return {"note": str(exc)}
    return {"rho": result.rho, "p_value": result.p_value, **extra}


class _Analyzer:
    """One method per report section, named as in ``SECTIONS``."""

    def __init__(self, corpus_dir: Path, annotations_dir: Path | None):
        (
            self.games,
            self.utterances,
            self.ejected_meetings,
            self.meeting_rounds,
            self.ejection_rounds,
            self.failures,
        ) = _load_corpus(corpus_dir)
        self.completed = [g for g in self.games if g.completed]
        self.outcome_by_game = {g.game_id: g.winner for g in self.games}
        self.labels = {task: _load_labels(annotations_dir, task) for task in TASK_LABELS}
        spoken = [u for u in self.utterances if not u.abstained]
        self._labeled_by_task: dict[str, list[tuple[_Utt, str]]] = {}
        for task, valid in TASK_LABELS.items():
            labels = self.labels[task]
            if labels is not None:
                self._labeled_by_task[task] = [
                    (u, labels[u.key]) for u in spoken if labels.get(u.key) in valid
                ]
        self.notes: list[str] = []

    def _labeled(self, task: str) -> list[tuple[_Utt, str]]:
        """Spoken utterances whose run-0 ``task`` label is one of the task's categories."""
        if task not in self._labeled_by_task:
            raise Insufficient(f"no {task} annotations supplied")
        return self._labeled_by_task[task]

    def _completed_only(self, labeled: list[tuple[_Utt, str]], why: str) -> list[tuple[_Utt, str]]:
        kept = [(u, lab) for u, lab in labeled if self.outcome_by_game.get(u.game_id) in ("crew", "impostor")]
        if not kept:
            raise Insufficient(why)
        return kept

    def _design(self, winner: str, predictors: dict[str, list[float]]) -> dict:
        """Logistic regression of ``winner`` victory over completed games."""
        rows = self.completed
        if len(rows) < 8:
            raise Insufficient(f"need at least 8 completed games, have {len(rows)}")
        y = [1 if g.winner == winner else 0 for g in rows]
        if min(y) == max(y):
            raise Insufficient("all completed games have the same winner")
        kept = [name for name, column in predictors.items() if min(column) != max(column)]
        dropped = [name for name in predictors if name not in kept]
        if dropped:
            self.notes.append(f"regression dropped constant predictors: {dropped}")
        if not kept:
            raise Insufficient("all predictors are constant")

        def design(names: list[str]) -> list[list[float]]:
            return [[1.0, *values] for values in zip(*(predictors[name] for name in names))]

        X = design(kept)
        redundant = collinear_columns(X, ["intercept"] + kept)
        if redundant:
            self.notes.append(f"regression dropped collinear predictors: {redundant}")
            kept = [name for name in kept if name not in redundant]
            if not kept:
                raise Insufficient("no independent predictors remain")
            X = design(kept)
        fit = logistic_fit(X, y, names=["intercept"] + kept)
        return {**fit.to_dict(), "dropped_constant": dropped, "dropped_collinear": redundant, "n": len(rows)}

    def _act_two_by_two(self, labeled, split, order: tuple[str, str]) -> dict:
        """Per-act 2x2 contrasts; OR > 1 means the act leans toward order[0]."""
        groups = _tally(labeled, split)
        first, second = order
        n1, n2 = sum(groups[first].values()), sum(groups[second].values())
        if n1 == 0 or n2 == 0:
            raise Insufficient(f"no classified utterances for one of {order}")
        out = {}
        for act in SPEECH_ACTS:
            k1, k2 = groups[first][act], groups[second][act]
            if k1 + k2 == 0:
                continue
            entry: dict = {"groups": [first, second], "counts": [k1, k2], "totals": [n1, n2]}
            try:
                ratio = odds_ratio(k1, n1 - k1, k2, n2 - k2)
                entry.update(
                    odds_ratio=ratio.odds_ratio,
                    ci_low=ratio.ci_low,
                    ci_high=ratio.ci_high,
                    corrected=ratio.corrected,
                )
            except ValueError as exc:
                entry["note"] = str(exc)
            try:
                z, p = two_prop_z(k1, n1, k2, n2)
                entry.update(z=z, z_p_value=p)
            except ValueError as exc:
                entry["z_note"] = str(exc)
            out[act] = entry
        return out

    # ---- sections ----

    def counts(self) -> dict:
        opportunities = len(self.utterances)
        abstentions = sum(1 for u in self.utterances if u.abstained)
        out = {
            "games": len(self.games),
            "completed": len(self.completed),
            "timeouts": sum(1 for g in self.games if g.reason == "timeout"),
            "failed_records": self.failures,
            "utterance_opportunities": opportunities,
            "abstentions": abstentions,
            "spoken": opportunities - abstentions,
        }
        # Every spoken utterance is either classified or carries the task's no-label value.
        for task, no_label in (("speech_act", UNCLASSIFIABLE), ("deception", "missing")):
            labels, valid = self.labels[task], TASK_LABELS[task]
            if labels is None:
                continue
            classified = sum(1 for v in labels.values() if v in valid and v != no_label)
            unlabeled = sum(1 for v in labels.values() if v == no_label)
            out[task] = {
                "classified": classified,
                no_label: unlabeled,
                "reconciles": classified + unlabeled == out["spoken"],
            }
        return out

    def win_rates(self) -> dict:
        out = {}
        for label in sorted({g.label for g in self.games}):
            rows = [g for g in self.games if g.label == label]
            crew = sum(1 for g in rows if g.winner == "crew")
            impostor = sum(1 for g in rows if g.winner == "impostor")
            decided = crew + impostor
            out[label] = {
                "games": len(rows),
                "crew_wins": crew,
                "impostor_wins": impostor,
                "timeouts": sum(1 for g in rows if g.reason == "timeout"),
                "crew_win_rate": crew / decided if decided else None,
            }
        return out

    def win_round_ecdf(self) -> dict:
        return {
            label: {
                winner: _ecdf([g.end_round for g in self.games if g.label == label and g.winner == winner])
                for winner in ("crew", "impostor")
            }
            for label in sorted({g.label for g in self.games})
        }

    def meeting_ecdf(self) -> dict:
        return {
            label: {
                "discussions": _ecdf(self.meeting_rounds[label], "no meetings"),
                "ejections": _ecdf(self.ejection_rounds[label], "no ejections"),
            }
            for label in sorted(self.meeting_rounds)
        }

    def win_regression(self) -> dict:
        rows = self.completed
        return self._design("crew", {name: [getattr(g, name) for g in rows] for name in WIN_PREDICTORS})

    def speech_act_by_role(self) -> dict:
        by_role = _tally(self._labeled("speech_act"), _role)
        groups = {role: by_role[role] for role in ROLES}
        return _logit_groups(groups, SPEECH_ACTS, "acts", "no classified utterances for {}")

    def role_act_chi2(self) -> dict:
        by_role = _tally(self._labeled("speech_act"), _role)
        acts, result = _chi2(
            by_role,
            ROLES,
            SPEECH_ACTS,
            "fewer than two speech-act categories observed",
            empty_row=f"no classified utterances for one of {ROLES}",
        )
        return {"acts": acts, "dropped_empty": [a for a in SPEECH_ACTS if a not in acts], **result}

    def speech_act_role_odds(self) -> dict:
        """Odds of each act for impostors vs crew (OR > 1 = impostor-leaning)."""
        labeled = self._labeled("speech_act")
        return self._act_two_by_two(labeled, _role, order=("impostor", "crewmate"))

    def speech_act_outcome_odds(self) -> dict:
        """Odds of each act in crew-win games vs impostor-win games."""
        labeled = self._completed_only(
            self._labeled("speech_act"), "no classified utterances in completed games"
        )
        return self._act_two_by_two(
            labeled,
            lambda utt: "crew_win" if self.outcome_by_game[utt.game_id] == "crew" else "impostor_win",
            order=("crew_win", "impostor_win"),
        )

    def pre_ejection(self) -> dict:
        """Speech acts inside meetings that ended with an ejection."""
        labeled = [
            (utt, label)
            for utt, label in self._labeled("speech_act")
            if (utt.game_id, utt.meeting_index) in self.ejected_meetings
        ]
        if not labeled:
            raise Insufficient("no classified utterances in ejection meetings")
        by_role = _tally(labeled, _role)
        shares = {}
        for role in ROLES:
            total = sum(by_role[role].values())
            shares[role] = {
                "total": total,
                "acts": {act: (by_role[role][act] / total if total else None) for act in SPEECH_ACTS},
            }
        out: dict = {"shares": shares, "n_utterances": len(labeled)}
        try:
            why = "need both roles and two acts in ejection meetings"
            acts, result = _chi2(by_role, ROLES, SPEECH_ACTS, why)
            out["chi2"] = {"acts": acts, **result}
        except Insufficient as exc:
            out["chi2"] = {"insufficient_data": str(exc)}
        return out

    def deception_proportions(self) -> dict:
        labeled = self._labeled("deception")
        by_outcome = _tally(labeled, lambda u: self.outcome_by_game.get(u.game_id))
        by_role = _tally(labeled, _role)
        groups = {
            "crew_win": by_outcome["crew"],
            "impostor_win": by_outcome["impostor"],
            "impostor": by_role["impostor"],
            "crewmate": by_role["crewmate"],
        }
        return _logit_groups(groups, DECEPTION_TYPES, "types", "no labeled utterances in group {}")

    def deception_outcome_chi2(self) -> dict:
        labeled = self._completed_only(
            self._labeled("deception"), "no labeled utterances in completed games"
        )
        by_winner = _tally(labeled, lambda u: self.outcome_by_game[u.game_id])
        types, result = _chi2(
            by_winner, ("crew", "impostor"), DECEPTION_TYPES, "need both outcomes and two deception types"
        )
        return {"types": types, **result}

    def deception_vs_ejections(self) -> dict:
        by_game = _tally(self._labeled("deception"), _game)
        rows = self.completed
        if len(rows) < 3:
            raise Insufficient("need at least 3 completed games")
        ejections = [float(g.num_ejects) for g in rows]
        return {
            dtype: _spearman([float(by_game[g.game_id][dtype]) for g in rows], ejections, n=len(rows))
            for dtype in DECEPTION_TYPES
        }

    def speech_deception_spearman(self) -> dict:
        """Game-level coupling: deception-type rate vs speech-act share."""
        acts_by_game = _tally(self._labeled("speech_act"), _game)
        dec_by_game = _tally(self._labeled("deception"), _game)
        games = sorted(set(acts_by_game) & set(dec_by_game))
        if len(games) < 3:
            raise Insufficient("need at least 3 games with both annotation tasks")
        acts_total = {g: sum(acts_by_game[g].values()) for g in games}
        dec_total = {g: sum(dec_by_game[g].values()) for g in games}
        out: dict = {}
        for dtype in ("falsification", "concealment", "equivocation"):
            xs = [dec_by_game[g][dtype] / dec_total[g] for g in games]
            out[dtype] = {
                act: _spearman(xs, [acts_by_game[g][act] / acts_total[g] for g in games])
                for act in SPEECH_ACTS
            }
        out["n_games"] = len(games)
        return out

    def deception_win_regression(self) -> dict:
        """Impostor victory (y=1) predicted from per-game deception counts."""
        by_game = _tally(self._labeled("deception"), _game)
        return self._design(
            "impostor",
            {dtype: [float(by_game[g.game_id][dtype]) for g in self.completed] for dtype in DECEPTION_TYPES},
        )

    def cross_role_dynamics(self) -> dict:
        """Representative-share by role across successive meetings.

        Approximate by design: meetings are pooled by their within-game
        ordinal and compared with a lag-1 rank correlation, since the exact
        pairing underlying round-to-round carryover is not pinned down.
        """
        by_meeting = _tally(self._labeled("speech_act"), attrgetter("meeting_index", "role"))

        def share(key: tuple[int, str]) -> float:
            return by_meeting[key]["representatives"] / sum(by_meeting[key].values())

        shares = [
            {
                "meeting_ordinal": o,
                "role": role,
                "share": share((o, role)),
                "n": sum(by_meeting[o, role].values()),
            }
            for o, role in sorted(by_meeting)
        ]
        ordinals = sorted({o for o, _ in by_meeting if all((o, role) in by_meeting for role in ROLES)})
        series = {role: [share((o, role)) for o in ordinals] for role in ROLES}
        out: dict = {
            "representative_share": shares,
            "note": "approximate analysis; see docstring",
            "deltas": {
                role: [round(b - a, 12) for a, b in zip(values, values[1:])]
                for role, values in series.items()
            },
        }
        if len(ordinals) >= 4:
            out["impostor_leads_crew"] = _spearman(series["impostor"][:-1], series["crewmate"][1:])
            out["crew_leads_impostor"] = _spearman(series["crewmate"][:-1], series["impostor"][1:])
        else:
            out["lagged"] = {"insufficient_data": "need at least 4 meeting ordinals with both roles"}
        return out


# ---- exports: each writes one section's CSV (and SVG) from its report dict ----


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_cells(out: Path, name: str, data: dict, keys: list[str], fields: list[str]) -> None:
    """One row per cell, keyed by ``len(keys)`` levels of nesting; non-dict entries are skipped."""
    cells = [((key,), cell) for key, cell in data.items() if isinstance(cell, dict)]
    if len(keys) == 2:
        cells = [((outer, inner), cell) for (outer,), row in cells for inner, cell in row.items()]
    rows = [[*key, *(cell.get(f, "" if f == "note" else None) for f in fields)] for key, cell in cells]
    _write_csv(out / f"{name}.csv", keys + fields, rows)


def _write_ecdf(out: Path, name: str, data: dict, series_column: str, title: str) -> None:
    rows, series = [], []
    for label, curves in data.items():
        for curve, ecdf in curves.items():
            rows.extend([label, curve, p["x"], p["fraction"]] for p in ecdf["points"])
            if ecdf["points"]:
                series.append((f"{label}/{curve}", [(p["x"], p["fraction"]) for p in ecdf["points"]]))
    _write_csv(out / f"{name}.csv", ["config", series_column, "round", "fraction"], rows)
    svg.step_plot(out / f"{name}.svg", series, title, "round")


def _write_regression(out: Path, name: str, data: dict, title: str | None = None) -> None:
    columns = ["beta", "se", "ci_low", "ci_high"]
    rows = [list(row) for row in zip(data["names"], *(data[c] for c in columns))]
    _write_csv(out / f"{name}.csv", ["predictor"] + columns, rows)
    if title is not None:
        plot_rows = [(r[0], r[1], r[3], r[4]) for r in rows if r[0] != "intercept"]
        svg.interval_plot(out / f"{name}.svg", plot_rows, title, "beta", reference=0.0)


def _write_logits(
    out: Path, name: str, data: dict, columns: list[str], inner: str, plot: str | None = None, title: str = ""
) -> None:
    """Logit-proportion cells per group; the SVG, if any, draws group ``plot``."""
    rows, plot_rows = [], []
    for group, cells in data.items():
        for category, cell in cells.get(inner, {}).items():
            rows.append([group, category, *(cell[f] for f in LOGIT_FIELDS)])
            if group == plot:
                plot_rows.append((category, cell["logit"], cell["ci_low"], cell["ci_high"]))
    _write_csv(out / f"{name}.csv", columns + LOGIT_FIELDS, rows)
    if plot is not None:
        svg.interval_plot(out / f"{name}.svg", plot_rows, title, "logit proportion")


def _write_role_odds(out: Path, name: str, data: dict) -> None:
    _write_cells(out, name, data, ["act"], ["odds_ratio", "ci_low", "ci_high", "z", "z_p_value", "note"])
    plot_rows = [
        (act, cell["odds_ratio"], cell["ci_low"], cell["ci_high"])
        for act, cell in data.items()
        if "odds_ratio" in cell
    ]
    title = "Speech-act odds, impostor vs crew"
    svg.interval_plot(out / f"{name}.svg", plot_rows, title, "odds ratio", reference=1.0, log_x=True)


def _write_pre_ejection(out: Path, name: str, data: dict) -> None:
    rows = [
        [role, act, share] for role, by_act in data["shares"].items() for act, share in by_act["acts"].items()
    ]
    _write_csv(out / f"{name}_shares.csv", ["role", "act", "share"], rows)


def _write_dynamics(out: Path, name: str, data: dict) -> None:
    rows = [[r["meeting_ordinal"], r["role"], r["share"], r["n"]] for r in data["representative_share"]]
    _write_csv(out / f"{name}.csv", ["meeting_ordinal", "role", "representative_share", "n"], rows)


# The report, in order: each section's ``_Analyzer`` method name and the
# writer of its files under ``out_dir`` (None: report.json only). Builders and
# writers reach ``svg`` and the stats functions through this module's globals
# at call time, never through a reference taken here, so that
# ``bench/tracing.py`` can patch them and count the calls.
SECTIONS = (
    ("counts", None),
    (
        "win_rates",
        partial(
            _write_cells,
            keys=["config"],
            fields=["games", "crew_wins", "impostor_wins", "timeouts", "crew_win_rate"],
        ),
    ),
    ("win_round_ecdf", partial(_write_ecdf, series_column="winner", title="Cumulative wins over rounds")),
    (
        "meeting_ecdf",
        partial(_write_ecdf, series_column="series", title="Meetings and ejections over rounds"),
    ),
    ("win_regression", partial(_write_regression, title="Log-odds of crew victory")),
    ("speech_act_by_role", partial(_write_logits, columns=["role", "act"], inner="acts")),
    ("role_act_chi2", None),
    ("speech_act_role_odds", _write_role_odds),
    (
        "speech_act_outcome_odds",
        partial(_write_cells, keys=["act"], fields=["odds_ratio", "ci_low", "ci_high", "note"]),
    ),
    ("pre_ejection", _write_pre_ejection),
    (
        "deception_proportions",
        partial(
            _write_logits,
            columns=["group", "type"],
            inner="types",
            plot="impostor",
            title="Deception-type logit proportions (impostor utterances)",
        ),
    ),
    ("deception_outcome_chi2", None),
    ("deception_vs_ejections", partial(_write_cells, keys=["type"], fields=["rho", "p_value", "note"])),
    (
        "speech_deception_spearman",
        partial(_write_cells, keys=["deception", "act"], fields=["rho", "p_value", "note"]),
    ),
    ("deception_win_regression", _write_regression),
    ("cross_role_dynamics", _write_dynamics),
)


def analyze(
    corpus_dir: str | Path,
    annotations_dir: str | Path | None = None,
    out_dir: str | Path | None = None,
) -> AnalysisReport:
    """Compute every report section; optionally export CSV/SVG to ``out_dir``."""
    analyzer = _Analyzer(Path(corpus_dir), Path(annotations_dir) if annotations_dir else None)
    if not analyzer.games:
        raise ValueError(f"no game records found under {corpus_dir}")
    report = AnalysisReport()
    for name, _ in SECTIONS:
        try:
            report.sections[name] = getattr(analyzer, name)()
        except Insufficient as exc:
            report.sections[name] = {"insufficient_data": str(exc)}
    report.notes = analyzer.notes

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
        for name, export in SECTIONS:
            if export is not None and "insufficient_data" not in report.sections[name]:
                export(out, name, report.sections[name])
    return report
