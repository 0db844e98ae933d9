"""Command-line entry point: simulate, annotate, analyze, replay."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from crewsim.agents.chat import ChatEndpointConfig
from crewsim.annotate.backends import ChatBackend, ReplayBackend, RuleBackend
from crewsim.annotate.runs import load_run
from crewsim.core.types import GameRecord, player_name
from crewsim.engine.replay import verify_record
from crewsim.harness.analysis import analyze
from crewsim.harness.annotator import annotate_corpus
from crewsim.harness.corpus import iter_corpus
from crewsim.harness.plan import ExperimentPlan, default_plan
from crewsim.harness.runner import PlanError, run_experiment


def _echo(message: str) -> None:
    print(message, file=sys.stderr)


def _absent(path: Path | None, what: str, exists=Path.is_file) -> bool:
    """True, after one line on stderr, when ``path`` is given but is not an existing ``what``."""
    if path is None or exists(path):
        return False
    _echo(f"{what} {path} does not exist")
    return True


def _build(build, path: Path, what: str):
    """``build(path)``, or None after one line on stderr naming ``path`` when the
    file cannot be read or does not describe a valid ``what``."""
    try:
        return build(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _echo(f"{what} {path} is invalid: {type(exc).__name__}: {exc}")
        return None


def cmd_simulate(args) -> int:
    if _absent(args.plan, "plan file"):
        return 2
    plan = _build(ExperimentPlan.from_file, args.plan, "plan file") if args.plan else default_plan()
    if plan is None:
        return 2
    try:
        out = run_experiment(plan, args.out, workers=args.workers, echo=_echo)
    except PlanError as exc:
        _echo(f"plan file {args.plan} cannot run: {exc}")
        return 2
    _echo(f"corpus written to {out}")
    return 0


def cmd_annotate(args) -> int:
    if args.runs < 1:
        _echo(f"--runs must be at least 1, got {args.runs}")
        return 2
    if _absent(args.corpus, "corpus directory", Path.is_dir):
        return 2
    if args.backend == "rules":
        backend = RuleBackend()
    elif args.backend == "chat":
        if not args.endpoint:
            _echo("--endpoint FILE is required with --backend chat")
            return 2
        if _absent(args.endpoint, "endpoint file"):
            return 2
        backend = _build(lambda path: ChatBackend(ChatEndpointConfig.from_file(path)), args.endpoint, "endpoint file")
        if backend is None:
            return 2
    else:
        labels = {}
        for task, path in (("speech_act", args.replay_speech), ("deception", args.replay_deception)):
            labels[task] = {}
            if path is None:
                continue
            run = None if _absent(path, "replay file") else _build(load_run, path, "replay file")
            if run is None:
                return 2
            if run.task != task:
                _echo(f"replay file {path} holds {run.task} labels, but its flag takes {task} labels")
                return 2
            labels[task] = run.labels
        if not any(labels.values()):
            _echo("--replay-speech and/or --replay-deception required with --backend replay")
            return 2
        backend = ReplayBackend(labels["speech_act"], labels["deception"])
    out = annotate_corpus(
        args.corpus,
        backend,
        runs=args.runs,
        out_dir=args.out,
        discussion_window=args.discussion_window,
        echo=_echo,
    )
    _echo(f"annotations written to {out}")
    return 0


def cmd_analyze(args) -> int:
    if _absent(args.corpus, "corpus directory", Path.is_dir):
        return 2
    if _absent(args.annotations, "annotations directory", Path.is_dir):
        return 2
    if next(iter_corpus(args.corpus), None) is None:
        _echo(f"corpus directory {args.corpus} holds no game records")
        return 2
    report = analyze(args.corpus, args.annotations, out_dir=args.out)
    if args.out:
        _echo(f"report written to {args.out}")
    else:
        print(report.to_json())
    return 0


def _print_event(event, names) -> None:
    prefix = f"[r{event.round:03d}]"
    kind, data = event.kind, event.data
    if kind == "game_start":
        roles = ", ".join(f"{names[int(pid)]}={role}" for pid, role in sorted(data["roles"].items(), key=lambda kv: int(kv[0])))
        print(f"{prefix} game {data['game_id']} ({data['label']}, seed {data['seed']}): {roles}")
    elif kind == "move":
        print(f"{prefix} {names[data['player']]} moves to {data['to']}")
    elif kind == "vent":
        print(f"{prefix} {names[data['player']]} vents {data['from']} -> {data['to']}")
    elif kind == "task_complete":
        print(f"{prefix} {names[data['player']]} completes task {data['task_index']} in {data['room']}")
    elif kind == "kill":
        print(f"{prefix} {names[data['killer']]} kills {names[data['victim']]} in {data['room']}")
    elif kind == "no_op":
        print(f"{prefix} {names[data['player']]} does nothing ({data['reason']})")
    elif kind == "meeting_start":
        cause = "body report" if data["cause"] == "body_report" else "emergency"
        extra = f" (victim {names[data['victim']]})" if data.get("victim") is not None else ""
        print(f"{prefix} meeting {data['meeting_index']} starts: {cause} by {names[data['caller']]}{extra}")
    elif kind == "utterance":
        text = data["text"] or "(abstains)"
        print(f'{prefix}   {names[data["speaker_id"]]}: {text}')
    elif kind == "votes_tallied":
        votes = ", ".join(
            f"{names[int(voter)]}->{'skip' if target is None else names[target]}"
            for voter, target in data["votes"].items()
        )
        print(f"{prefix} votes: {votes}")
    elif kind == "ejection":
        print(f"{prefix} {names[data['player']]} is ejected")
    elif kind == "reveal":
        print(f"{prefix} {names[data['player']]} was {data['role']}")
    elif kind == "no_ejection":
        print(f"{prefix} no one is ejected")
    elif kind == "game_end":
        print(f"{prefix} game over: {data['winner']} ({data['reason']})")


def cmd_replay(args) -> int:
    if _absent(args.game, "game file"):
        return 2
    lines = args.game.read_text("utf-8").splitlines()
    if not 0 <= args.index < len(lines):
        _echo(f"{args.game} holds {len(lines)} record line(s); --index {args.index} is out of range")
        return 2
    data = json.loads(lines[args.index])
    if data.get("failed"):
        _echo(f"game {data.get('game_id')} failed and has no record: {data.get('error')}")
        return 2
    record = GameRecord.from_dict(data)
    names = {pid: player_name(pid) for pid in range(record.config.num_players)}
    for event in record.events:
        _print_event(event, names)
    if args.verify:
        problems = verify_record(record)
        if problems:
            for problem in problems:
                _echo(f"replay mismatch: {problem}")
            return 1
        _echo("replay verified: event trace and outcome reproduced")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crewsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run an experiment plan into a corpus directory")
    simulate.add_argument("--plan", type=Path, default=None, help="plan JSON (default: bundled 11-config grid)")
    simulate.add_argument("--out", type=Path, required=True)
    simulate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for scripted plans; chat plans run games on threads, bounded by the "
        "endpoint's max_concurrency",
    )
    simulate.set_defaults(func=cmd_simulate)

    annotate = sub.add_parser("annotate", help="label corpus utterances with a classifier backend")
    annotate.add_argument("--corpus", type=Path, required=True)
    annotate.add_argument("--backend", choices=("chat", "rules", "replay"), required=True)
    annotate.add_argument("--runs", type=int, default=3, help="classifier passes per task, at least 1")
    annotate.add_argument("--out", type=Path, default=None)
    annotate.add_argument("--endpoint", type=Path, default=None, help="chat endpoint config JSON")
    annotate.add_argument("--replay-speech", type=Path, default=None, help="speech-act run file to replay")
    annotate.add_argument("--replay-deception", type=Path, default=None, help="deception run file to replay")
    annotate.add_argument(
        "--discussion-window",
        choices=("meeting", "game"),
        default="meeting",
        help="transcript context handed to the deception classifier",
    )
    annotate.set_defaults(func=cmd_annotate)

    analyze_cmd = sub.add_parser("analyze", help="compute the statistics report from corpus + annotations")
    analyze_cmd.add_argument("--corpus", type=Path, required=True)
    analyze_cmd.add_argument("--annotations", type=Path, default=None)
    analyze_cmd.add_argument("--out", type=Path, default=None)
    analyze_cmd.set_defaults(func=cmd_analyze)

    replay = sub.add_parser("replay", help="pretty-print (and optionally verify) a logged game")
    replay.add_argument("--game", type=Path, required=True, help="JSONL file of game records")
    replay.add_argument(
        "--index", type=int, default=0, help="line to replay, from 0; in a config's JSONL, line N is repetition N"
    )
    replay.add_argument("--verify", action="store_true", help="re-simulate and compare")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
