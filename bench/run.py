#!/usr/bin/env python3
"""crewsim benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload scripted_pipeline --seed 1 --seconds 30 --trace 0

Run it from the root of a crewsim checkout; it imports the package from
``src/`` and fails if that is missing. The seed generates every input, which
is fitted to a fixed amount of work once, untimed. The workload is then set
up ``SETUP_REPEATS`` times (``setup_s`` is the median), then
passes are repeated until ``--seconds`` have elapsed and each metric is the
median over passes. Every pass checks its outputs; a failed check counts in
``failed`` and makes the result ``"correct": false``. The exit code is 0
whenever a result is printed, and 2 when there is no package to measure.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus the tracing overhead (traced minus untraced ``total_s``).

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are the environment stamp and a readable
table. The full result, and the spans of the last traced pass, are written
under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOADS = ("scripted_pipeline", "chat_annotate", "chat_games")

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "simulate_games_per_s": "games/s",
    "annotate_labels_per_s": "labels/s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="crewsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args, workload) -> dict:
    import numpy
    import requests

    import workloads

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "mock_seed": workload.mock_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "setup_repeats": SETUP_REPEATS,
        "classifier_runs": workloads.RUNS,
        "inputs": workload.inputs,
        "output_sha256": workload.digest,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(args, workload, tracer_cls) -> tuple[dict, list, list]:
    """Fit the inputs, set up, then run passes for ``args.seconds``;
    returns the set-up times, untraced passes and traced passes (with
    their tracers)."""
    workload.fit()
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    plain: list[dict] = []
    traced: list[tuple[dict, object]] = []
    start = time.perf_counter()
    index = 0
    last = 0.0  # seconds the previous pass took
    # start a pass only if it is likely to end nearer the deadline than not
    while (
        time.perf_counter() - start + last / 2 < args.seconds
        or not plain
        or (args.trace and not traced)
    ):
        began = time.perf_counter()
        if args.trace and index % 2:
            tracer = tracer_cls(workload.mock_seed)
            traced.append((workload.iterate(index, tracer), tracer))
            workload.check_trace(tracer)
        else:
            plain.append(workload.iterate(index, nullcontext()))
        last = time.perf_counter() - began
        index += 1
    return {"setups": setups}, plain, traced


def end_to_end(setups: list[float], passes: list[dict]) -> dict:
    return {
        "setup_s": _median(setups),
        "total_s": _median([p["total_s"] for p in passes]),
        "simulate_games_per_s": _median([p["games"] / p["simulate_s"] for p in passes]),
        "annotate_labels_per_s": _median([p["labels"] / p["annotate_s"] for p in passes]),
        "analyze_s": _median([p["analyze_s"] for p in passes]),
    }


def per_layer(plain: list[dict], traced: list) -> dict[str, tuple[float, str]]:
    tables = [tracer.metrics() for _, tracer in traced]
    out = {
        name: (_median([table[name][0] for table in tables]), unit)
        for name, (_, unit) in tables[0].items()
    }
    out["harness.output_bytes"] = (_median([p["output_bytes"] for p, _ in traced]), "B")
    out["trace.overhead_s"] = (
        _median([p["total_s"] for p, _ in traced]) - _median([p["total_s"] for p in plain]),
        "s",
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crewsim" / "__init__.py").is_file():
        print(f"error: no crewsim package under {SRC}; run from a crewsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crewsim

    if Path(crewsim.__file__).resolve().parent != (SRC / "crewsim").resolve():
        print(f"error: crewsim was imported from {crewsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    out_dir = BENCH / "out"
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
    try:
        timings, plain, traced = measure(args, workload, tracing.Tracer)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        values = end_to_end(timings["setups"], plain)
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}

    tally = workload.tally
    correct = tally.failed == 0
    info = stamp(args, workload)
    print("stamp " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    print(f"{'failed_ratio':44s} {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6f}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; setups: {len(timings['setups'])}")
    for problem in dict.fromkeys(tally.problems):
        print(f"CHECK FAILED: {problem}")

    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "stamp": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setups_s": timings["setups"],
        "passes": plain,
        "traced_passes": [p for p, _ in traced],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if traced:
        traced[-1][1].write_spans(out_dir / f"{name}-spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
