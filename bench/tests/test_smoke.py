"""Smoke test: every workload runs at tiny size, untraced and traced.

    python3 -m pytest bench/tests -q

It is not part of the package's own test suite; it only keeps the benchmark
command working as the package changes.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result(workload: str, trace: int, seed: int = 3) -> dict:
    code, lines, stderr = run(workload, trace, seed)
    assert code == 0, stderr
    return json.loads(lines[-1])


def stamp(workload: str, trace: int, seed: int = 3) -> dict:
    _, lines, _ = run(workload, trace, seed)
    return json.loads(next(line for line in lines if line.startswith("stamp "))[len("stamp "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_are_correct(workload, trace):
    out = result(workload, trace)
    assert out["correct"] and out["failed"] == 0


def test_stamp_names_environment_and_inputs():
    info = stamp("scripted_pipeline", 0)
    for key in ("cpu_model", "nproc", "python", "numpy", "requests", "git_commit", "src_sha256", "seed", "inputs"):
        assert key in info
    assert info["inputs"]["games"] > 0


def test_same_seed_gives_same_output_bytes():
    first = stamp("scripted_pipeline", 0)["output_sha256"]
    again = stamp("scripted_pipeline", 1)["output_sha256"]
    other = stamp("scripted_pipeline", 0, seed=4)["output_sha256"]
    assert first == again != other


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    code, lines, _ = run("scripted_pipeline", 0, cwd=tmp_path)
    assert code != 0
    assert not lines
