"""Inter-run agreement and stability metrics for annotation runs."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Sequence

from crewsim.annotate.runs import AnnotationRun


@dataclass(frozen=True)
class AgreementResult:
    percent: float
    kappa: float | None  # None when expected agreement is 1 (kappa undefined)


def cohen_kappa(a: Sequence, b: Sequence) -> float | None:
    """Unweighted Cohen's kappa; None when chance agreement p_e equals 1."""
    n = len(a)
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    freq_a = Counter(a)
    freq_b = Counter(b)
    expected = sum(freq_a[label] * freq_b.get(label, 0) for label in freq_a) / (n * n)
    if expected >= 1.0 - 1e-15:
        return None
    return (observed - expected) / (1.0 - expected)


def agreement(a: Sequence, b: Sequence) -> AgreementResult:
    """Fraction of identical labels plus Cohen's kappa over aligned sequences."""
    if len(a) != len(b):
        raise ValueError(f"label sequences differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("label sequences must be non-empty")
    percent = sum(1 for x, y in zip(a, b) if x == y) / len(a)
    return AgreementResult(percent=percent, kappa=cohen_kappa(a, b))


@dataclass(frozen=True)
class StabilityReport:
    """How three classifier passes over the same corpus agree."""

    n_items: int
    identical_fraction: float
    two_of_three_fraction: float
    all_differ_fraction: float
    pairwise_agreement: dict[str, float]
    kappa: dict[str, float | None]

    def to_dict(self) -> dict:
        return asdict(self)


def stability(runs: Sequence[AnnotationRun]) -> StabilityReport:
    """Bucket every item by how many distinct labels three runs produced."""
    if len(runs) != 3:
        raise ValueError(f"stability requires exactly 3 runs, got {len(runs)}")
    keysets = [set(run.labels) for run in runs]
    universe = set.union(*keysets)
    missing = {
        f"run{run.run_id}": sorted(universe - keys)
        for run, keys in zip(runs, keysets)
        if universe - keys
    }
    if missing:
        raise ValueError(f"runs do not cover the same utterances; missing: {missing}")
    if not universe:
        raise ValueError("runs are empty")

    keys = sorted(universe)
    buckets = Counter(len({run.labels[key] for run in runs}) for key in keys)
    n = len(keys)

    pairwise: dict[str, float] = {}
    kappas: dict[str, float | None] = {}
    for left, right in combinations(runs, 2):
        pair = f"run{left.run_id}-run{right.run_id}"
        result = agreement([left.labels[k] for k in keys], [right.labels[k] for k in keys])
        pairwise[pair] = result.percent
        kappas[pair] = result.kappa

    return StabilityReport(
        n_items=n,
        identical_fraction=buckets.get(1, 0) / n,
        two_of_three_fraction=buckets.get(2, 0) / n,
        all_differ_fraction=buckets.get(3, 0) / n,
        pairwise_agreement=pairwise,
        kappa=kappas,
    )
