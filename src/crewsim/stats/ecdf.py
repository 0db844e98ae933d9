"""Empirical cumulative distribution function."""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable


class Ecdf:
    """Right-continuous step function: evaluate(x) = #{s <= x} / n."""

    def __init__(self, samples: Iterable[float]):
        self._sorted = sorted(float(s) for s in samples)
        if not self._sorted:
            raise ValueError("ecdf requires a non-empty sample")

    @property
    def n(self) -> int:
        return len(self._sorted)

    def evaluate(self, x: float) -> float:
        return bisect_right(self._sorted, x) / self.n

    __call__ = evaluate

    def steps(self) -> list[tuple[float, float]]:
        """The step-function knots: (unique value, cumulative fraction)."""
        out: list[tuple[float, float]] = []
        for i, value in enumerate(self._sorted):
            if i + 1 == self.n or self._sorted[i + 1] != value:
                out.append((value, (i + 1) / self.n))
        return out
