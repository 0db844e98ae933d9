from __future__ import annotations

import numpy as np
import pytest

from crewsim.agents.chat import ChatClient
from crewsim.core.types import GameConfig


@pytest.fixture(autouse=True)
def no_retry_sleep(monkeypatch):
    """Chat retries wait a random backoff; tests that count retries need not.
    Tests of the delays themselves pass their own ``sleep`` to the client."""
    monkeypatch.setattr(ChatClient, "sleep", staticmethod(lambda seconds: None))


@pytest.fixture
def small_config() -> GameConfig:
    return GameConfig(num_crew=3, num_impostors=1, seed=11)


def simpson(f, a: float, b: float, n: int = 200_001) -> float:
    """Composite Simpson quadrature on [a, b] with n (odd) sample points.

    Used as the independent oracle for every p-value helper; kept free of
    the library's own special-function code.
    """
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))
