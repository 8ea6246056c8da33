import sys
from pathlib import Path

import numpy as np
import pytest

from sineq.integrate import Engine

# the fixture registry, tests/data/registry.py, is imported as ``registry``
sys.path.insert(0, str(Path(__file__).parent / "data"))


@pytest.fixture
def fast_mc() -> Engine:
    """Small but statistically usable Monte Carlo engine for unit tests."""
    return Engine(method="mc", samples=150_000, seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@pytest.fixture
def choose_passes(monkeypatch):
    """``choose_passes({stream: (means, cov)})`` makes every Monte Carlo pass
    on ``stream`` (0 for the primary pass, ``k << 62`` for recheck ``k``)
    return those column means and covariance instead of drawing, so a test
    of the verdict protocol needs no seed that happens to take its path.
    It returns the (samples, seed, stream, workers) of the passes as they
    run."""
    from sineq import integrate

    def choose(passes: dict) -> list:
        calls = []

        def run_chunked(measure, samples, seed, stream, columns, ncols, workers=1):
            calls.append((samples, seed, stream, workers))
            means, cov = passes[stream]
            return samples, np.array(means, dtype=float), np.array(cov, dtype=float)

        monkeypatch.setattr(integrate, "run_chunked", run_chunked)
        return calls

    return choose
