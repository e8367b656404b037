"""Shared fixtures: small grids, seeded RNG, session-scoped experiment solves."""

from __future__ import annotations

import time

import numpy as np
import pytest

from mfsb import SpatialGrid, TimeGrid, load_config, solve
from mfsb.config import example_config_path
from mfsb.marginals import build_marginals

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a criterion verdict for the end-of-run summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(1234))


@pytest.fixture()
def grid64():
    return SpatialGrid(-2.0, 2.0, 64)


@pytest.fixture()
def grid301():
    return SpatialGrid(-2.0, 2.0, 301)


@pytest.fixture(scope="session")
def example1_config():
    return load_config(example_config_path("example1"))


@pytest.fixture(scope="session")
def example2_config():
    return load_config(example_config_path("example2"))


@pytest.fixture(scope="session")
def example1_run(example1_config):
    """Solve the repulsive-interaction benchmark once; (solution, seconds)."""
    start = time.perf_counter()
    sol = solve(example1_config)
    return sol, time.perf_counter() - start


@pytest.fixture(scope="session")
def example2_run(example2_config):
    """Solve the attractive-interaction benchmark once; (solution, seconds)."""
    start = time.perf_counter()
    sol = solve(example2_config)
    return sol, time.perf_counter() - start


@pytest.fixture(scope="session")
def shared_marginals():
    """The bimodal/unimodal endpoint pair used by both benchmarks, on defaults."""
    cfg = load_config(example_config_path("example1"))
    sgrid = cfg.sgrid
    return (
        build_marginals(cfg.marginal_in, sgrid),
        build_marginals(cfg.marginal_fin, sgrid),
        sgrid,
        cfg.tgrid,
    )


def positive_field(rng, n, spread=3.0):
    """Strictly positive field spanning up to e^{2 spread} across nodes."""
    return np.exp(rng.uniform(-spread, spread, size=n))
