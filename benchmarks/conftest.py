"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one paper artifact (figure or quantitative
claim; see DESIGN.md section 3) and prints the reproduced table/series
so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction report.  Assertions encode the *shape* each artifact must
have (who wins, by roughly what factor), per the reproduction contract.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The reference implementations (the space-time A* router, the dict
# cage core) live in tests/ as oracles; the before/after benchmarks
# import them from there.  Appended, not prepended, so ``conftest``
# still resolves to this file.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))


def pytest_addoption(parser):
    parser.addoption(
        "--faults",
        action="store_true",
        default=False,
        help="run the degraded-mode (fault-injection) benchmarks too",
    )
    parser.addoption(
        "--wall-clock",
        action="store_true",
        default=False,
        help="run the wall-clock concurrent-tier benchmark too",
    )
    parser.addoption(
        "--workers",
        type=int,
        default=8,
        help="pool size for the wall-clock benchmark (compared to 1)",
    )
    parser.addoption(
        "--multitenant",
        action="store_true",
        default=False,
        help="run the multi-tenant co-scheduling benchmark too",
    )


@pytest.fixture
def faults_enabled(request):
    """Gate for degraded-mode benchmarks: opt in with ``--faults``."""
    if not request.config.getoption("--faults"):
        pytest.skip("degraded-mode benchmark: enable with --faults")
    return True


@pytest.fixture
def wall_clock_workers(request):
    """Gate + pool size for the wall-clock concurrent benchmark: opt in
    with ``--wall-clock``, size the pool with ``--workers N``."""
    if not request.config.getoption("--wall-clock"):
        pytest.skip("wall-clock benchmark: enable with --wall-clock")
    return int(request.config.getoption("--workers"))


@pytest.fixture
def multitenant_enabled(request):
    """Gate for the multi-tenant co-scheduling benchmark: opt in with
    ``--multitenant``."""
    if not request.config.getoption("--multitenant"):
        pytest.skip("multi-tenant benchmark: enable with --multitenant")
    return True


def report(text):
    """Print a reproduction table with a blank line so pytest -s output
    stays readable; also always echo through capture via sys.stdout."""
    print("\n" + text)


@pytest.fixture(scope="session")
def paper_chip_grid():
    from repro.array import paper_grid

    return paper_grid()


@pytest.fixture(scope="session", autouse=True)
def trace_from_env():
    """Honour ``REPRO_TRACE=path`` for benchmark runs: spans from every
    benchmark stream to the JSONL file, flushed+closed at session end."""
    from repro.observability import tracing

    tracer = tracing.configure_from_env()
    yield tracer
    if tracer is not None:
        tracing.shutdown()
