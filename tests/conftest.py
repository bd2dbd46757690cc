"""Shared fixtures: small catalogs, configs, and executed mini-corpora.

Everything here is deliberately small (scale factor 0.1-0.2) so the unit
and integration test suite runs in seconds; the full-size corpora live in
``data/corpora`` and are only used by ``python -m repro.experiments``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Executor
from repro.engine.system import research_4node
from repro.experiments.corpus import build_corpus
from repro.optimizer import Optimizer
from repro.workloads.customer import build_customer_catalog
from repro.workloads.generator import generate_pool
from repro.workloads.tpcds import build_tpcds_catalog


@pytest.fixture(scope="session")
def tpcds_catalog():
    """A small TPC-DS-like catalog shared across the test session."""
    return build_tpcds_catalog(scale_factor=0.15, seed=123)


@pytest.fixture(scope="session")
def customer_catalog():
    return build_customer_catalog(seed=321, scale=0.3)


@pytest.fixture(scope="session")
def config():
    return research_4node()


@pytest.fixture(scope="session")
def optimizer(tpcds_catalog, config):
    return Optimizer(tpcds_catalog, config)


@pytest.fixture(scope="session")
def executor(tpcds_catalog, config):
    return Executor(tpcds_catalog, config)


@pytest.fixture(scope="session")
def mini_corpus(tpcds_catalog, config):
    """A small executed corpus for model-level tests."""
    pool = generate_pool(140, seed=9, problem_fraction=0.2)
    return build_corpus(tpcds_catalog, config, pool)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def serve_service(tpcds_catalog, config, mini_corpus):
    """A trained predictor for serving tests (fit once per session)."""
    from repro.api import QueryPerformancePredictor

    service = QueryPerformancePredictor(tpcds_catalog, config=config)
    service.fit_corpus(mini_corpus)
    return service


@pytest.fixture()
def load_schedule():
    """Deterministic request schedules: seeded arrivals, no wall-clock.

    Returns :func:`repro.serve.generate_load` — the same generator
    ``scripts/bench.py`` drives — so every serve/chaos drill replays an
    identical request stream for a given ``(n, seed)``.
    """
    from repro.serve.loadgen import generate_load

    return generate_load


def pytest_sessionfinish(session, exitstatus):
    """Session-end sanitizer gate for ``REPRO_SANITIZE=1`` runs.

    The CI ``concurrency-sanitizer`` job runs the serve and chaos suites
    with tracking on; any accumulated CC1xx finding (lock-order
    inversion, empty lockset, long hold) is printed and fails the run
    even though every functional assertion passed.
    """
    import os

    if os.environ.get("REPRO_SANITIZE") != "1":
        return
    from repro.analysis.sanitizer import dump_sanitizer_report

    count, report = dump_sanitizer_report()
    print(f"\n{report}")
    if count and session.exitstatus == 0:
        session.exitstatus = 1
