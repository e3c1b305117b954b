"""Shared fixtures: one finbank warehouse per test session.

Building the warehouse (tables, data, graph, inverted index) takes well
under a second, but SODA instances and experiment outcomes are shared
across modules to keep the suite fast.
"""

from __future__ import annotations

import pytest

from repro.core.soda import Soda, SodaConfig
from repro.warehouse.minibank import build_minibank


@pytest.fixture(scope="session")
def warehouse():
    """The finbank warehouse at evaluation scale."""
    return build_minibank(seed=42, scale=1.0)


@pytest.fixture(scope="session")
def small_warehouse():
    """A reduced finbank for data-graph-heavy tests (BANKS etc.)."""
    return build_minibank(seed=42, scale=0.25)


@pytest.fixture(scope="session")
def soda(warehouse):
    return Soda(warehouse, SodaConfig())


@pytest.fixture(scope="session")
def experiment_outcomes(warehouse):
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(warehouse=warehouse)
    return runner.run_all()


@pytest.fixture(scope="session")
def baseline_evaluations(small_warehouse):
    """The five Table 5 baselines run over the workload (small_warehouse)."""
    from repro.baselines.capabilities import default_systems, evaluate_system

    return [
        evaluate_system(system, small_warehouse)
        for system in default_systems(small_warehouse)
    ]
