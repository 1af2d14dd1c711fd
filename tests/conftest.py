import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import mopkit as mk

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
from helpers import arcsine_problem, build_batch, cached, symmetric_angelesco_problem
from mopkit.equilibrium import minimize_equilibrium


@pytest.fixture(scope="session")
def store():
    return {}


@pytest.fixture(scope="session")
def legendre_ws():
    return mk.build_angelesco([mk.WeightSpec.constant(-1.0, 1.0)])


@pytest.fixture(scope="session")
def angelesco_ws():
    return mk.build_angelesco([mk.WeightSpec.constant(-1.0, 0.0),
                               mk.WeightSpec.constant(0.0, 1.0)])


@pytest.fixture(scope="session")
def nikishin_ws():
    return mk.build_nikishin(mk.WeightSpec.constant(1.0, 2.0),
                             [mk.WeightSpec.constant(-1.0, 0.0)])


# The session-scoped tables below keep the mpmath moment rows that type I
# solves compute on them (``MomentTable.mp_rows``), so those rows carry
# across tests.
@pytest.fixture(scope="session")
def legendre_mt(legendre_ws):
    return mk.moment_table(legendre_ws, 22)


@pytest.fixture(scope="session")
def angelesco_mt(angelesco_ws):
    return mk.moment_table(angelesco_ws, 62)


@pytest.fixture(scope="session")
def nikishin_mt(nikishin_ws):
    return mk.moment_table(nikishin_ws, 20)


@pytest.fixture(scope="session")
def arcsine_equilibrium(store):
    return cached(store, "eq:arcsine",
                  lambda: minimize_equilibrium(arcsine_problem(), max_iter=8000))


@pytest.fixture(scope="session")
def angelesco_equilibrium(store):
    return cached(
        store, "eq:angelesco",
        lambda: minimize_equilibrium(symmetric_angelesco_problem(), max_iter=8000))


@pytest.fixture(scope="session")
def legendre4_batch(store, legendre_ws):
    return cached(store, "batch:legendre4",
                  lambda: build_batch(legendre_ws, (4,), seed=4))


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}", flush=True)
