"""Shared fixtures: the operating point, a solved profile, and instances.

The expensive pieces (integral-equation solve, mollified profile, built
instances) are session-scoped; unit tests share them.  The full
acceptance-scale instance lives in test_acceptance.py so that a unit-only
run never pays for it.
"""

import numpy as np
import pytest

from mpursuit import bundle, operating_point, solve_f
from mpursuit.adversarial import (ConstructionParams, advance, build_instance,
                                  choose_epsilon, finalize, init_state)
from mpursuit.instance_io import load_instance
from mpursuit.phi_builder import build_profile


@pytest.fixture(scope="session")
def op_point():
    return operating_point()


@pytest.fixture(scope="session")
def coarse_solution(op_point):
    """Integral-equation solve at M=1001 (fast, accurate enough for units)."""
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(1001)
    report = solve_f(g, tau, tol=1e-9)
    return beta, tau, g, report


@pytest.fixture(scope="session")
def profile05(coarse_solution):
    """Mollified weight at t=0.05, the construction-friendly width."""
    beta, tau, _, report = coarse_solution
    fbar = report.converged_f
    profile, cert = build_profile(fbar, beta, tau, t=0.05)
    assert cert.all_pass
    return profile


@pytest.fixture(scope="session")
def small_instance(profile05):
    """Tiny instance (K=40, N=80): step conditions and oracles hold, but the
    selection margins are allowed to be negative at this scale."""
    params = ConstructionParams(beta=profile05.beta, K=40, N=80, n_max=240,
                                epsilon=None, phi=profile05)
    state = init_state(params)
    advance(state, params)
    params.epsilon = choose_epsilon(state, params)
    return finalize(state, params)


@pytest.fixture(scope="session")
def mid_instance(profile05):
    """Smallest scale with strict selection margins (K=200, N=400)."""
    instance, report = build_instance(profile05, K=200, N=400, n_max=900)
    return instance, report


@pytest.fixture(scope="session")
def load_text(tmp_path_factory):
    """load_instance of an instance text, written to a file as a command reads it."""
    path = tmp_path_factory.mktemp("text") / "instance.txt"

    def load(text):
        path.write_text(text, encoding="utf-8")
        return load_instance(str(path))
    return load


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
