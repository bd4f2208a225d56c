"""Shared fixtures: the operating point, a solved profile, instances, and
the reference OGA and full-Gram loops.

The expensive pieces (integral-equation solve, mollified profile, built
instances) are session-scoped; unit tests share them.  The full
acceptance-scale instance lives in test_acceptance.py so that a unit-only
run never pays for it.
"""

import numpy as np
import pytest

from mpursuit import bundle, cli, operating_point, solve_f
from mpursuit.adversarial import (ConstructionParams, _residual_blocks, advance,
                                  build_instance, choose_epsilon, finalize, init_state)
from mpursuit.instance_io import load_instance
from mpursuit.phi_builder import build_profile


@pytest.fixture(scope="session")
def op_point():
    return operating_point(**cli._MARGINS)


@pytest.fixture(scope="session")
def coarse_solution(op_point):
    """Integral-equation solve at M=1001 (fast, accurate enough for units)."""
    beta, tau = op_point
    g = bundle(beta, tau).g_grid(1001)
    report = solve_f(g, tol=1e-9, max_iter=cli._SOLVE["max_iter"])
    return beta, tau, g, report


@pytest.fixture(scope="session")
def profile05(coarse_solution):
    """Mollified weight at t=0.05, the construction-friendly width."""
    beta, tau, _, report = coarse_solution
    fbar = report.converged_f
    profile, cert = build_profile(fbar, beta, t=0.05)
    assert cert.all_pass
    return profile


@pytest.fixture(scope="session")
def small_instance(profile05):
    """Tiny instance (K=40, N=80): step conditions and oracles hold, but the
    selection margins are allowed to be negative at this scale."""
    params = ConstructionParams(K=40, N=80, n_max=240, epsilon=None, phi=profile05)
    state = init_state(params)
    advance(state)
    params.epsilon = choose_epsilon(state)
    return finalize(state)


@pytest.fixture(scope="session")
def mid_instance(profile05):
    """Smallest scale with strict selection margins (K=200, N=400)."""
    instance, report = build_instance(profile05, K=200, N=400, n_max=900)
    return instance, report


def _residual_history(state):
    """r_m for m = N..n_max, stacked as rows m - N: the blocks of one walk
    of `_residual_blocks` from the stored r_N, then its last residual."""
    rows = []
    for block, r in _residual_blocks(state):
        rows.append(block)
    return np.vstack([*rows, r[None]])


@pytest.fixture(scope="session")
def residual_history():
    """The residual history a construction no longer stores, from its walk."""
    return _residual_history


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


def _single_pass_oga(f, dictionary, steps):
    """run("oga") as it was before look-ahead blocks, a literal copy of its
    loop: each step selects by one product of the dictionary with the
    residual's 64-aligned live prefix, and projects the atom by one pass of
    classical Gram-Schmidt against a full-width basis, with the DGKS
    re-check.  Returns the (atom index, sign) picks and the residual norms."""
    mat = dictionary.matrix()
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    basis = np.zeros((min(steps, width + 1), width))
    nbasis = 0
    live = f.active_len
    picks, norms = [], []
    for _ in range(steps):
        cols = min(mat.shape[1], -(-live // 64) * 64)
        vals = mat[:, :cols] @ r[:cols]
        j = int(np.argmax(np.abs(vals)))
        sign = 1 if float(vals[j]) >= 0.0 else -1
        live = max(live, dictionary.atoms[j].active_len)
        atom = sign * mat[j]
        cols = min(mat.shape[1], -(-live // 64) * 64)
        span, q = basis[:nbasis, :cols], basis[nbasis, :cols]  # q: the next row
        q[:] = atom[:cols]
        q -= span.T @ (span @ q)
        if not float(np.linalg.norm(q)) >= 2.0 ** -0.5:  # of a unit atom; or NaN
            q -= span.T @ (span @ q)
        nb = float(np.linalg.norm(q))
        if nb > 1e-12:
            q /= nb
            nbasis += 1
            r[:cols] -= (r[:cols] @ q) * q
        rnorm = float(np.linalg.norm(r))
        picks.append((j, sign))
        norms.append(rnorm)
        if rnorm < 1e-14:
            break
    return picks, np.array(norms)


@pytest.fixture(scope="session")
def single_pass_oga():
    """The reference OGA loop the look-ahead blocks are held to."""
    return _single_pass_oga


def _full_gram_run(algorithm, f, dictionary, steps, shrinkage=1.0, variation_bound=None):
    """run("pga" | "pga_shrink" | "rga") as it was before Gram rows were formed
    on demand, a literal copy of its loop: the whole Gram matrix is formed
    once, and each step updates the running inner products from its row.
    Returns the (atom index, sign) picks, coefficients and residual norms."""
    mat = dictionary.matrix()
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    s = shrinkage if algorithm == "pga_shrink" else 1.0
    picks, coeffs, norms = [], [], []

    gram = mat @ mat.T  # A @ A.T: numpy hands it to BLAS syrk
    cols = min(mat.shape[1], -(-f.active_len // 64) * 64)
    c = mat[:, :cols] @ r[:cols]  # <r, d_i> for every atom, kept current below
    if algorithm == "rga":
        c_f, approx = c.copy(), np.zeros(width)

    for n in range(1, steps + 1):
        j = int(np.argmax(np.abs(c)))
        v = float(c[j])
        sign, value = (1 if v >= 0.0 else -1), abs(v)
        atom = sign * mat[j]
        if algorithm in ("pga", "pga_shrink"):
            coeff = s * value
            r[: mat.shape[1]] -= coeff * atom
            c -= (sign * coeff) * gram[j]
        else:  # rga
            coeff = variation_bound if n == 1 else 2.0 * variation_bound / n
            if n == 1:
                approx[: mat.shape[1]] = coeff * atom
            else:
                approx *= 1.0 - 2.0 / n
                approx[: mat.shape[1]] += coeff * atom
            r = f.padded(width) - approx
            c = (2.0 / n) * c_f + (1.0 - 2.0 / n) * c - (sign * coeff) * gram[j]
        rnorm = float(np.linalg.norm(r))
        picks.append((j, sign))
        coeffs.append(coeff)
        norms.append(rnorm)
        if rnorm < 1e-14:
            break
    return picks, np.array(coeffs), np.array(norms)


@pytest.fixture(scope="session")
def full_gram_run():
    """The reference loop that Gram rows on demand are held to."""
    return _full_gram_run
