import numpy as np
import pytest

from mpursuit.adversarial import (ConstructionParams, advance, build_instance,
                                  choose_epsilon, finalize, init_state,
                                  inner_product_oracle, q_of, step, verify)
from mpursuit.errors import ConstructionError
from mpursuit.grid_functions import GridFunction
from mpursuit.instance_io import instance_to_text, load_instance
from mpursuit.linear_core import dot
from mpursuit.phi_builder import PhiProfile


def test_q_of_hand_value():
    assert q_of(1, 0.3) == pytest.approx(np.sqrt(1.0 - 2.0 ** -0.4), abs=1e-12)
    assert q_of(1, 0.3) == pytest.approx(0.4920790957, abs=1e-6)


def test_q_of_vanishes_toward_half():
    for n in (1, 5, 50):
        assert q_of(n, 0.4999999) < 1e-3


def test_q_of_asymptotic_ratio():
    beta = 0.3172
    n = 10 ** 4
    ratio = q_of(n, beta) / (np.sqrt(1 - 2 * beta) * n ** (beta - 1.0))
    assert 0.99 <= ratio <= 1.01


def test_q_of_domain():
    with pytest.raises(ValueError):
        q_of(1, 0.5)
    with pytest.raises(ValueError):
        q_of(1, -0.1)
    with pytest.raises(ValueError):
        q_of(0, 0.3)


def test_init_state_seed_values(profile05):
    params = ConstructionParams(beta=0.3, K=5, N=6, n_max=10, epsilon=None,
                                phi=profile05)
    st = init_state(params)
    coeff = -(5.0 ** -0.2) / 2.0
    assert np.allclose(st.r[:4], coeff, rtol=1e-15)
    assert st.norms[4] == pytest.approx(5.0 ** -0.2, rel=1e-12)


def test_init_state_k2_single_coefficient(profile05):
    params = ConstructionParams(beta=0.3, K=2, N=3, n_max=6, epsilon=None,
                                phi=profile05)
    st = init_state(params)
    assert st.r[0] == pytest.approx(-(2.0 ** (0.3 - 0.5)), rel=1e-15)
    assert st.norms[1] == pytest.approx(2.0 ** (0.3 - 0.5), rel=1e-12)


def test_params_validation(profile05):
    with pytest.raises(ValueError):
        ConstructionParams(beta=0.6, K=5, N=6, n_max=9, epsilon=None, phi=profile05)
    with pytest.raises(ValueError):
        ConstructionParams(beta=0.3, K=1, N=6, n_max=9, epsilon=None, phi=profile05)
    with pytest.raises(ValueError):
        ConstructionParams(beta=0.3, K=5, N=4, n_max=9, epsilon=None, phi=profile05)
    with pytest.raises(ValueError):
        ConstructionParams(beta=0.3, K=5, N=6, n_max=6, epsilon=None, phi=profile05)
    with pytest.raises(ValueError):
        ConstructionParams(beta=0.3, K=5, N=6, n_max=9, epsilon=1.5, phi=profile05)


def test_step_energy_identity(small_instance):
    st = small_instance.state
    beta = st.beta
    for n in range(st.K, st.n_max + 1):
        lhs = st.norms[n] ** 2
        rhs = st.norms[n - 1] ** 2 - st.q[n] ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_step_selected_inner_product(small_instance):
    st = small_instance.state
    for n in range(st.N + 1, st.n_max + 1):
        ip = float(st.r_hist[n - 1 - st.N] @ st.atom_row(n))
        assert ip == pytest.approx(st.q[n], rel=1e-10)


def test_step_sequences_in_range(small_instance):
    st = small_instance.state
    a = st.alpha[st.K: st.n_max + 1]
    x = st.xi[st.K: st.n_max + 1]
    assert np.all(a >= 0.0)
    assert np.all((x > 0.0) & (x <= 1.0))


def test_residual_components_nonpositive(small_instance):
    st = small_instance.state
    assert float(st.r_hist.max()) <= 1e-12


def test_lemma_component_formula_vs_direct(small_instance, rng):
    st = small_instance.state
    tables = small_instance.oracle_tables()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(st.N, st.n_max))        # stored residual rows
        k = int(rng.integers(1, n + 1))
        direct = st.r_hist[n - st.N][k - 1]
        formula = tables.rhat[n - (st.N - 1)][k - 1]
        worst = max(worst, abs(direct - formula))
    assert worst <= 1e-10


def test_residual_coefficient_asymptotics(mid_instance):
    inst, _ = mid_instance
    st = inst.state
    phi = inst.params.phi
    for n, k in ((880, 600), (900, 500), (860, 700), (900, 889)):
        lhs = -st.r_hist[n - st.N][k - 1] / st.q[n]
        tail = 1.0 + float(phi.phi.log_between(k / n, 1.0))
        assert 0.9 * tail <= lhs <= 1.1 * tail


def test_sequence_limits_mid(mid_instance):
    inst, _ = mid_instance
    st = inst.state
    assert abs(st.alpha[st.n_max] - 1.0) < 0.1
    assert abs(st.xi[st.n_max] - 1.0) < 0.05
    beta = st.beta
    ratio = st.gamma[st.n_max] * st.n_max ** beta * np.sqrt(1 - 2 * beta) / (1 - beta)
    assert 0.98 <= ratio <= 1.02


def test_choose_epsilon_cap_and_positivity(small_instance):
    st = small_instance.state
    eps = small_instance.params.epsilon
    assert eps > 0.0
    assert eps * st.norms[st.N] <= 0.5 * st.q[st.N + 1]
    # geometric grid membership
    assert abs(np.log2(eps) - round(np.log2(eps))) < 1e-12


def test_choose_epsilon_requires_full_state(profile05):
    params = ConstructionParams(beta=profile05.beta, K=40, N=80, n_max=120,
                                epsilon=None, phi=profile05)
    st = init_state(params)
    advance(st, params, to_n=100)
    with pytest.raises(ValueError):
        choose_epsilon(st, params)


def test_step_zero_profile_error():
    dead = PhiProfile(phi=GridFunction(0.0, 1.0, np.zeros(501)), t=0.01,
                      c_t=1.0, delta=0.4, beta=0.31, tau=0.46)
    params = ConstructionParams(beta=0.31, K=5, N=6, n_max=10, epsilon=None,
                                phi=dead)
    st = init_state(params)
    with pytest.raises(ConstructionError, match="phi support misses residual"):
        step(st, params)


def test_step_xi_imaginary_error(profile05):
    # beta near 1/2 blows up gamma_n |r_{n-1}| past one
    params = ConstructionParams(beta=0.49, K=4, N=5, n_max=9, epsilon=None,
                                phi=profile05)
    st = init_state(params)
    with pytest.raises(ConstructionError, match="increase K"):
        advance(st, params)


def test_finalize_blended_atom(small_instance):
    inst = small_instance
    st = inst.state
    eps = inst.params.epsilon
    assert np.linalg.norm(inst.d_tilde.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert dot(inst.f, inst.d_tilde) == pytest.approx(eps * st.norms[st.N],
                                                      abs=1e-10)
    # <f, d_N> = 0 by the step conditions
    assert abs(st.r_hist[0] @ st.atom_row(st.N)) <= 1e-9


def test_variation_bound_matches_two_atom_expansion(small_instance):
    inst = small_instance
    st = inst.state
    n_pad = st.n_max
    mat = np.vstack([inst.d_tilde.padded(n_pad),
                     st.atom_row(st.N)])
    coef, res, *_ = np.linalg.lstsq(mat.T, inst.f.padded(n_pad), rcond=None)
    reconstruction = mat.T @ coef
    assert np.linalg.norm(inst.f.padded(n_pad) - reconstruction) <= 1e-9
    assert np.sum(np.abs(coef)) == pytest.approx(inst.variation_bound, rel=1e-9)


def test_variation_bound_formula(small_instance):
    inst = small_instance
    st = inst.state
    eps = inst.params.epsilon
    expected = st.norms[st.N] / eps * (1 + np.sqrt(1 - eps * eps))
    assert inst.variation_bound == pytest.approx(expected, rel=1e-15)


def test_dictionary_contents(small_instance):
    inst = small_instance
    p = inst.params
    assert len(inst.dictionary) == 1 + (p.n_max - p.N + 1)
    assert inst.dictionary.labels[0] == f"dt{p.N}"
    assert inst.dictionary.labels[1] == f"d{p.N}"
    assert inst.dictionary.labels[-1] == f"d{p.n_max}"


def _loaded_copy(inst):
    return load_instance(instance_to_text(inst), is_text=True)


@pytest.mark.parametrize("source", [lambda inst: inst, _loaded_copy],
                         ids=["built", "loaded"])
def test_one_atom_store(small_instance, source):
    inst = source(small_instance)
    st, p = inst.state, inst.params
    store = inst.dictionary.matrix()
    assert store is st.atoms
    assert st.atoms.shape == (p.n_max - p.N + 2, p.n_max)
    assert all(np.shares_memory(a.coeffs, store) for a in inst.dictionary.atoms)
    assert np.shares_memory(inst.d_tilde.coeffs, st.atoms[0])
    for i, k in ((1, p.N), (2, p.N + 1), (len(store) - 1, p.n_max)):
        assert np.shares_memory(inst.dictionary.atoms[i].coeffs, st.atom_row(k))
        assert inst.dictionary.labels[i] == f"d{k}"
    with pytest.raises(IndexError):
        st.atom_row(p.N - 1)
    assert not inst.dictionary.atoms[1].coeffs.flags.writeable


def test_oracle_base_case_previous_atom(small_instance):
    st = small_instance.state
    for n in (st.N + 1, st.N + 5, st.n_max):
        assert inner_product_oracle(small_instance, n, n - 1) == 0.0
        direct = float(st.r_hist[n - 1 - st.N] @ st.atom_row(n - 1))
        assert abs(direct) <= 1e-10


def test_oracle_rejects_selected_index(small_instance):
    with pytest.raises(ValueError):
        inner_product_oracle(small_instance, small_instance.params.N + 2,
                             small_instance.params.N + 2)


def test_oracle_range_checks(small_instance):
    p = small_instance.params
    with pytest.raises(IndexError):
        inner_product_oracle(small_instance, p.N, p.N + 1)
    with pytest.raises(IndexError):
        inner_product_oracle(small_instance, p.n_max + 1, p.N)
    with pytest.raises(IndexError):
        inner_product_oracle(small_instance, p.N + 1, p.n_max + 1)


def test_oracle_vs_direct_random_pairs(small_instance, rng):
    st = small_instance.state
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(st.N + 1, st.n_max + 1))
        k = int(rng.integers(st.N, st.n_max + 1))
        if k == n:
            continue
        o = inner_product_oracle(small_instance, n, k)
        d = float(st.r_hist[n - 1 - st.N] @ st.atom_row(k))
        worst = max(worst, abs(o - d))
    assert worst <= 1e-9


def test_oracle_tilde_path(small_instance, rng):
    st = small_instance.state
    eps = small_instance.params.epsilon
    dtil = small_instance.d_tilde.padded(st.n_max)
    base = inner_product_oracle(small_instance, st.N + 1, tilde=True)
    assert base == pytest.approx(eps * st.norms[st.N], rel=1e-12)
    worst = 0.0
    for n in rng.integers(st.N + 1, st.n_max + 1, 40):
        o = inner_product_oracle(small_instance, int(n), tilde=True)
        d = float(st.r_hist[int(n) - 1 - st.N] @ dtil)
        worst = max(worst, abs(o - d))
    assert worst <= 1e-9


def test_bulk_rows_match_pair_values(small_instance, rng):
    tables = small_instance.oracle_tables()
    st = small_instance.state
    for n in (st.N + 1, st.N + 7, st.n_max // 2 + 40, st.n_max):
        row = tables.row(n)
        for k in sorted(set(int(x) for x in rng.integers(st.N, st.n_max + 1, 12))):
            expected = st.q[n] if k == n else tables.pair_value(n, k)
            assert row[k - st.N] == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_verify_dual_paths_agree_even_without_margins(small_instance):
    # at this tiny scale some selection margins are genuinely negative, but
    # the two computation routes must still agree
    report = verify(small_instance)
    assert report.dual_max_diff <= 1e-9
    assert report.diag_max_rel_err <= 1e-10
    assert report.schedule_max_rel_err <= 1e-9
    assert report.n_pairs == ((small_instance.params.n_max - small_instance.params.N)
                              * (small_instance.params.n_max - small_instance.params.N + 1))


def test_verify_mid_instance_passes(mid_instance):
    inst, report = mid_instance
    assert report.passed
    assert report.all_strict
    assert report.min_margin > 0.0
    assert report.min_margin_oracle > 0.0
    assert report.tilde_min_margin > 0.0
    assert report.dual_max_diff <= 1e-9
    text = report.to_text()
    assert "passed=true" in text


def test_build_instance_doubling_success(profile05):
    # K=100, N=200 fails the margin check at this width; one doubling fixes it
    inst, report = build_instance(profile05, K=100, N=200, n_max=900,
                                  max_doublings=1)
    assert inst.params.K == 200 and inst.params.N == 400
    assert "doubling" in report.notes
    assert report.passed


def test_build_instance_doubling_exhaustion(profile05):
    with pytest.raises(ConstructionError):
        build_instance(profile05, K=50, N=100, n_max=420, max_doublings=1)
