import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from mpursuit import adversarial
from mpursuit.adversarial import (ConstructionParams, OracleTables, VerificationReport,
                                  _residual_components, _residual_rows, _schedule,
                                  advance, build_instance, choose_epsilon, finalize,
                                  init_state, q_of, step, verify)
from mpursuit.errors import ConstructionError
from mpursuit.grid_functions import GridFunction
from mpursuit.instance_io import instance_to_text
from mpursuit.phi_builder import PhiProfile


def residual_matrix(state, phi):
    """rhat[m - (N-1)] = <r_m, e_j>, j = 1..m, zero-padded, for m = N-1..n_max-1:
    the rows `_residual_rows` yields, stacked."""
    h, b = _residual_components(state, phi)
    rhat = np.zeros((state.n_max - state.N + 1, state.n_max))
    for row, rrow in zip(rhat, _residual_rows(state.q, b, h, state.K, state.N)):
        row[: len(rrow)] = rrow
    return rhat


def walk_tables(tables):
    """One walk of the tables' blocks stacked into the dense table: row n - (N+1)
    of pairs and of tilde for the step n = N+1..n_max."""
    got = [(pairs, tilde) for _, _, pairs, tilde in tables.blocks()]
    return np.vstack([pairs for pairs, _ in got]), np.concatenate([t for _, t in got])


def with_tables(instance, tables, **changes):
    """A copy of instance, with changes, whose oracle_tables() returns tables."""
    copy_ = dataclasses.replace(instance, **changes)
    copy_.oracle_tables = lambda: tables
    return copy_


class ReferenceOracle:
    """The per-pair recursions, one pair at a time, as the inductive formulas state them.

    This is the literal route the block formulas of `OracleTables.blocks` are
    checked against: residual components by the component formula, atom
    components by the inductive definition, and each <r_{n-1}, d_k> by the
    forward sum (k < n), the base equality (k = n) or the two-term
    recursion (k > n).
    """

    def __init__(self, instance):
        st, p = instance.state, instance.params
        self.N, self.n_max, self.epsilon = st.N, st.n_max, p.epsilon
        self.q, self.gamma, self.alpha, self.xi = st.q, st.gamma, st.alpha, st.xi
        self._phi = p.phi
        self.rhat = residual_matrix(st, p.phi)
        self.rn_norm = float(_schedule(st.N, st.beta))
        N = self.N
        self.dhat = np.zeros((self.n_max - N + 1, self.n_max))
        for k in range(N, self.n_max + 1):
            row = self.dhat[k - N]
            row[: k - 1] = self.gamma[k] * self.rhat[k - 1 - (N - 1), : k - 1]
            row[: k - 1] += self.h_row(k)
            row[k - 1] = self.xi[k]
        til = (self.epsilon * self.rhat[1] / self.rn_norm
               + np.sqrt(1.0 - self.epsilon ** 2) * self.dhat[0])
        self.dtil_hat = til[:N].copy()

    def h_row(self, l: int) -> np.ndarray:
        """Components of the correction vector h_l (length l-1)."""
        i = np.arange(1, l)
        return (self.alpha[l] / l) * self._phi(i / l)

    def pair_value(self, n: int, k: int) -> float:
        N, n_max = self.N, self.n_max
        if not (N < n <= n_max and N <= k <= n_max):
            raise IndexError("pair out of range")
        q, gamma = self.q, self.gamma
        if k == n:
            return float(q[n])
        if k < n:
            dk = self.dhat[k - N, :k]
            acc = 0.0
            for i in range(k + 1, n):
                acc += float(self.h_row(i)[:k] @ dk)
            return -float(q[n - 1]) * acc
        rrow = self.rhat[n - 1 - (N - 1), : n - 1]
        val = float(q[n])
        for kk in range(n + 1, k + 1):
            a_fac = (1.0 / gamma[kk - 1] - q[kk - 1]) * gamma[kk]
            hk = self.h_row(kk)[: n - 1]
            hk1 = self.h_row(kk - 1)[: n - 1]
            val = a_fac * val + float(rrow @ (hk - (gamma[kk] / gamma[kk - 1]) * hk1))
        return val

    def tilde_pair_value(self, n: int) -> float:
        N = self.N
        if not N < n <= self.n_max:
            raise IndexError("n out of range")
        acc = 0.0
        for i in range(N + 1, n):
            acc += float(self.h_row(i)[:N] @ self.dtil_hat)
        return -float(self.q[n - 1]) * (acc - self.epsilon * self.rn_norm / self.q[N])


@pytest.fixture(scope="module")
def reference(small_instance):
    return ReferenceOracle(small_instance)


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
        q_of(5, np.nan)
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


def test_step_selected_inner_product(small_instance, residual_history):
    st = small_instance.state
    hist = residual_history(st)
    for n in range(st.N + 1, st.n_max + 1):
        ip = float(hist[n - 1 - st.N] @ st.atom_row(n))
        assert ip == pytest.approx(st.q[n], rel=1e-10)


def test_step_sequences_in_range(small_instance):
    st = small_instance.state
    a = st.alpha[st.K: st.n_max + 1]
    x = st.xi[st.K: st.n_max + 1]
    assert np.all(a >= 0.0)
    assert np.all((x > 0.0) & (x <= 1.0))


def test_residual_components_nonpositive(small_instance, residual_history):
    st = small_instance.state
    assert float(residual_history(st).max()) <= 1e-12


def test_lemma_component_formula_vs_direct(small_instance, rng, residual_history):
    st = small_instance.state
    hist = residual_history(st)
    rhat = residual_matrix(st, small_instance.params.phi)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(st.N, st.n_max))        # walked residual rows
        k = int(rng.integers(1, n + 1))
        direct = hist[n - st.N][k - 1]
        formula = rhat[n - (st.N - 1)][k - 1]
        worst = max(worst, abs(direct - formula))
    assert worst <= 1e-10


def test_residual_coefficient_asymptotics(mid_instance, residual_history):
    inst, _ = mid_instance
    st = inst.state
    phi = inst.params.phi
    hist = residual_history(st)
    for n, k in ((880, 600), (900, 500), (860, 700), (900, 889)):
        lhs = -hist[n - st.N][k - 1] / st.q[n]
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
    while st.n < 100:
        step(st, params)
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
    d_tilde = inst.dictionary.atoms[0]
    assert np.linalg.norm(d_tilde.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert inst.f.coeffs @ d_tilde.coeffs == pytest.approx(eps * st.norms[st.N],
                                                           abs=1e-10)
    # <f, d_N> = 0 by the step conditions
    assert abs(st.r_hist[0] @ st.atom_row(st.N)) <= 1e-9


def test_variation_bound_matches_two_atom_expansion(small_instance):
    inst = small_instance
    st = inst.state
    n_pad = st.n_max
    mat = np.vstack([inst.dictionary.atoms[0].padded(n_pad),
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


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_one_atom_store(small_instance, load_text, source):
    inst = small_instance
    if source == "loaded":
        inst = load_text(instance_to_text(inst))
    st, p = inst.state, inst.params
    store = inst.dictionary.matrix()
    assert store is st.atoms
    assert st.atoms.shape == (p.n_max - p.N + 2, p.n_max)
    assert all(np.shares_memory(a.coeffs, store) for a in inst.dictionary.atoms)
    assert np.shares_memory(inst.dictionary.atoms[0].coeffs, st.atoms[0])
    for i, k in ((1, p.N), (2, p.N + 1), (len(store) - 1, p.n_max)):
        assert np.shares_memory(inst.dictionary.atoms[i].coeffs, st.atom_row(k))
        assert inst.dictionary.labels[i] == f"d{k}"
    with pytest.raises(IndexError):
        st.atom_row(p.N - 1)
    assert not inst.dictionary.atoms[1].coeffs.flags.writeable


def test_oracle_base_case_previous_atom(small_instance, reference, residual_history):
    st = small_instance.state
    hist = residual_history(st)
    for n in (st.N + 1, st.N + 5, st.n_max):
        assert reference.pair_value(n, n - 1) == 0.0
        direct = float(hist[n - 1 - st.N] @ st.atom_row(n - 1))
        assert abs(direct) <= 1e-10


def test_oracle_selected_index_is_q(small_instance, reference, residual_history):
    # the selected atom's value is q_n by construction, on both routes
    st = small_instance.state
    hist = residual_history(st)
    pairs, _ = walk_tables(small_instance.oracle_tables())
    for n in (st.N + 2, st.n_max):
        assert reference.pair_value(n, n) == st.q[n]
        assert pairs[n - st.N - 1, n - st.N] == st.q[n]
        direct = float(hist[n - 1 - st.N] @ st.atom_row(n))
        assert direct == pytest.approx(st.q[n], rel=1e-9)


def test_oracle_range_checks(small_instance, reference):
    p = small_instance.params
    with pytest.raises(IndexError):
        reference.pair_value(p.N, p.N + 1)
    with pytest.raises(IndexError):
        reference.pair_value(p.n_max + 1, p.N)
    with pytest.raises(IndexError):
        reference.pair_value(p.N + 1, p.n_max + 1)
    with pytest.raises(IndexError):
        reference.pair_value(p.N + 1, p.N - 1)
    for n in (p.N, p.n_max + 1):
        with pytest.raises(IndexError):
            reference.tilde_pair_value(n)


def test_oracle_vs_direct_random_pairs(small_instance, reference, rng, residual_history):
    st = small_instance.state
    hist = residual_history(st)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(st.N + 1, st.n_max + 1))
        k = int(rng.integers(st.N, st.n_max + 1))
        if k == n:
            continue
        o = reference.pair_value(n, k)
        d = float(hist[n - 1 - st.N] @ st.atom_row(k))
        worst = max(worst, abs(o - d))
    assert worst <= 1e-9


def test_oracle_tilde_path(small_instance, reference, rng, residual_history):
    st = small_instance.state
    hist = residual_history(st)
    eps = small_instance.params.epsilon
    dtil = small_instance.dictionary.atoms[0].padded(st.n_max)
    base = reference.tilde_pair_value(st.N + 1)
    assert base == pytest.approx(eps * st.norms[st.N], rel=1e-12)
    worst = 0.0
    for n in rng.integers(st.N + 1, st.n_max + 1, 40):
        o = reference.tilde_pair_value(int(n))
        d = float(hist[int(n) - 1 - st.N] @ dtil)
        worst = max(worst, abs(o - d))
    assert worst <= 1e-9


def test_bulk_rows_match_pair_values(small_instance, reference, rng):
    pairs, tilde = walk_tables(small_instance.oracle_tables())
    st = small_instance.state
    assert pairs.shape == (160, 161) and tilde.shape == (160,)
    for n in (st.N + 1, st.N + 7, st.n_max // 2 + 40, st.n_max):
        row = pairs[n - st.N - 1]
        for k in sorted(set(int(x) for x in rng.integers(st.N, st.n_max + 1, 12))):
            expected = st.q[n] if k == n else reference.pair_value(n, k)
            assert row[k - st.N] == pytest.approx(expected, rel=1e-9, abs=1e-15)
        assert tilde[n - st.N - 1] == pytest.approx(reference.tilde_pair_value(n),
                                                    rel=1e-9, abs=1e-15)


def test_oracle_tables_keep_only_what_rows_reads(small_instance):
    # two dense arrays, h and dhat; the rest are vectors and scalars, before
    # and after walks: the running state of a walk is the walk's own
    p = small_instance.params
    tables = OracleTables(small_instance.state, p.phi, p.epsilon)
    open_walk = tables.blocks()
    for stage in ("built", "one walk open", "walked through"):
        arrays = {name: value for name, value in vars(tables).items()
                  if isinstance(value, np.ndarray)}
        dense = {name for name, value in arrays.items() if value.ndim == 2}
        assert dense == {"h", "dhat"}
        assert set(arrays) - dense == {"q", "b", "ct", "p", "ratio"}
        assert set(vars(tables)) - set(arrays) == {"K", "N", "n_max", "epsilon", "rn_norm"}
        assert tables.h.shape == (p.n_max - p.K + 1, p.n_max)
        assert tables.dhat.shape == (p.n_max - p.N + 1, p.n_max)
        if stage == "built":
            next(open_walk)             # an open walk holds its running state itself
        elif stage == "one walk open":
            walk_tables(tables)


def test_oracle_never_reads_stored_vectors(small_instance, mid_instance):
    """Tables built from a state whose atoms, stored residual r_N and working
    residual are NaN yield every block bit for bit as the clean state's."""
    for inst in (small_instance, mid_instance[0]):
        st, p = inst.state, inst.params
        blind = copy.copy(st)
        blind.atoms = np.full_like(st.atoms, np.nan)
        blind.r_hist = np.full_like(st.r_hist, np.nan)
        blind.r = np.full_like(st.r, np.nan)
        clean = OracleTables(st, p.phi, p.epsilon)
        tables = OracleTables(blind, p.phi, p.epsilon)
        for got, want in zip(tables.blocks(), clean.blocks(), strict=True):
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


@pytest.mark.parametrize("block", [1, 7, 64, 128])
def test_blocks_cover_every_step_once_in_ascending_order(small_instance, mid_instance,
                                                         monkeypatch, block):
    monkeypatch.setattr(adversarial, "_VERIFY_BLOCK", block)
    for inst in (small_instance, mid_instance[0]):
        p = inst.params
        width = p.n_max - p.N + 1
        bounds = []
        for lo, hi, pairs, tilde in inst.oracle_tables().blocks():
            assert pairs.shape == (hi - lo + 1, width) and tilde.shape == (hi - lo + 1,)
            bounds.append((lo, hi))
        assert len(bounds) == -(-(p.n_max - p.N) // block)
        assert bounds[0][0] == p.N + 1 and bounds[-1][1] == p.n_max
        assert all(hi - lo + 1 == block for lo, hi in bounds[:-1])
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("block", [1, 7, 128])
def test_walk_reproduces_every_step_residual_bit_for_bit(small_instance, mid_instance,
                                                         monkeypatch, block):
    """Each row the walk from r_N yields is the r_{n-1} a hand-stepped copy of
    the construction held after step n - 1, and the walk ends at r_{n_max}."""
    monkeypatch.setattr(adversarial, "_VERIFY_BLOCK", block)
    for inst in (small_instance, mid_instance[0]):
        p = inst.params
        st = init_state(p)
        kept = {}
        while st.n < p.n_max:
            step(st, p)
            if st.n >= p.N:
                kept[st.n] = st.r.copy()
        n = p.N + 1
        for rows, r in adversarial._residual_blocks(inst.state):
            assert rows.flags.c_contiguous and rows.shape[1] == p.n_max
            for row in rows:
                assert np.array_equal(row, kept[n - 1])
                n += 1
        assert n == p.n_max + 1
        assert np.array_equal(r, kept[p.n_max]) and np.array_equal(r, st.r)


def test_two_walks_of_the_same_tables_yield_the_same_bits(mid_instance):
    # two walks in lockstep, then a third alone: no walk reads another's state
    inst = mid_instance[0]
    tables = inst.oracle_tables()
    for a, b in zip(tables.blocks(), tables.blocks(), strict=True):
        assert a[:2] == b[:2]
        assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])
    first, again = walk_tables(tables), walk_tables(tables)
    assert first[0].shape == (500, 501)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])


def test_disagreement_must_stay_below_the_smallest_absolute_margin(mid_instance,
                                                                  monkeypatch):
    """An oracle value moved by more than the smallest absolute margin fails
    the check even while the disagreement is within DUAL_PATH_TOL and every
    margin stays positive on both routes.

    On mid_instance the smallest absolute margin, 3.9e-7 at n = 899, is far
    above the 1e-9 tolerance; the margins fall about like n^-1.65, and the
    tolerance only passes them near n = 3e4.  Raising the tolerance above
    the margin puts this instance in that regime.
    """
    inst, report = mid_instance
    assert report.dual_max_diff < adversarial.DUAL_PATH_TOL < report.min_abs_margin
    shift = 2.0 * report.min_abs_margin
    monkeypatch.setattr(adversarial, "DUAL_PATH_TOL", 2.0 * shift)
    st, p = inst.state, inst.params
    tables = OracleTables(st, p.phi, p.epsilon)
    n0, k0 = p.N + 95, p.N          # <r_{n0-1}, d_N> is far from q_{n0}
    blocks = tables.blocks

    def shifted():
        for lo, hi, pairs, tilde in blocks():
            if lo <= n0 <= hi:
                pairs[n0 - lo, k0 - p.N] += shift
            yield lo, hi, pairs, tilde

    tables.blocks = shifted
    moved = verify(with_tables(inst, tables))
    assert moved.all_strict and moved.min_margin_oracle > 0.0
    assert moved.dual_max_diff == pytest.approx(shift, rel=1e-6)
    assert moved.dual_max_diff <= adversarial.DUAL_PATH_TOL
    assert moved.min_abs_margin == report.min_abs_margin
    assert not moved.passed and "passed=false" in moved.to_text()
    # the comparison is NaN-proof on either side
    for field in ("min_abs_margin", "dual_max_diff"):
        assert not dataclasses.replace(report, **{field: np.nan}).passed


def test_verify_memory_stays_within_h_dhat_and_a_few_blocks(mid_instance):
    # everything verify allocates past the two dense arrays of the oracle is
    # a few arrays of one block of steps each (the parent's dense tables
    # needed about 15 such blocks more here)
    inst = mid_instance[0]
    p = inst.params
    tracemalloc.start()
    try:
        verify(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = inst.oracle_tables()
    block_bytes = adversarial._VERIFY_BLOCK * (p.n_max - p.N + 1) * 8
    assert peak <= tables.h.nbytes + tables.dhat.nbytes + 8 * block_bytes


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
    assert report.dual_max_diff < report.min_abs_margin
    text = report.to_text()
    assert "passed=true" in text
    assert f"min_abs_margin={report.min_abs_margin:.12g}" in text


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


def reference_verify(instance):
    """verify's fold as it was before it reduced whole blocks: one row at a time.

    It takes the same block products of the direct route and the same
    oracle values, so every figure of its report must equal verify's.  The
    residual history it reads is its own: r_N walked forward one step at a
    time by step's update r[:n] -= q_n d_n.
    """
    st = instance.state
    N, n_max = st.N, st.n_max
    atoms_mat = st.atoms[1:]
    dtil = st.atoms[0]
    q = st.q
    hist = np.empty((n_max - N + 1, n_max))   # hist[m - N] = r_m
    hist[0] = st.r_hist[0]
    for n in range(N + 1, n_max + 1):
        hist[n - N] = hist[n - 1 - N]
        hist[n - N, :n] -= q[n] * st.atom_row(n)[:n]

    min_margin = np.inf
    min_pair = (-1, -1)
    min_margin_o = np.inf
    til_min = np.inf
    til_arg = -1
    dual_max = 0.0
    diag_max = 0.0
    min_abs = np.inf
    n_pairs = 0
    first_nonfinite = None

    for lo, hi, pairs, tilde in instance.oracle_tables().blocks():
        rows = hist[lo - 1 - N: hi - N]
        direct = rows @ atoms_mat.T
        til_direct = rows @ dtil
        for n in range(lo, hi + 1):
            drow = direct[n - lo]
            orow = pairs[n - lo]
            dual_max = np.maximum(dual_max, np.max(np.abs(drow - orow)))
            qn = q[n]
            diag_max = np.maximum(diag_max, abs(drow[n - N] - qn) / qn)
            abs_margins = qn - np.abs(drow)
            abs_margins[n - N] = np.inf
            min_abs = np.minimum(min_abs, np.min(abs_margins))
            margins = (qn - np.abs(drow)) / qn
            margins[n - N] = np.inf
            jmin = int(np.argmin(margins))
            if margins[jmin] < min_margin:
                min_margin = float(margins[jmin])
                min_pair = (n, N + jmin)
            omargins = (qn - np.abs(orow)) / qn
            omargins[n - N] = np.inf
            min_margin_o = np.minimum(min_margin_o, np.min(omargins))
            tval = float(til_direct[n - lo])
            oval = float(tilde[n - lo])
            dual_max = np.maximum(dual_max, abs(tval - oval))
            min_abs = np.minimum(min_abs, qn - abs(tval))
            if first_nonfinite is None and not np.isfinite(dual_max):
                first_nonfinite = n
            tmarg = (qn - max(abs(tval), abs(oval))) / qn
            if tmarg < til_min:
                til_min = tmarg
                til_arg = n
            n_pairs += n_max - N + 1
    sched = _schedule(np.arange(N, n_max + 1), st.beta)
    hist_norms = np.linalg.norm(hist, axis=1)
    sched_err = float(np.max(np.abs(hist_norms / sched - 1.0)))

    return VerificationReport(
        n_pairs=n_pairs,
        all_strict=bool(first_nonfinite is None and min_margin > 0.0
                        and min_margin_o > 0.0 and til_min > 0.0),
        min_margin=float(min_margin), min_margin_pair=min_pair,
        min_margin_oracle=float(min_margin_o), min_abs_margin=float(min_abs),
        tilde_min_margin=float(til_min), tilde_argmin=til_arg,
        dual_max_diff=float(dual_max), diag_max_rel_err=float(diag_max),
        schedule_max_rel_err=sched_err,
        notes="" if first_nonfinite is None
        else f"non-finite inner product at n={first_nonfinite}")


def corrupted(instance, target, value):
    """A copy of instance with one value planted, at step n = N + 95 but for
    the stored residual r_N, which the walk carries into every step.

    Offset 94 from the first step lies inside a block for every block size
    tested (position 30 of 64, 3 of 7).  The targets are the direct route's
    residual r_N, atom d_n and blended atom, and the oracle's forward
    sums (cw: one entry of the atom components d_hat[n-1], which the sums of
    column n-1 carry into every step from n on) and blended-atom sums (ct,
    step n on, so that the oracle's blended value is NaN at the smallest
    blended margin of mid_instance).  The oracle targets get tables of
    their own; the copy shares nothing it changes.
    """
    st = copy.copy(instance.state)
    n = st.N + 95
    if target == "residual":
        st.r_hist = st.r_hist.copy()
        st.r_hist[0, st.N // 2] = value
    elif target in ("atom", "blended"):
        st.atoms = st.atoms.copy()
        row = st.atom_row(n) if target == "atom" else st.atoms[0]
        row[st.N // 2] = value
    else:
        p = instance.params
        tables = OracleTables(st, p.phi, p.epsilon)
        if target == "cw":
            tables.dhat[n - 1 - st.N, st.N // 2] = value
        else:
            tables.ct[n - 1 - st.N:] = value
        return with_tables(instance, tables, state=st)
    return dataclasses.replace(instance, state=st)


CORRUPTIONS = ([(target, value) for target in ("residual", "atom", "blended")
                for value in (np.nan, np.inf, -np.inf, 1e300)]
               + [("cw", np.nan), ("ct", np.nan)])


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
@pytest.mark.parametrize("block", [512, 64, 7])
@pytest.mark.parametrize("corruption", [None, *CORRUPTIONS],
                         ids=["clean", *(f"{t}-{v!r}" for t, v in CORRUPTIONS)])
def test_verify_matches_row_by_row_reference(small_instance, mid_instance, monkeypatch,
                                             block, corruption):
    monkeypatch.setattr(adversarial, "_VERIFY_BLOCK", block)
    for inst in (small_instance, mid_instance[0]):
        if corruption is not None:
            inst = corrupted(inst, *corruption)
        report = verify(inst)
        assert report.to_text() == reference_verify(inst).to_text()
        assert (corruption is None) or not report.passed
