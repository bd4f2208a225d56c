import copy
import dataclasses
import itertools
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest

from mpursuit import adversarial
from mpursuit.adversarial import (AdversarialInstance, ConstructionParams, OracleTables,
                                  VerificationReport, _schedule, advance, build_instance,
                                  choose_epsilon, finalize, init_state, q_of, step, verify)
from mpursuit.errors import ConstructionError
from mpursuit.grid_functions import GridFunction
from mpursuit.instance_io import instance_to_text
from mpursuit.phi_builder import PhiProfile


def residual_matrix(tables):
    """rhat[m - (N-1)] = <r_m, e_j>, j = 1..m, zero-padded, for m = N-1..n_max-1:
    the residual rows the oracle's walk yields, stacked."""
    N, n_max = tables.N, len(tables.b)
    rhat = np.zeros((n_max - N + 1, n_max))
    walk = tables._walk(tables.start.copy(), N, n_max + 1)
    for row, (rrow, _) in zip(rhat, walk, strict=True):
        row[: len(rrow)] = rrow
    return rhat


def walk_tables(tables):
    """One walk of the tables' blocks stacked into the dense table: row n - (N+1)
    of pairs and of tilde for the step n = N+1..n_max, column k - N of pairs
    for the atom k = N..n_max.  Every tile yields every step once, in
    ascending blocks, with the same tilde."""
    N, n_max = tables.N, len(tables.b)
    pairs, tilde = np.full((n_max - N, n_max - N + 1), np.nan), None
    blocks, per_tile = tables.blocks(), -(-(n_max - N) // adversarial._VERIFY_BLOCK)
    for k0, k1 in tables.tiles:
        got = []
        for lo, hi, block, t in itertools.islice(blocks, per_tile):
            assert block.shape == (hi - lo + 1, k1 - k0)
            pairs[lo - N - 1: hi - N, k0 - N: k1 - N] = block
            got.append(t)
        got = np.concatenate(got)
        assert tilde is None or np.array_equal(got, tilde, equal_nan=True)
        tilde = got
    assert next(blocks, None) is None
    return pairs, tilde


def formed_atoms(tables):
    """d_hat[k] for k = N..n_max, zero-padded to n_max, as one walk of
    tables.blocks() forms them: its tiles, stacked."""
    N, n_max = tables.N, len(tables.b)
    made, real = [], adversarial.page_rows
    adversarial.page_rows = lambda rows, width: made.append(real(rows, width)) or made[-1]
    try:
        for _ in tables.blocks():
            pass
    finally:
        adversarial.page_rows = real
    dhat = np.zeros((n_max - N + 1, n_max))
    for (k0, k1), tile in zip(tables.tiles, made, strict=True):
        assert tile.shape == (k1 - k0, k1 - 1)
        dhat[k0 - N: k1 - N, : k1 - 1] = tile
    return dhat


def with_tables(instance, tables, **changes):
    """A copy of instance, with changes, whose oracle_tables() returns tables."""
    copy_ = dataclasses.replace(instance, **changes)
    copy_.oracle_tables = lambda: tables
    return copy_


class ReferenceOracle:
    """The per-pair recursions, one pair at a time, as the inductive formulas state them.

    This is the literal route the one product per block of
    `OracleTables.blocks` is checked against: residual components by the
    component formula, one correction vector at a time, atom components by
    the inductive definition, and each <r_{n-1}, d_k> by the forward sum
    (k < n), the base equality (k = n) or the two-term recursion (k > n),
    and each <r_{n-1}, dt_N> by the blended atom's forward sum.
    """

    def __init__(self, instance):
        st, p = instance.state, instance.params
        K, N, n_max = st.K, st.N, st.n_max
        self.N, self.n_max, self.epsilon = N, n_max, p.epsilon
        self.q, self.gamma, self.alpha, self.xi = st.q, st.gamma, st.alpha, st.xi
        self._phi, self._h = p.phi, {}
        # r_m = -q_m (b + h_K + ... + h_m), rows m - (N-1) for m = N-1..n_max-1
        b = np.empty(n_max)
        b[: K - 1] = K ** (-0.5 + p.beta) / (self.q[K - 1] * np.sqrt(K - 1.0))
        b[K - 1:] = self.xi[K:n_max + 1]
        run = np.zeros(n_max)
        self.rhat = np.zeros((n_max - N + 1, n_max))
        for m in range(K - 1, n_max):
            if m >= K:
                run[: m - 1] += self.h_row(m)
            if m >= N - 1:
                self.rhat[m - (N - 1), :m] = -self.q[m] * (b[:m] + run[:m])
        self.rn_norm = float(_schedule(N, p.beta))
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
        if l not in self._h:
            i = np.arange(1, l)
            self._h[l] = (self.alpha[l] / l) * self._phi(i / l)
        return self._h[l]

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
    params = ConstructionParams(K=5, N=6, n_max=10, epsilon=None,
                                phi=dataclasses.replace(profile05, beta=0.3))
    st = init_state(params)
    coeff = -(5.0 ** -0.2) / 2.0
    assert np.allclose(st.r[:4], coeff, rtol=1e-15)
    assert st.norms[4] == pytest.approx(5.0 ** -0.2, rel=1e-12)


def test_init_state_k2_single_coefficient(profile05):
    params = ConstructionParams(K=2, N=3, n_max=6, epsilon=None,
                                phi=dataclasses.replace(profile05, beta=0.3))
    st = init_state(params)
    assert st.r[0] == pytest.approx(-(2.0 ** (0.3 - 0.5)), rel=1e-15)
    assert st.norms[1] == pytest.approx(2.0 ** (0.3 - 0.5), rel=1e-12)


def test_params_validation(profile05):
    phi = dataclasses.replace(profile05, beta=0.3)
    with pytest.raises(ValueError):
        ConstructionParams(K=5, N=6, n_max=9, epsilon=None,
                           phi=dataclasses.replace(profile05, beta=0.6))
    with pytest.raises(ValueError):
        ConstructionParams(K=1, N=6, n_max=9, epsilon=None, phi=phi)
    with pytest.raises(ValueError):
        ConstructionParams(K=5, N=4, n_max=9, epsilon=None, phi=phi)
    with pytest.raises(ValueError):
        ConstructionParams(K=5, N=6, n_max=6, epsilon=None, phi=phi)
    with pytest.raises(ValueError):
        ConstructionParams(K=5, N=6, n_max=9, epsilon=1.5, phi=phi)


def test_step_energy_identity(small_instance):
    st = small_instance.state
    beta = st.params.beta
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
    rhat = residual_matrix(small_instance.oracle_tables())
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
    beta = st.params.beta
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
    params = ConstructionParams(K=40, N=80, n_max=120, epsilon=None, phi=profile05)
    st = init_state(params)
    while st.n < 100:
        step(st)
    with pytest.raises(ValueError):
        choose_epsilon(st)


def test_step_zero_profile_error():
    dead = PhiProfile(phi=GridFunction(0.0, 1.0, np.zeros(501)), t=0.01,
                      c_t=1.0, beta=0.31, tau=0.46)
    params = ConstructionParams(K=5, N=6, n_max=10, epsilon=None, phi=dead)
    st = init_state(params)
    assert dead.support_lo == 1.0  # no piece is nonzero: phi is evaluated at (n-1)/n only
    with pytest.raises(ConstructionError, match="phi support misses residual"):
        step(st)


def test_phi_band_skip_keeps_the_replayed_atom_store(mid_instance, load_text):
    # step and _h_rows evaluate phi only from its support edge on; a profile
    # whose edge reads 0 evaluates it everywhere, and both give the same bytes:
    # the atom store, and the correction vectors of the oracle's walk
    inst, _ = mid_instance
    phi, st = inst.params.phi, inst.state
    assert phi.first_live(st.n_max) > st.n_max // 3
    everywhere = dataclasses.replace(phi)
    vars(everywhere)["support_lo"] = 0.0
    assert everywhere.first_live(st.n_max) == 1
    params = dataclasses.replace(inst.params, phi=everywhere)
    full = finalize(advance(init_state(params),
                            given_rows=np.stack([st.q, st.gamma, st.alpha, st.xi]))).state
    replayed = load_text(instance_to_text(inst)).state
    assert replayed.atoms.tobytes() == full.atoms.tobytes() == st.atoms.tobytes()
    assert replayed.r_hist.tobytes() == full.r_hist.tobytes()
    band, dense = OracleTables(replayed), OracleTables(full)
    assert dense.phi.first_live(st.n_max) == 1 < band.phi.first_live(st.n_max)
    assert band.start.tobytes() == dense.start.tobytes()
    for (_, h_band), (_, h_full) in zip(band._walk(band.start.copy(), st.N, st.n_max + 1),
                                        dense._walk(dense.start.copy(), st.N, st.n_max + 1),
                                        strict=True):
        assert h_band.tobytes() == h_full.tobytes()
    assert formed_atoms(band).tobytes() == formed_atoms(dense).tobytes()


def test_advance_in_phi_blocks_keeps_the_bits_of_one_step_at_a_time(mid_instance):
    # advance evaluates phi once per block of _H_BLOCK steps; a step on its
    # own evaluates it for itself, and both give every stored byte
    inst, _ = mid_instance
    built, st = inst.state, init_state(inst.params)
    while st.n < st.n_max:
        step(st)
    assert st.atoms[1:].tobytes() == built.atoms[1:].tobytes()   # row 0 is finalize's
    for name in ("q", "gamma", "alpha", "xi", "norms", "r", "r_hist"):
        assert getattr(st, name).tobytes() == getattr(built, name).tobytes(), name


def test_step_xi_imaginary_error(profile05):
    # beta near 1/2 blows up gamma_n |r_{n-1}| past one
    params = ConstructionParams(K=4, N=5, n_max=9, epsilon=None,
                                phi=dataclasses.replace(profile05, beta=0.49))
    st = init_state(params)
    with pytest.raises(ConstructionError, match="increase K"):
        advance(st)


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


def test_instance_reads_params_f_and_variation_bound_from_its_state(mid_instance,
                                                                    load_text):
    """After a build and after a replay: the instance stores only its state
    and dictionary, f is a read-only view of the stored r_N, the variation
    bound is finalize's expression bit for bit, and delta is tau - 2t."""
    built, _ = mid_instance
    assert [f.name for f in dataclasses.fields(AdversarialInstance)] == ["state", "dictionary"]
    assert "delta" not in {f.name for f in dataclasses.fields(PhiProfile)}
    for inst in (built, load_text(instance_to_text(built))):
        st, p = inst.state, inst.params
        assert inst.params is st.params
        assert np.shares_memory(inst.f.coeffs, st.r_hist)
        assert not inst.f.coeffs.flags.writeable and st.r_hist.flags.writeable
        assert np.array_equal(inst.f.coeffs, st.r_hist[0, :st.N])
        eps, r_n_norm = p.epsilon, st.norms[st.N]
        assert inst.variation_bound == float((r_n_norm / eps) * (1.0 + np.sqrt(1.0 - eps * eps)))
        assert p.phi.delta == p.phi.tau - 2.0 * p.phi.t


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


def test_bulk_rows_match_pair_values(small_instance, reference, monkeypatch):
    # every k of four rows, at 1, 2, 3 and 7 atom tiles: the one product per
    # block and tile against the recursions
    st = small_instance.state
    ns = (st.N + 1, st.N + 7, st.n_max // 2 + 40, st.n_max)
    expected = {n: [reference.pair_value(n, k) for k in range(st.N, st.n_max + 1)] for n in ns}
    for tiles in (1, 2, 3, 7):
        monkeypatch.setattr(adversarial, "_TILES", tiles)
        pairs, tilde = walk_tables(small_instance.oracle_tables())
        assert pairs.shape == (160, 161) and tilde.shape == (160,)
        for n in ns:
            row = pairs[n - st.N - 1]
            assert row[n - st.N] == st.q[n]
            assert row == pytest.approx(expected[n], rel=1e-9, abs=1e-15)
            assert tilde[n - st.N - 1] == pytest.approx(reference.tilde_pair_value(n),
                                                        rel=1e-9, abs=1e-15)


def test_oracle_tables_keep_only_what_rows_reads(small_instance, monkeypatch):
    # no 2-D array and no correction vectors: vectors, scalars, phi and the
    # tile bounds, before, during and after walks.  The running state of a
    # walk, its correction vectors and its tile included, is the walk's own,
    # and an open walk holds one tile of atoms, on page_rows
    p = small_instance.params
    monkeypatch.setattr(adversarial, "_TILES", 3)
    made, real = [], adversarial.page_rows

    def recorded(rows, width):
        tile = real(rows, width)
        made.append(weakref.ref(tile))
        return tile

    monkeypatch.setattr(adversarial, "page_rows", recorded)
    tables = OracleTables(small_instance.state)
    assert len(tables.tiles) == 3 and made == []
    open_walk = tables.blocks()
    for stage in ("built", "one walk open", "walked through"):
        arrays = {name: value for name, value in vars(tables).items()
                  if isinstance(value, np.ndarray)}
        assert set(arrays) == {"q", "gamma", "alpha", "b", "dtil", "start"}
        assert all(value.ndim == 1 for value in arrays.values())
        assert set(vars(tables)) - set(arrays) == {"K", "N", "phi", "tiles"}
        assert tables.dtil.shape == (p.N,) and tables.b.shape == tables.start.shape == (p.n_max,)
        st = small_instance.state     # copies of the sequences, not the state's arrays
        assert not any(np.shares_memory(mine, a)
                       for mine in (tables.q, tables.gamma, tables.alpha, tables.b)
                       for a in (st.q, st.gamma, st.alpha, st.xi))
        if stage == "built":
            next(open_walk)             # an open walk holds its running state itself
            assert len(made) == 1 and made[0]() is not None
        elif stage == "one walk open":
            del made[:]
            for _ in tables.blocks():
                alive = [tile() for tile in made if tile() is not None]
                k0, k1 = tables.tiles[len(made) - 1]
                assert len(alive) == 1 and alive[0].shape == (k1 - k0, k1 - 1)
                base = alive[0]
                while isinstance(base, np.ndarray):
                    base = base.base
                assert isinstance(base, mmap.mmap)
                del alive, base
            assert len(made) == 3 and all(tile() is None for tile in made)
    assert tables.tiles == adversarial._tiles(p.N, p.n_max)


@pytest.mark.parametrize("tiles", [1, 2, 3, 7])
def test_tiles_cut_the_atoms_into_runs_of_about_equal_area(tiles, monkeypatch):
    monkeypatch.setattr(adversarial, "_TILES", tiles)
    for N, n_max in ((80, 240), (400, 900), (400, 5000)):
        cut = adversarial._tiles(N, n_max)
        assert len(cut) == tiles and cut[0][0] == N and cut[-1][1] == n_max + 1
        assert all(k1 == k0_next for (_, k1), (k0_next, _) in zip(cut, cut[1:]))
        area = [sum(range(k0, k1)) for k0, k1 in cut]   # d_hat[k] holds k entries
        assert max(area) - min(area) <= 2 * n_max


def test_oracle_never_reads_stored_vectors(small_instance, mid_instance):
    """Tables built from a state whose atoms, stored residual r_N and working
    residual are NaN yield every block bit for bit as the clean state's."""
    for inst in (small_instance, mid_instance[0]):
        st, p = inst.state, inst.params
        blind = copy.copy(st)
        blind.atoms = np.full_like(st.atoms, np.nan)
        blind.r_hist = np.full_like(st.r_hist, np.nan)
        blind.r = np.full_like(st.r, np.nan)
        clean = OracleTables(st)
        tables = OracleTables(blind)
        for got, want in zip(tables.blocks(), clean.blocks(), strict=True):
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


@pytest.mark.parametrize("block", [1, 7, 64, 128])
def test_blocks_cover_every_step_once_in_ascending_order(small_instance, mid_instance,
                                                         monkeypatch, block):
    # in each tile of atoms in turn, which together cover N..n_max once
    monkeypatch.setattr(adversarial, "_VERIFY_BLOCK", block)
    for inst in (small_instance, mid_instance[0]):
        p = inst.params
        tables = inst.oracle_tables()
        blocks = tables.blocks()
        assert tables.tiles[0][0] == p.N and tables.tiles[-1][1] == p.n_max + 1
        assert all(k1 == k0 for (_, k1), (k0, _) in zip(tables.tiles, tables.tiles[1:]))
        for k0, k1 in tables.tiles:
            bounds = []
            for lo, hi, pairs, tilde in itertools.islice(blocks, -(-(p.n_max - p.N) // block)):
                assert pairs.shape == (hi - lo + 1, k1 - k0) and tilde.shape == (hi - lo + 1,)
                bounds.append((lo, hi))
            assert len(bounds) == -(-(p.n_max - p.N) // block)
            assert bounds[0][0] == p.N + 1 and bounds[-1][1] == p.n_max
            assert all(hi - lo + 1 == block for lo, hi in bounds[:-1])
            assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        assert next(blocks, None) is None


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
            step(st)
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
    tables = OracleTables(st)
    n0, k0 = p.N + 95, p.N          # <r_{n0-1}, d_N> is far from q_{n0}
    blocks = tables.blocks

    def shifted():   # in the first tile, which holds d_N
        passes = 0
        for lo, hi, pairs, tilde in blocks():
            passes += lo == p.N + 1
            if passes == 1 and lo <= n0 <= hi:
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


def test_verify_memory_stays_within_one_tile_and_a_few_blocks(mid_instance, monkeypatch):
    # everything verify allocates past the oracle's one tile of atoms is a few
    # arrays of one block of steps each (the earlier dense tables needed
    # about 15 such blocks more here).  Each tile is on page_rows,
    # which tracemalloc does not see, so the bound leaves it out; its
    # resident memory is test_resident_memory_follows_the_nonzero_structure's.
    inst = mid_instance[0]
    p = inst.params
    made, real = [], adversarial.page_rows

    def recorded(rows, width):
        tile = real(rows, width)
        base = tile
        while isinstance(base, np.ndarray):
            base = base.base
        made.append(((rows, width), isinstance(base, mmap.mmap)))
        return tile

    monkeypatch.setattr(adversarial, "page_rows", recorded)
    tracemalloc.start()
    try:
        verify(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tiles = adversarial._tiles(p.N, p.n_max)
    assert made == [((k1 - k0, k1 - 1), True) for k0, k1 in tiles]
    block_bytes = adversarial._VERIFY_BLOCK * (p.n_max - p.N + 1) * 8
    assert peak <= 7 * block_bytes


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


def test_build_instance_doubling_success(profile05, monkeypatch):
    # K=100, N=200 fails the margin check at this width; one doubling fixes it
    monkeypatch.setattr(adversarial, "_MAX_DOUBLINGS", 1)
    inst, report = build_instance(profile05, K=100, N=200, n_max=900)
    assert inst.params.K == 200 and inst.params.N == 400
    assert "doubling" in report.notes
    assert report.passed


def test_build_instance_doubling_exhaustion(profile05, monkeypatch):
    monkeypatch.setattr(adversarial, "_MAX_DOUBLINGS", 1)
    with pytest.raises(ConstructionError):
        build_instance(profile05, K=50, N=100, n_max=420)


def reference_verify(instance):
    """verify's fold as it was before it reduced whole blocks: one row at a time.

    It takes the same block products of the direct route, one per tile of
    atoms, and the same oracle values, stacked from the oracle's tiles, so
    every figure of its report must equal verify's.  The
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

    tables = instance.oracle_tables()
    all_pairs, all_tilde = walk_tables(tables)
    for lo in range(N + 1, n_max + 1, adversarial._VERIFY_BLOCK):
        hi = min(lo + adversarial._VERIFY_BLOCK - 1, n_max)
        pairs, tilde = all_pairs[lo - N - 1: hi - N], all_tilde[lo - N - 1: hi - N]
        rows = hist[lo - 1 - N: hi - N]
        direct = np.hstack([rows @ atoms_mat[k0 - N: k1 - N].T for k0, k1 in tables.tiles])
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
    sched = _schedule(np.arange(N, n_max + 1), st.params.beta)
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
    residual r_N, atom d_n and blended atom, and the oracle's atom
    components (cw: one entry of d_hat[n-1], which reaches column n-1 of
    every step's pairs) and blended atom (dtil: one entry, which reaches
    every step's blended value, the smallest blended margin of mid_instance
    included).  The target blended_min_atom is atom
    d_n at the step n of the smallest blended margin, whose NaN reaches
    the blended margins from step n + 1 on: in small_instance, whose
    smallest margin is at N + 1, every block size puts the first NaN
    margin in the block of that margin.  The target last_tile_atom is the
    first atom d_n of the last tile, so each row up to n holds its one NaN
    margin in that tile while its smallest margin lies in an earlier one
    (with two tiles or more).  The oracle targets get tables of their own;
    the copy shares nothing it changes.
    """
    st = copy.copy(instance.state)
    n = st.N + 95
    if target == "blended_min_atom":
        n, target = reference_verify(instance).tilde_argmin, "atom"
    if target == "last_tile_atom":
        n, target = OracleTables(st).tiles[-1][0], "atom"
    if target == "residual":
        st.r_hist = st.r_hist.copy()
        st.r_hist[0, st.N // 2] = value
    elif target in ("atom", "blended"):
        st.atoms = st.atoms.copy()
        row = st.atom_row(n) if target == "atom" else st.atoms[0]
        row[st.N // 2] = value
    else:
        tables = OracleTables(st)
        if target == "cw":
            form = tables._atom

            def planted(k, rrow, h_k, out):
                form(k, rrow, h_k, out)
                if k == n - 1:
                    out[st.N // 2] = value
                return out

            tables._atom = planted
        else:
            tables.dtil[st.N // 2] = value
        return with_tables(instance, tables, state=st)
    return dataclasses.replace(instance, state=st)


CORRUPTIONS = ([(target, value) for target in ("residual", "atom", "blended")
                for value in (np.nan, np.inf, -np.inf, 1e300)]
               + [("cw", np.nan), ("dtil", np.nan), ("blended_min_atom", np.nan),
                  ("last_tile_atom", np.nan)])


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
@pytest.mark.parametrize("block", [512, 64, 7])
@pytest.mark.parametrize("corruption", [None, *CORRUPTIONS],
                         ids=["clean", *(f"{t}-{v!r}" for t, v in CORRUPTIONS)])
def test_verify_matches_row_by_row_reference(small_instance, mid_instance, monkeypatch,
                                             block, corruption):
    # at 1, 2, 3 and 7 tiles of atoms: the per-row state verify carries
    # across tiles must fold to the one-row-at-a-time figures
    monkeypatch.setattr(adversarial, "_VERIFY_BLOCK", block)
    for tiles in (1, 2, 3, 7):
        monkeypatch.setattr(adversarial, "_TILES", tiles)
        for inst in (small_instance, mid_instance[0]):
            if corruption is not None:
                inst = corrupted(inst, *corruption)
            report = verify(inst)
            assert report.to_text() == reference_verify(inst).to_text()
            assert (corruption is None) or not report.passed


@pytest.mark.parametrize("tiles", [2, 3, 7])
def test_a_tie_across_tiles_goes_to_the_first_pair_in_row_order(small_instance, monkeypatch,
                                                                 tiles):
    """d_N, in the first tile, and d_n_max, in the last, are made the same
    multiple of one unit vector, so every step's values at the two tie
    exactly and dominate its row: the smallest margin is (n, N), never
    (n, n_max).  d_N enters no step of the walk, and d_n_max only the last."""
    monkeypatch.setattr(adversarial, "_TILES", tiles)
    st = copy.copy(small_instance.state)
    st.atoms = st.atoms.copy()
    for k in (st.N, st.n_max):
        row = st.atom_row(k)
        row[:] = 0.0
        row[st.N // 2] = 1e3
    inst = dataclasses.replace(small_instance, state=st)
    report = verify(inst)
    n, k = report.min_margin_pair
    assert k == st.N and report.min_margin < -1.0
    assert report.to_text() == reference_verify(inst).to_text()


@pytest.mark.parametrize("block", [512, 64, 7])
def test_the_report_is_the_same_at_every_tile_count(small_instance, mid_instance,
                                                    monkeypatch, block):
    """Every figure the fold decides is the same at 1, 2, 3 and 7 tiles: the
    argmin pairs, the verdicts, the notes, and the blended-atom and
    norm-schedule figures, whose products do not depend on the tiles.  The
    figures read off tile products agree to their last bits only: the BLAS
    picks its kernel, and the oracle's product its inner length
    min(hi, k1) - 1, by the product's shape, which the tile count sets."""
    monkeypatch.setattr(adversarial, "_VERIFY_BLOCK", block)
    for inst in (small_instance, mid_instance[0]):
        reports = []
        for tiles in (1, 2, 3, 7):
            monkeypatch.setattr(adversarial, "_TILES", tiles)
            reports.append(verify(inst))
        one = reports[0]
        rounded = {"min_margin": (1e-9, 0.0), "min_margin_oracle": (1e-9, 0.0),
                   "min_abs_margin": (1e-9, 0.0), "dual_max_diff": (0.0, 1e-16),
                   "diag_max_rel_err": (0.0, 1e-14)}
        for report in reports[1:]:
            assert dataclasses.replace(report, **{f: getattr(one, f) for f in rounded}) == one
            for f, (rel, abs_) in rounded.items():
                assert getattr(report, f) == pytest.approx(getattr(one, f), rel=rel, abs=abs_)
