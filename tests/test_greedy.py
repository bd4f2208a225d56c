import numpy as np
import pytest

from mpursuit import greedy_algorithms
from mpursuit.greedy_algorithms import (RESIDUAL_HALT, Dictionary, GreedyTrace, _oga, run,
                                        select_atom)
from mpursuit.linear_core import CoeffVector


def vec(*vals):
    return CoeffVector(np.array(vals, dtype=np.float64))


def ortho_dict(dim, n_atoms=None):
    n_atoms = dim if n_atoms is None else n_atoms
    return Dictionary(np.eye(dim)[:n_atoms], [dim] * n_atoms,
                      [f"e{k + 1}" for k in range(n_atoms)])


def stacked(atoms, labels=None):
    """The Dictionary of these atom arrays: one row each, zero-padded to the longest."""
    lengths = [a.size for a in atoms]
    rows = np.zeros((len(atoms), max(lengths, default=0)))
    for row, a in zip(rows, atoms):
        row[:a.size] = a
    return Dictionary(rows, lengths, labels)


def random_dict(rng, dim, n_atoms):
    atoms = []
    for _ in range(n_atoms):
        v = rng.standard_normal(dim)
        atoms.append(v / np.linalg.norm(v))
    return stacked(atoms)


def test_select_axis_aligned():
    d = ortho_dict(2)
    assert select_atom(vec(0.6, 0.8), d) == ("e2", 1, pytest.approx(0.8))


def test_select_symmetry_picks_negated_atom():
    d = ortho_dict(2)
    label, sign, value = select_atom(vec(-0.9, 0.1), d)
    assert (label, sign) == ("e1", -1)
    assert value == pytest.approx(0.9)


def test_select_zero_residual_tie_rule():
    d = ortho_dict(2)
    assert select_atom(vec(0.0, 0.0), d) == ("e1", 1, 0.0)


def test_select_empty_dictionary():
    with pytest.raises(ValueError, match="empty dictionary"):
        select_atom(vec(1.0), stacked([]))


def test_select_negated_dictionary_invariance(rng):
    for _ in range(20):
        d = random_dict(rng, 6, 9)
        neg = stacked([-a.coeffs for a in d.atoms], d.labels)
        r = CoeffVector(rng.standard_normal(6))
        l1, s1, v1 = select_atom(r, d)
        l2, s2, v2 = select_atom(r, neg)
        assert l1 == l2 and v1 == pytest.approx(v2, abs=1e-15) and s1 == -s2


def test_dictionary_rejects_non_unit_atoms():
    with pytest.raises(ValueError, match="norm"):
        stacked([np.array([1.0, 1.0])])
    nan_atom = np.zeros(200)
    nan_atom[0], nan_atom[150] = 1.0, np.nan
    with pytest.raises(ValueError, match="norm nan"):
        stacked([np.eye(200)[0], nan_atom])


def test_dictionary_rejects_rows_beyond_their_length():
    # selection reads only the residual's live prefix; a row nonzero past
    # its declared length made run("pga") pick a0 twice, raising the norm
    rows = np.zeros((2, 200))
    rows[0, [0, 150]] = 0.6, 0.8
    rows[1, 150] = 1.0
    with pytest.raises(ValueError, match="atom a0 is nonzero beyond its length 1"):
        Dictionary(rows, [1, 200])
    trace = run("pga", vec(1.0), Dictionary(rows, [200, 200]), 2)
    assert [(s.atom_id, s.sign) for s in trace.steps] == [("a0", 1), ("a1", -1)]
    assert trace.steps[1].residual_norm == pytest.approx(0.64)
    nan_tail = np.eye(3)[:1].copy()
    nan_tail[0, 2] = np.nan
    with pytest.raises(ValueError, match="atom a0"):
        Dictionary(nan_tail, [1])
    with pytest.raises(ValueError, match=r"atom a0 has length 9, outside \[0, 4\]"):
        Dictionary(np.ones((1, 4)) / 2, [9])


def test_pga_exact_recovery_orthonormal():
    trace = run("pga", vec(0.6, 0.8), ortho_dict(2), 2)
    assert [s.atom_id for s in trace.steps] == ["e2", "e1"]
    assert trace.residual_norms == pytest.approx([0.6, 0.0], abs=1e-15)


def test_pga_shrink_single_direction():
    trace = run("pga_shrink", vec(0.0, 1.0), ortho_dict(2), 1,
                shrinkage=0.5)
    s0 = trace.steps[0]
    assert s0.coefficient == pytest.approx(0.5)
    assert s0.residual_norm == pytest.approx(0.5)


def test_oga_exact_on_full_span(rng):
    dim, k = 8, 5
    d = ortho_dict(dim, k)
    coeffs = rng.standard_normal(k)
    f = CoeffVector(np.concatenate([coeffs, np.zeros(dim - k)]))
    trace = run("oga", f, d, k)
    assert trace.residual_norms[-1] <= 1e-12


def test_oga_step_budget_beyond_width_allocates_by_width(rng):
    # the basis never holds more than `width` rows, so a huge budget costs nothing
    d = random_dict(rng, 6, 6)
    f = CoeffVector(rng.standard_normal(6))
    short = run("oga", f, d, 7)
    assert len(short.steps) <= 6  # halted on a vanishing residual
    huge = run("oga", f, d, 10 ** 12)
    assert huge.to_csv() == short.to_csv()
    assert huge.atom_indices == short.atom_indices


def test_run_validation():
    d = ortho_dict(2)
    f = vec(1.0, 0.0)
    with pytest.raises(ValueError):
        run("nope", f, d, 1)
    with pytest.raises(ValueError):
        run("pga", f, d, 0)
    with pytest.raises(ValueError):
        run("pga_shrink", f, d, 1, shrinkage=0.0)
    with pytest.raises(ValueError):
        run("rga", f, d, 1)
    with pytest.raises(ValueError):
        run("rga", f, d, 1, variation_bound=np.nan)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_numeric_breakdown_detected():
    d = ortho_dict(2)
    with pytest.raises(RuntimeError, match="numeric breakdown at step 1"):
        run("pga", vec(np.inf, 0.0), d, 3)


def test_early_halt_below_floor():
    trace = run("pga", vec(0.3, 0.4), ortho_dict(2), 50)
    assert len(trace.steps) == 2  # exact recovery, then halt


def test_pga_energy_identity_random(rng):
    for _ in range(100):
        dim = int(rng.integers(3, 21))
        d = random_dict(rng, dim, int(rng.integers(3, 51)))
        f = CoeffVector(rng.standard_normal(dim))
        trace = run("pga", f, d, 15)
        prev = float(np.linalg.norm(f.coeffs)) ** 2
        for s in trace.steps:
            expected = prev - s.coefficient ** 2
            assert s.residual_norm ** 2 == pytest.approx(expected, rel=1e-10,
                                                         abs=1e-13)
            prev = s.residual_norm ** 2


def test_pga_shrink_energy_identity_random(rng):
    s_val = 0.6
    for _ in range(100):
        dim = int(rng.integers(3, 15))
        d = random_dict(rng, dim, int(rng.integers(3, 30)))
        f = CoeffVector(rng.standard_normal(dim))
        trace = run("pga_shrink", f, d, 10, shrinkage=s_val)
        prev = float(np.linalg.norm(f.coeffs)) ** 2
        for st in trace.steps:
            best = st.coefficient / s_val  # selection inner product
            expected = prev - s_val * (2 - s_val) * best ** 2
            assert st.residual_norm ** 2 == pytest.approx(expected, rel=1e-10,
                                                          abs=1e-13)
            prev = st.residual_norm ** 2


def test_residual_norm_non_increasing(rng):
    for alg, s in (("pga", 1.0), ("pga_shrink", 0.35)):
        d = random_dict(rng, 10, 25)
        f = CoeffVector(rng.standard_normal(10))
        norms = run(alg, f, d, 30, shrinkage=s).residual_norms
        assert np.all(np.diff(norms) <= 1e-14)


def test_oga_residual_orthogonal_to_selected(rng):
    # each step's reported norm is that of f minus its least-squares
    # projection on the atoms selected so far
    dim = 12
    d = random_dict(rng, dim, 30)
    f = CoeffVector(rng.standard_normal(dim))
    trace = run("oga", f, d, 8)
    assert len(trace.steps) == 8
    mat = d.matrix()
    for n, step in enumerate(trace.steps, start=1):
        sel = mat[trace.atom_indices[:n]]
        coef, *_ = np.linalg.lstsq(sel.T, f.padded(dim), rcond=None)
        r = f.padded(dim) - sel.T @ coef
        assert step.residual_norm == pytest.approx(float(np.linalg.norm(r)), rel=1e-12)
        for j in trace.atom_indices[:n]:
            assert abs(mat[j] @ r) <= 1e-9


def test_oga_beats_pga_on_same_selections(rng, mid_instance):
    # projection optimality: projecting onto the atoms pga picked can only
    # lower the residual norm
    for _ in range(10):
        dim = int(rng.integers(4, 12))
        d = random_dict(rng, dim, 20)
        f = CoeffVector(rng.standard_normal(dim))
        trace = run("pga", f, d, 8)
        mat = d.matrix()
        for n in range(1, len(trace.steps) + 1):
            sel = mat[trace.atom_indices[:n]]
            coef, *_ = np.linalg.lstsq(sel.T, f.padded(dim), rcond=None)
            proj_norm = float(np.linalg.norm(f.padded(dim) - sel.T @ coef))
            assert proj_norm <= trace.steps[n - 1].residual_norm + 1e-12

    # on the worst-case instance run("oga") picks the planned atoms, as pga
    # does, so its residual stays at or below pga's at every step
    instance, _ = mid_instance
    steps = instance.params.n_max - instance.params.N
    pga = run("pga", instance.f, instance.dictionary, steps)
    oga = run("oga", instance.f, instance.dictionary, steps)
    assert [s.atom_id for s in oga.steps] == instance.dictionary.labels[2:]
    assert [s.atom_id for s in pga.steps] == instance.dictionary.labels[2:]
    rp, ro = pga.residual_norms, oga.residual_norms
    assert np.all(ro <= rp * (1.0 + 1e-12))
    assert ro[-1] < rp[-1]


def test_rga_runs_and_records_relaxation_coefficients(rng):
    d = random_dict(rng, 6, 12)
    f = CoeffVector(rng.standard_normal(6))
    v = 3.0
    trace = run("rga", f, d, 5, variation_bound=v)
    assert trace.steps[0].coefficient == pytest.approx(v)
    for n in range(2, 6):
        assert trace.steps[n - 1].coefficient == pytest.approx(2 * v / n)


def test_trace_csv_shape():
    trace = run("pga", vec(0.6, 0.8), ortho_dict(2), 2)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "n,residual_norm,atom_id,sign,coefficient"
    assert len(lines) == 3
    back, offset = GreedyTrace.from_csv("# index_offset=7\n" + trace.to_csv())
    assert back.steps == trace.steps and offset == 7
    assert GreedyTrace.from_csv(trace.to_csv())[1] == 0


@pytest.mark.parametrize("row", ["1,0.5,a0,1", "1,0.5,a0,1,0.1,9", "x,0.5,a0,1,0.1",
                                 "1,0.5,a0,+,0.1"])
def test_trace_csv_malformed_row_is_a_value_error(row):
    text = "n,residual_norm,atom_id,sign,coefficient\n" + row + "\n"
    with pytest.raises(ValueError, match="is not n,residual_norm"):
        GreedyTrace.from_csv(text)


def reference_run(algorithm, f, d, steps, shrinkage=1.0, variation_bound=None):
    """Full-width greedy loop: every atom against the whole residual.

    OGA projects by least squares on the selected atoms, not by Gram-Schmidt.
    Returns (atom index, sign, residual norm) per step.
    """
    mat = d.matrix()
    width = max(d.width, f.active_len)
    target = f.padded(width)
    r = target.copy()
    approx = np.zeros(width)
    selected, out = [], []
    for n in range(1, steps + 1):
        vals = mat @ r[: mat.shape[1]]
        j = int(np.argmax(np.abs(vals)))
        sign = 1 if vals[j] >= 0.0 else -1
        atom = np.zeros(width)
        atom[: mat.shape[1]] = sign * mat[j]
        if algorithm in ("pga", "pga_shrink"):
            r = r - shrinkage * abs(vals[j]) * atom
        elif algorithm == "oga":
            selected.append(atom)
            span = np.array(selected).T
            coef, *_ = np.linalg.lstsq(span, target, rcond=None)
            r = target - span @ coef
        else:
            step = variation_bound if n == 1 else 2.0 * variation_bound / n
            approx = (1.0 - 2.0 / n) * approx + step * atom if n > 1 else step * atom
            r = target - approx
        out.append((j, sign, float(np.linalg.norm(r))))
    return out


@pytest.mark.parametrize("algorithm, shrinkage", [
    ("pga", 1.0), ("pga_shrink", 0.5), ("oga", 1.0), ("rga", 1.0)])
def test_live_prefix_selection_matches_full_width(rng, algorithm, shrinkage):
    # atoms of mixed support, most far shorter than the width, and a target
    # shorter than the width: selection reads only the residual's live prefix
    for _ in range(10):
        width = int(rng.integers(150, 400))
        lens = np.concatenate([rng.integers(1, 80, size=40),
                               rng.integers(80, width + 1, size=10), [width]])
        atoms = []
        for n in rng.permutation(lens):
            v = rng.standard_normal(int(n))
            atoms.append(v / np.linalg.norm(v))
        d = stacked(atoms)
        f = CoeffVector(rng.standard_normal(int(rng.integers(5, 60))))
        vb = 2.0 * float(np.linalg.norm(f.coeffs))
        trace = run(algorithm, f, d, 25, shrinkage=shrinkage, variation_bound=vb)
        ref = reference_run(algorithm, f, d, 25, shrinkage, vb)
        got = [(j, s.sign) for j, s in zip(trace.atom_indices, trace.steps)]
        assert got == [(j, sign) for j, sign, _ in ref]
        assert np.allclose(trace.residual_norms, [rn for _, _, rn in ref],
                           rtol=0.0, atol=1e-12)


def test_oga_recheck_keeps_near_collinear_atoms_orthogonal():
    # atoms e1 + delta_k e_{k+1} with delta_k ~ 1e-5: from the second step
    # on, one Gram-Schmidt pass keeps about 1e-5 of each atom's norm, so the
    # run must take the second pass; a single pass leaves the residual
    # orthogonal to the selected atoms to no better than ~1e-11
    rng = np.random.default_rng(1976)
    dim, k = 16, 12
    for _ in range(5):
        atoms = []
        for j in range(k):
            v = np.zeros(dim)
            v[0], v[j + 1] = 1.0, 1e-5 * (1.0 + rng.random())
            atoms.append(v / np.linalg.norm(v))
        d = stacked(atoms)
        mat = d.matrix()
        assert np.min(mat @ mat.T) > 2.0 ** -0.5
        f = CoeffVector(rng.standard_normal(dim))
        # the extra step selects among atoms that are all in the span, so its
        # value is the largest |<r, d>| over the selected atoms
        trace = run("oga", f, d, k + 1)
        assert sorted(trace.atom_indices[:k]) == list(range(k))
        assert trace.steps[k].coefficient <= 1e-12
        ref = reference_run("oga", f, d, k)
        got = [(j, s.sign) for j, s in zip(trace.atom_indices, trace.steps)]
        assert got[:k] == [(j, sign) for j, sign, _ in ref]
        assert np.allclose(trace.residual_norms[:k], [rn for _, _, rn in ref],
                           rtol=0.0, atol=1e-12)


def assert_oga_contract(trace, picks, norms):
    """The output contract of DECISIONS.md against the single-pass loop: the
    same atoms and signs at every step, and residual norms within 4 ulps."""
    assert len(trace.steps) == len(picks)
    assert [(j, s.sign) for j, s in zip(trace.atom_indices, trace.steps)] == picks
    assert np.all(np.abs(trace.residual_norms - norms) <= 4 * np.spacing(norms))


def test_dictionary_keeps_lengths_as_a_read_only_int_array():
    d = Dictionary(np.eye(3), [1, 2, 3])
    assert d.lengths.dtype == np.intp and d.lengths.tolist() == [1, 2, 3]
    assert not d.lengths.flags.writeable


def test_oga_block_breaks_where_consecutive_picks_break(mid_instance, single_pass_oga):
    # two planned atoms swap rows (and lengths and labels), so the run of
    # consecutive picks breaks at step 100, inside a block of 64: the guess
    # there misses, and the run must drop the rows after it
    instance, _ = mid_instance
    d, steps = instance.dictionary, instance.params.n_max - instance.params.N
    rows, lengths, labels = d.matrix().copy(), d.lengths.copy(), list(d.labels)
    a, b = 101, 102  # the atoms of steps 100 and 101
    rows[[a, b]], lengths[[a, b]] = rows[[b, a]], lengths[[b, a]]
    labels[a], labels[b] = labels[b], labels[a]
    swapped = Dictionary(rows, lengths, labels)
    trace, r = _oga(instance.f, swapped, steps)
    assert_oga_contract(trace, *single_pass_oga(instance.f, swapped, steps))
    assert [s.atom_id for s in trace.steps] == instance.dictionary.labels[2:]
    assert trace.atom_indices[98:102] == [a - 1, b, a, b + 1]
    selected = rows[trace.atom_indices]
    assert np.max(np.abs(selected @ r[:rows.shape[1]])) <= 1e-12


def test_oga_halts_inside_a_block(single_pass_oga):
    # e1..e12 are picked in order, in blocks of 1, 2, 4 and 8 atoms; the
    # residual vanishes at e12, the fifth row of the block e8..e15
    d = ortho_dict(30)
    f = CoeffVector(np.concatenate([np.arange(12.0, 0.0, -1.0), np.zeros(18)]))
    trace = run("oga", f, d, 30)
    picks, norms = single_pass_oga(f, d, 30)
    assert_oga_contract(trace, picks, norms)
    assert trace.atom_indices == list(range(12))
    assert trace.steps[-1].residual_norm < RESIDUAL_HALT <= trace.steps[-2].residual_norm


def near_collinear_in_pick_order(k, dim):
    """Atoms e0 + 1e-7 e_{i+1}, stored in the order OGA picks them for a
    target on decreasing coefficients."""
    rows = np.zeros((k, dim))
    rows[:, 0] = 1.0
    rows[np.arange(k), np.arange(1, k + 1)] = 1e-7
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    f = np.zeros(dim)
    f[0], f[1:k + 1] = 1.0, np.linspace(1.0, 0.5, k)
    f = CoeffVector(f)
    order = run("oga", f, Dictionary(rows, [dim] * k), k).atom_indices
    return Dictionary(rows[order], [dim] * k), f


@pytest.mark.parametrize("tile", [512, 3])
def test_oga_recheck_fires_on_guessed_rows(monkeypatch, single_pass_oga, tile):
    # every atom after the first keeps about 1e-7 of its norm after one
    # pass, so each takes the DGKS second pass, and all but the first of
    # each block are guesses; with tiles of 3 rows the passes span tiles.
    # One pass leaves the residual orthogonal to the atoms to only ~6e-10
    monkeypatch.setattr(greedy_algorithms, "_TILE", tile)
    k, dim = 20, 24
    d, f = near_collinear_in_pick_order(k, dim)
    trace, r = _oga(f, d, k)
    assert trace.atom_indices == list(range(k))  # blocks of 1, 2, 4, 8 and 5
    assert_oga_contract(trace, *single_pass_oga(f, d, k))
    assert np.max(np.abs(d.matrix() @ r)) <= 1e-12


def test_project_forms_every_coefficient_before_subtracting(rng):
    # classical Gram-Schmidt across tiles: with two views that are not
    # orthogonal to each other, subtracting view by view would differ by
    # the product of the two projections
    x = rng.standard_normal((3, 4))
    v1 = np.array([[1.0, 0.0, 0.0, 0.0]])
    v2 = np.array([[1.0, 1.0, 0.0, 0.0]]) / np.sqrt(2.0)
    want = x - (x @ v1.T) @ v1 - (x @ v2.T) @ v2
    got = x.copy()
    greedy_algorithms._project(got, [v1, v2[:, :2]])
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("steps", [100, 501])
def test_oga_blocks_end_at_the_budget_and_at_the_last_atom(mid_instance, single_pass_oga,
                                                           steps):
    # blocks of 1, 2, ..., 32 atoms take 63 steps, then blocks of 64: a
    # budget of 100 cuts the seventh block to 37 rows.  The planned atoms
    # end at the dictionary's last row at step 500, so with 501 steps the
    # last block stops at that row and one more step selects afresh
    instance, _ = mid_instance
    d = instance.dictionary
    trace = run("oga", instance.f, d, steps)
    assert_oga_contract(trace, *single_pass_oga(instance.f, d, steps))
    assert len(trace.steps) == steps
    if steps == 501:
        assert trace.atom_indices[499] == len(d) - 1
