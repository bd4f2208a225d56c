"""Worst-case dictionary construction with certified greedy selection.

Builds the residual/atom sequences whose norms follow the schedule
(n+1)^(beta - 1/2) exactly, assembles the dictionary (one blended atom
plus the planned atoms), picks the blending weight epsilon, and verifies
the strict selection inequalities |<r_{n-1}, d_k>| < q_n = <r_{n-1}, d_n>
by two independent routes:

* direct: inner products of the residuals, walked forward from the one
  stored residual r_N, against the stored atoms;
* oracle: the residuals and atoms rebuilt from the scalar sequences
  (q, gamma, alpha, xi), the weight profile phi and epsilon alone -- no
  vector accumulated during the construction enters this route.

The oracle rebuilds each residual by the component formula
<r_m, e_j> = -q_m (xi_{j+1} + sum_{l>j}^m <h_l, e_j>) and each atom by the
inductive definition, and takes the inner products of each block of steps
with each tile of atoms as one product of the two.  `OracleTables` keeps
no 2-D array: the residual rows and the correction vectors h_l are formed
in forward walks, and the atoms one tile at a time.  `verify` folds each
(tile, block) pair as the walk yields it and drops the tables when the
walk ends.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError
from .greedy_algorithms import Dictionary
from .linear_core import CoeffVector, page_rows
from .phi_builder import PhiProfile

__all__ = [
    "ConstructionParams", "ConstructionState", "AdversarialInstance",
    "VerificationReport", "check_sizes", "q_of", "init_state", "step", "advance",
    "choose_epsilon", "finalize", "verify",
    "build_instance",
]

CONDITION_RTOL = 1e-9
DUAL_PATH_TOL = 1e-9
DIAG_RTOL = 1e-10
_VERIFY_BLOCK = 128  # steps per block of the oracle's walk, read when a walk starts
_H_BLOCK = 8         # steps per phi evaluation in advance and in the oracle's walk
_TILES = 3           # atom tiles of equal area the oracle forms one at a time
_MAX_DOUBLINGS = 4   # times build_instance doubles K and N after a failed attempt


def q_of(n, beta: float):
    """Greedy coefficient schedule: q_n^2 = n^(2b-1) - (n+1)^(2b-1).

    Evaluated in cancellation-free form; defined for every n >= 1 and in
    particular at n = K-1 where the component formulas need it.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    n = np.asarray(n, dtype=np.float64)
    if np.any(n < 1):
        raise ValueError("q_of needs n >= 1")
    q2 = -(n ** (2.0 * beta - 1.0)) * np.expm1((2.0 * beta - 1.0) * np.log1p(1.0 / n))
    out = np.sqrt(q2)
    return float(out) if out.ndim == 0 else out


def _schedule(n, beta: float):
    """Target residual norm (n+1)^(beta - 1/2)."""
    return (np.asarray(n, dtype=np.float64) + 1.0) ** (beta - 0.5)


@dataclass
class ConstructionParams:
    """Fundamental parameters (K, N, n_max, epsilon, phi); beta is phi's."""

    K: int
    N: int
    n_max: int
    epsilon: float | None
    phi: PhiProfile

    @property
    def beta(self) -> float:  # the exponent phi is normalized for
        return self.phi.beta

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise ValueError("beta must lie in (0, 1/2)")
        check_sizes(self.K, self.N, self.n_max, self.epsilon)


def check_sizes(K: int, N: int, n_max: int, epsilon: float | None) -> None:
    """Raise ValueError unless 2 <= K <= N < n_max and epsilon is None or in (0, 1)."""
    if K < 2:
        raise ValueError("K must be at least 2")
    if N < K:
        raise ValueError("N must be at least K")
    if n_max <= N:
        raise ValueError("n_max must exceed N")
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


class ConstructionState:
    """Mutable state of the inductive construction.

    Scalar sequences are indexed by the step number n directly.  `atoms` is
    the only atom store: row 0 the blended atom, then d_N..d_n, zero-padded
    on `page_rows`, so only the pages of the written trapezoid are resident;
    `r_hist` (a name the benchmark's tracer reads) is one row, r_N.
    """

    def __init__(self, params: ConstructionParams):
        self.params = params
        n_max = params.n_max
        self.q = np.zeros(n_max + 1)
        self.gamma = np.zeros(n_max + 1)
        self.alpha = np.zeros(n_max + 1)
        self.xi = np.zeros(n_max + 1)
        self.norms = np.zeros(n_max + 1)
        self.r = np.zeros(n_max)
        self.atoms = page_rows(n_max - params.N + 2, n_max)
        self.r_hist = np.zeros((1, n_max))
        self.n = params.K - 1

    K = property(lambda self: self.params.K)  # the sizes' one home is params
    N = property(lambda self: self.params.N)
    n_max = property(lambda self: self.params.n_max)

    def atom_row(self, k: int) -> np.ndarray:
        if not self.N <= k <= self.n:
            raise IndexError(f"atom {k} not stored")
        return self.atoms[k - self.N + 1]


def init_state(params: ConstructionParams) -> ConstructionState:
    """Seed residual: all K-1 leading coefficients equal, norm K^(beta-1/2)."""
    st = ConstructionState(params)
    K, beta = params.K, params.beta
    st.r[: K - 1] = -(K ** (-0.5 + beta)) / np.sqrt(K - 1.0)
    st.q[K - 1] = q_of(K - 1, beta)
    st.norms[K - 1] = float(np.linalg.norm(st.r[: K - 1]))
    target = K ** (-0.5 + beta)
    if abs(st.norms[K - 1] - target) > 1e-12 * target:
        raise ConstructionError("seed residual norm off its schedule")
    return st


def step(state: ConstructionState, given: np.ndarray | None = None,
         phi_row: np.ndarray | None = None) -> ConstructionState:
    """Advance one index: build d_n and r_n, then assert the step conditions.

    `given` replays a stored step, its (q, gamma, alpha, xi), with the same
    vector arithmetic as the solving path; the condition assertions still
    run, so a corrupted sequence is caught here.  `phi_row`, phi(i / n) for
    i = 1..n-1 as `_phi_rows` forms it, spares step its own evaluation.
    """
    n = state.n + 1
    if n > state.n_max:
        raise ValueError("state already at n_max")
    beta = state.params.beta
    if phi_row is None:
        phi_row = np.zeros(n - 1)
        _phi_rows(state.params.phi, np.array([n]), phi_row[None])
    w = phi_row[: n - 1] / n
    r = state.r
    if given is None:
        qn = q_of(n, beta)
        gn = 1.0 / qn - 1.0 / state.q[n - 1]
        s_n = float(w @ r[: n - 1])
        if s_n == 0.0:
            raise ConstructionError(f"phi support misses residual at step {n}")
        an = (qn - gn * n ** (2.0 * beta - 1.0)) / s_n
    else:
        qn, gn, an, xin = given
    v = gn * r[:n]
    v[: n - 1] += an * w
    nv2 = float(v @ v)
    if given is None:
        if nv2 > 1.0:
            raise ConstructionError(f"xi imaginary at step {n} -- increase K")
        xin = float(np.sqrt(1.0 - nv2))
    d = v
    d[n - 1] += xin

    ip = float(r[:n] @ d)
    r[:n] -= qn * d
    rnorm = float(np.linalg.norm(r[:n]))
    target = float(_schedule(n, beta))

    # each check is written so that a NaN anywhere fails it
    problems = []
    if not an >= 0.0:
        problems.append(f"alpha={an!r} not >= 0")
    if not 0.0 < xin <= 1.0:
        problems.append(f"xi={xin!r} outside (0, 1]")
    if not abs(ip - qn) <= CONDITION_RTOL * qn:
        problems.append(f"<r,d>={ip!r} vs q={qn!r}")
    dnorm2 = nv2 + xin * xin
    if not abs(np.sqrt(dnorm2) - 1.0) <= CONDITION_RTOL:
        problems.append(f"|d|={np.sqrt(dnorm2)!r}")
    if not abs(rnorm - target) <= CONDITION_RTOL * target:
        problems.append(f"|r|={rnorm!r} vs schedule {target!r}")
    orth = float(r[:n] @ d)
    if not abs(orth) <= CONDITION_RTOL:
        problems.append(f"<r_n,d_n>={orth!r}")
    if problems:
        raise ConstructionError(f"step {n} conditions violated: " + "; ".join(problems))

    state.q[n] = qn
    state.gamma[n] = gn
    state.alpha[n] = an
    state.xi[n] = xin
    state.norms[n] = rnorm
    state.n = n
    if n >= state.N:
        state.atom_row(n)[:n] = d
    if n == state.N:
        state.r_hist[0, :n] = r[:n]
    return state


def advance(state: ConstructionState,
            given_rows: np.ndarray | None = None) -> ConstructionState:
    """Run steps up to n_max; column n of `given_rows`, a (4, n_max + 1)
    table of q, gamma, alpha and xi, replays step n.  phi is evaluated once
    per block of `_H_BLOCK` steps."""
    while state.n < state.n_max:
        ls = np.arange(state.n + 1, min(state.n + _H_BLOCK, state.n_max) + 1)
        rows = np.zeros((len(ls), ls[-1] - 1))
        _phi_rows(state.params.phi, ls, rows)
        for row in rows:
            given = None if given_rows is None else given_rows[:, state.n + 1]
            step(state, given=given, phi_row=row)
    return state


def _residual_blocks(state: ConstructionState) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (rows, r) per block of `_VERIFY_BLOCK` steps n = lo..hi, N < n <= n_max:
    rows[n - lo] = r_{n-1} in a fresh block, walked from r_N by `step`'s own
    elementwise update, so bit for bit at any thread count; r is r_hi."""
    N, n_max, q, block = state.N, state.n_max, state.q, _VERIFY_BLOCK
    r = state.r_hist[0].copy()
    for lo in range(N + 1, n_max + 1, block):
        rows = np.empty((min(block, n_max + 1 - lo), n_max))
        for n, row in enumerate(rows, start=lo):
            row[:] = r
            r[:n] -= q[n] * state.atom_row(n)[:n]
        yield rows, r
        del rows   # a generator's locals outlive the yield


def choose_epsilon(state: ConstructionState) -> float:
    """Largest epsilon = 2^-j passing the blended-atom inequalities.

    Candidates start at the cap epsilon |r_N| <= q_{N+1} / 2.  Only the
    inequalities involving the blended atom depend on epsilon, so the scan
    checks exactly those; the epsilon-independent pairs are the verify
    op's job.  Requires the state advanced through n_max.
    """
    if state.n != state.n_max:
        raise ValueError("advance the construction to n_max before choosing epsilon")
    N, n_max = state.N, state.n_max
    r_n_norm = state.norms[N]
    cap = 0.5 * state.q[N + 1] / r_n_norm
    ref = np.stack([state.r_hist[0] / r_n_norm, state.atom_row(N)])   # r_N / |r_N|, d_N
    u, w = np.hstack([ref @ rows.T for rows, _ in _residual_blocks(state)])   # n > N
    q_col = state.q[N + 1: n_max + 1]
    j = int(np.ceil(-np.log2(cap)))
    while 2.0 ** -j > cap:
        j += 1
    for jj in range(j, 61):
        eps = 2.0 ** -jj
        vals = np.abs(eps * u + np.sqrt(1.0 - eps * eps) * w)
        if bool(np.all(vals < q_col)):
            return eps
    raise ConstructionError("no admissible epsilon in the geometric grid -- increase N")


@dataclass
class AdversarialInstance:
    """Finished construction: the state behind it and its dictionary; the
    parameters, the target f and the variation bound are read from the state."""

    state: ConstructionState = field(repr=False)
    dictionary: Dictionary

    @property
    def params(self) -> ConstructionParams:
        return self.state.params

    @property
    def f(self) -> CoeffVector:
        """The target r_N: a read-only view of the stored residual."""
        return CoeffVector(self.state.r_hist[0, :self.state.N])

    @property
    def variation_bound(self) -> float:
        """The l1 norm of f's expansion in the blended atom and d_N."""
        eps, r_n_norm = self.params.epsilon, self.state.norms[self.state.N]
        return float((r_n_norm / eps) * (1.0 + np.sqrt(1.0 - eps * eps)))

    def oracle_tables(self) -> "OracleTables":  # fresh tables on every call
        return OracleTables(self.state)


def finalize(state: ConstructionState) -> AdversarialInstance:
    """Assemble the blended atom (row 0 of the store) and the dictionary; f is r_N."""
    if state.n != state.n_max:
        raise ValueError("advance the construction to n_max before finalizing")
    eps = state.params.epsilon
    if eps is None:
        raise ValueError("epsilon not chosen")
    N = state.N
    r_n = state.r_hist[0, :N]
    r_n_norm = state.norms[N]
    d_n = state.atom_row(N)[:N]
    d_til = state.atoms[0, :N]
    d_til[:] = eps * r_n / r_n_norm + np.sqrt(1.0 - eps * eps) * d_n
    til_norm = float(np.linalg.norm(d_til))
    if abs(til_norm - 1.0) > 1e-12:
        raise ConstructionError(f"blended atom norm {til_norm!r} not 1")
    ks = range(N, state.n_max + 1)
    dictionary = Dictionary(state.atoms, [N, *ks],
                            [f"dt{N}", *(f"d{k}" for k in ks)])
    return AdversarialInstance(state=state, dictionary=dictionary)


def _tiles(N: int, n_max: int) -> tuple[tuple[int, int], ...]:
    """The oracle's atom tiles (k0, k1), k = N..n_max cut into `_TILES` runs of
    consecutive atoms that hold about equal parts of the triangle, d_hat[k]
    holding k entries."""
    area = np.cumsum(np.arange(N, n_max + 1))
    cuts = N + 1 + np.searchsorted(area, area[-1] * np.arange(1, _TILES) / _TILES)
    bounds = np.unique([N, *cuts.tolist(), n_max + 1]).tolist()
    return tuple(zip(bounds[:-1], bounds[1:]))


def _phi_rows(phi: PhiProfile, ls: np.ndarray, out: np.ndarray) -> int:
    """phi(i / l), i = 1..l-1, for the consecutive l in ls: one row each, zero
    from column l - 1 on, into out, a zero len(ls) x (ls[-1] - 1) block.  One
    phi evaluation covers the columns from the first row's support edge on;
    phi is +0.0 below it in every row.  Returns that edge's column."""
    i0 = phi.first_live(int(ls[0]))
    i = np.arange(i0, ls[-1])
    inside = i < ls[:, None]
    np.copyto(out[:, i0 - 1:], phi(np.where(inside, i / ls[:, None], 0.0)), where=inside)
    return i0 - 1


def _h_rows(alpha: np.ndarray, phi: PhiProfile, ls: np.ndarray, out: np.ndarray) -> None:
    """Correction vectors h_l = (alpha_l / l) phi(i / l), i = 1..l-1, for the
    consecutive l in ls, into out as `_phi_rows` lays them out."""
    edge = _phi_rows(phi, ls, out)
    out[:, edge:] *= (alpha[ls] / ls)[:, None]


class OracleTables:
    """Closed-form inner products from scalar sequences alone.

    The oracle rebuilds every residual by the component formula
    <r_m, e_j> = -q_m (b_j + sum_{l=K}^m <h_l, e_j>), with the correction
    vectors h_l = (alpha_l / l) phi(i / l) and the base components
    b_j = xi_{j+1} past the seed block j < K, and every atom by the inductive
    definition d_hat[k] = gamma_k r_hat[k-1] + h_k + xi_k e_k.  It keeps no
    2-D array: `blocks` forms the atoms one tile at a time (`tiles`, read
    from `_TILES` when the tables are built), on `page_rows`, so only the
    pages of the tile's triangle are resident, and drops each tile once
    every block of steps has been paired with it.

    The tables hold copies of q, gamma, alpha and xi (as `b`), the profile
    phi, the blended atom `dtil` (epsilon enters it only) and `start`, the
    running correction sum h_K + ... + h_{N-1} at which every walk begins.
    Each walk starts afresh from running state of its own, so every walk of
    the same tables yields the same bits.  Nothing here reads the
    construction's stored vectors.
    """

    def __init__(self, state: ConstructionState):
        K, N, n_max, beta = state.K, state.N, state.n_max, state.params.beta
        epsilon = state.params.epsilon
        self.K, self.N, self.phi = K, N, state.params.phi
        self.tiles = _tiles(N, n_max)
        self.q = q = state.q.copy()
        self.gamma = state.gamma.copy()
        self.alpha = state.alpha.copy()
        self.b = b = np.empty(n_max)
        b[: K - 1] = K ** (-0.5 + beta) / (q[K - 1] * np.sqrt(K - 1.0))
        b[K - 1:] = state.xi[K:n_max + 1]

        self.start = run = np.zeros(n_max)
        for _ in self._walk(run, K, N):
            pass
        walk = self._walk(run.copy(), N, N + 2)
        d_n = self._atom(N, *next(walk), np.empty(N))
        r_n, _ = next(walk)
        rn_norm = float(_schedule(N, beta))
        self.dtil = epsilon * r_n / rn_norm + np.sqrt(1.0 - epsilon ** 2) * d_n

    def _walk(self, run: np.ndarray, start: int, stop: int
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (r_hat[l-1], h_l) for l = start..stop-1: the residual
        components <r_{l-1}, e_j>, j = 1..l-1, by the component formula, and
        the correction vector the running sum adds next.  run holds
        h_K + ... + h_{start-1} and is carried on in place, h_l added before
        the row of l is yielded, so once that row is out run is the sum a
        walk from l + 1 resumes from.  The vectors are formed `_H_BLOCK` at
        a time and none is kept."""
        q, b = self.q, self.b
        for l0 in range(start, stop, _H_BLOCK):
            ls = np.arange(l0, min(l0 + _H_BLOCK, stop))
            h = np.zeros((len(ls), ls[-1] - 1))
            _h_rows(self.alpha, self.phi, ls, out=h)
            for l, h_l in zip(ls.tolist(), h):
                rrow = -(q[l - 1]) * (b[: l - 1] + run[: l - 1])
                run[: l - 1] += h_l[: l - 1]
                yield rrow, h_l[: l - 1]

    def _atom(self, k: int, rrow: np.ndarray, h_k: np.ndarray, out: np.ndarray) -> np.ndarray:
        """d_hat[k] = gamma_k r_hat[k-1] + h_k + xi_k e_k into out's first k columns."""
        out[: k - 1] = self.gamma[k] * rrow
        out[: k - 1] += h_k
        out[k - 1] = self.b[k - 1]
        return out

    def blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (lo, hi, pairs, tilde) for each tile k0..k1-1 of `tiles` in
        turn and, within it, each block of `_VERIFY_BLOCK` steps n = lo..hi
        from n = N+1 up to n_max: pairs[n - lo, k - k0] is <r_{n-1}, d_k>,
        k = k0..k1-1, and tilde[n - lo] is <r_{n-1}, dt_N> for the blended
        atom dt_N, the same in every tile.  The caller owns both.

        A tile is formed by a walk over its own atoms that resumes from the
        running sum the previous tile's walk stopped at, so the forming walks
        together are one walk; one more walk per tile pairs it with every
        block.  A block's pairs are one product over the columns where both
        its residual rows and the tile can be nonzero, but for k = n, which
        is the base equality <r_{n-1}, d_n> = q_n.
        """
        N, n_max, q, block = self.N, len(self.b), self.q, _VERIFY_BLOCK
        form = self.start.copy()
        for k0, k1 in self.tiles:
            tile = page_rows(k1 - k0, k1 - 1)   # d_hat[k] is zero from column k on
            for row, k, (rrow, h_k) in zip(tile, range(k0, k1), self._walk(form, k0, k1)):
                self._atom(k, rrow, h_k, row)
            walk = self._walk(self.start.copy(), N, n_max + 1)
            next(walk)                          # r_hat[N-1] only shapes d_hat[N]
            for lo in range(N + 1, n_max + 1, block):
                hi = min(lo + block - 1, n_max)
                rhat = np.zeros((hi - lo + 1, hi - 1))   # r_hat[n-1] is zero from column n-1 on
                for row, (rrow, _) in zip(rhat, walk):
                    row[: len(rrow)] = rrow
                cols = min(hi, k1) - 1
                pairs = rhat[:, :cols] @ tile[:, :cols].T
                ns = np.arange(max(lo, k0), min(hi + 1, k1))
                pairs[ns - lo, ns - k0] = q[ns]
                tilde = rhat[:, :N] @ self.dtil
                del rhat, row, rrow
                yield lo, hi, pairs, tilde
                del pairs, tilde   # a generator's locals outlive the yield
            del tile, walk         # before the next tile is formed


@dataclass
class VerificationReport:
    """Outcome of the dual-path selection-inequality check."""

    n_pairs: int
    all_strict: bool
    min_margin: float
    min_margin_pair: tuple[int, int]
    min_margin_oracle: float
    min_abs_margin: float
    tilde_min_margin: float
    tilde_argmin: int
    dual_max_diff: float
    diag_max_rel_err: float
    schedule_max_rel_err: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return (self.all_strict
                and self.dual_max_diff <= DUAL_PATH_TOL
                and self.dual_max_diff < self.min_abs_margin
                and self.diag_max_rel_err <= DIAG_RTOL
                and self.schedule_max_rel_err <= CONDITION_RTOL)

    def to_text(self) -> str:
        lines = [
            f"pairs={self.n_pairs}",
            f"all_strict={'true' if self.all_strict else 'false'}",
            f"min_margin={self.min_margin:.12g}",
            f"min_margin_pair={self.min_margin_pair[0]},{self.min_margin_pair[1]}",
            f"min_margin_oracle={self.min_margin_oracle:.12g}",
            f"min_abs_margin={self.min_abs_margin:.12g}",
            f"tilde_min_margin={self.tilde_min_margin:.12g}",
            f"tilde_argmin={self.tilde_argmin}",
            f"dual_max_diff={self.dual_max_diff:.12g}",
            f"diag_max_rel_err={self.diag_max_rel_err:.12g}",
            f"schedule_max_rel_err={self.schedule_max_rel_err:.12g}",
            f"passed={'true' if self.passed else 'false'}",
        ]
        if self.notes:
            lines.append(f"notes={self.notes}")
        return "\n".join(lines) + "\n"


def verify(instance: AdversarialInstance) -> VerificationReport:
    """Check every selection inequality by both routes and compare them.

    Reports (never raises): minimum normalized margin over all pairs
    (n, k), k != n, the smallest absolute direct margin q_n - |<r_{n-1}, d>|
    over every atom d but d_n, the blended-atom margins, the worst
    oracle/direct disagreement, the diagonal equality error, and the
    norm-schedule deviation over r_N..r_{n_max}; a non-finite
    direct or oracle value fails the check and the notes name its first n.
    The check also fails unless the disagreement is below the smallest
    absolute margin, so no selection can flip between the two routes.

    The oracle's tables yield its tiles of atoms in turn, and within each
    tile its blocks of steps; a walk of the residuals from r_N yields the
    same blocks in lockstep, and the stored atoms of the tile give the
    direct products, each reduced by whole-array operations; the tables live
    only while verify runs.  What spans tiles is kept per row: its smallest
    margin and that margin's atom, whether it holds a NaN margin, whether
    it holds a non-finite value.  A row holding a NaN margin in any tile
    never sets `min_margin` (ties go to the first pair in row order); the
    blended margin, from the first tile, takes the oracle value only where
    its magnitude is strictly larger, as `max` does.
    """
    st = instance.state
    N, n_max = st.N, st.n_max
    width = n_max - N + 1
    til_min, til_arg, min_margin_o, dual_max, diag_max = np.inf, -1, np.inf, 0.0, 0.0
    min_abs, norms = np.inf, np.empty(width)   # norms[m - N] = |r_m|
    row_min = np.full(n_max - N, np.inf)       # per row n - N - 1, over the tiles so far
    row_arg = np.full(n_max - N, -1)
    nan_rows = np.zeros(n_max - N, dtype=bool)
    nonfinite = np.zeros(n_max - N, dtype=bool)
    tables = instance.oracle_tables()
    blocks = tables.blocks()
    for k0, k1 in tables.tiles:
        atoms = st.atoms[k0 - N + 1: k1 - N + 1]   # d_k0..d_k1-1
        for rows, r in _residual_blocks(st):   # rows[n - lo] = r_{n-1}
            lo, hi, pairs, tilde = next(blocks)   # zip would keep the last blocks alive
            at = slice(lo - N - 1, hi - N)
            qn = st.q[lo:hi + 1]
            ns = np.arange(max(lo, k0), min(hi + 1, k1))   # the diagonal k = n in this tile
            on_diag = (ns - lo, ns - k0)
            direct = rows @ atoms.T
            gaps = np.max(np.abs(direct - pairs), axis=1)
            if k0 == N:   # the blended atom and the norms, once
                norms[lo - 1 - N: hi - N] = np.linalg.norm(rows, axis=1)
                til_direct = rows @ st.atoms[0]
                gaps = np.maximum(gaps, np.abs(til_direct - tilde))
                t_abs = np.abs(til_direct)
                min_abs = np.minimum(min_abs, np.min(qn - t_abs))
                o_abs = np.abs(tilde)
                tmarg = (qn - np.where(o_abs > t_abs, o_abs, t_abs)) / qn
                tmarg[np.isnan(tmarg)] = np.inf
                j = int(np.argmin(tmarg))
                if tmarg[j] < til_min:
                    til_min, til_arg = tmarg[j], lo + j
            dual_max = np.maximum(dual_max, np.max(gaps))
            nonfinite[at] |= ~np.isfinite(gaps)
            diag_max = np.maximum(diag_max, np.max(np.abs(direct[on_diag] - st.q[ns]) / st.q[ns],
                                                   initial=0.0))
            # q_n - |value| in the blocks' own buffers, then divided by q_n
            margins = np.subtract(qn[:, None], np.abs(direct, out=direct), out=direct)
            omargins = np.subtract(qn[:, None], np.abs(pairs, out=pairs), out=pairs)
            margins[on_diag] = omargins[on_diag] = np.inf
            min_abs = np.minimum(min_abs, np.min(margins))
            margins /= qn[:, None]
            omargins /= qn[:, None]
            j = np.argmin(margins, axis=1)     # a row's first NaN, if it holds one
            low = margins[np.arange(len(j)), j]
            nan_rows[at] |= np.isnan(low)
            better = low < row_min[at]
            row_min[at] = np.where(better, low, row_min[at])
            row_arg[at] = np.where(better, k0 + j, row_arg[at])
            min_margin_o = np.minimum(min_margin_o, np.min(omargins))
            del direct, pairs, tilde, margins, omargins, rows   # before the next block
    norms[-1:] = np.linalg.norm(r[None], axis=1)   # r_{n_max}, in the rows' own arithmetic
    sched_err = np.max(np.abs(norms / _schedule(np.arange(N, n_max + 1), st.params.beta) - 1.0))
    row_min[nan_rows] = np.inf
    i = int(np.argmin(row_min))
    min_margin, min_pair = np.inf, (-1, -1)
    if row_min[i] < min_margin:
        min_margin, min_pair = float(row_min[i]), (N + 1 + i, int(row_arg[i]))
    first_nonfinite = N + 1 + int(np.argmax(nonfinite)) if nonfinite.any() else None

    return VerificationReport(
        n_pairs=(n_max - N) * width,
        all_strict=bool(first_nonfinite is None and min_margin > 0.0
                        and min_margin_o > 0.0 and til_min > 0.0),
        min_margin=float(min_margin), min_margin_pair=min_pair,
        min_margin_oracle=float(min_margin_o), min_abs_margin=float(min_abs),
        tilde_min_margin=float(til_min), tilde_argmin=til_arg,
        dual_max_diff=float(dual_max), diag_max_rel_err=float(diag_max),
        schedule_max_rel_err=float(sched_err),
        notes="" if first_nonfinite is None
        else f"non-finite inner product at n={first_nonfinite}")


def build_instance(phi: PhiProfile, K: int, N: int, n_max: int,
                   epsilon: float | None = None):
    """Construct, choose epsilon, finalize, verify; double K and N on failure.

    Returns (instance, verification_report).  Raises ConstructionError
    once the doubling budget is exhausted.
    """
    last_err = ConstructionError(f"N={N} leaves no room below n_max={n_max}")
    for attempt in range(_MAX_DOUBLINGS + 1):
        kk, nn = K << attempt, N << attempt
        if nn >= n_max:
            break
        params = ConstructionParams(K=kk, N=nn, n_max=n_max, epsilon=epsilon, phi=phi)
        try:
            state = init_state(params)
            advance(state)
            if params.epsilon is None:
                params.epsilon = choose_epsilon(state)
            inst = finalize(state)
            report = verify(inst)
            if not report.passed:
                raise ConstructionError(
                    f"verification failed at K={kk}, N={nn}: min margin "
                    f"{report.min_margin:.3e}, dual diff {report.dual_max_diff:.3e}")
            if attempt:
                report.notes = f"succeeded after {attempt} doubling(s): K={kk}, N={nn}"
            return inst, report
        except ConstructionError as err:
            last_err = err
    raise ConstructionError(f"construction failed after doublings: {last_err}")
