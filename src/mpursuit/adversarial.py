"""Worst-case dictionary construction with certified greedy selection.

Builds the residual/atom sequences whose norms follow the schedule
(n+1)^(beta - 1/2) exactly, assembles the dictionary (one blended atom
plus the planned atoms), picks the blending weight epsilon, and verifies
the strict selection inequalities |<r_{n-1}, d_k>| < q_n = <r_{n-1}, d_n>
by two independent routes:

* direct: inner products of the residuals, walked forward from the one
  stored residual r_N, against the stored atoms;
* oracle: the closed-form recursions driven purely by the scalar
  sequences (q, gamma, alpha, xi), the weight profile phi and epsilon --
  no vector accumulated during the construction enters this route.

Every quantity the oracle needs is reconstructed from the residual
component formula <r_m, e_j> = -q_m (xi_j + sum_{l>j}^m <h_l, e_j>).
`OracleTables` keeps two dense reconstructions, the correction vectors
and the atom components, and streams the rest in one forward walk over
blocks of steps, from running sums and the block's residual components,
which a running correction sum regenerates; `verify` folds each block as
the walk yields it and drops the tables when the walk ends.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError
from .greedy_algorithms import Dictionary
from .linear_core import CoeffVector
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
_H_BLOCK = 32        # correction vectors per phi evaluation in OracleTables


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
    """Fundamental parameters: beta plus (K, N, n_max, epsilon, phi)."""

    beta: float
    K: int
    N: int
    n_max: int
    epsilon: float | None
    phi: PhiProfile

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
    the only atom store: row 0 the blended atom, then d_N..d_n, zero-padded;
    `r_hist` (a name the benchmark's tracer reads) is one row, r_N.
    """

    def __init__(self, params: ConstructionParams):
        self.beta = params.beta
        self.K = params.K
        self.N = params.N
        self.n_max = n_max = params.n_max
        self.q = np.zeros(n_max + 1)
        self.gamma = np.zeros(n_max + 1)
        self.alpha = np.zeros(n_max + 1)
        self.xi = np.zeros(n_max + 1)
        self.norms = np.zeros(n_max + 1)
        self.r = np.zeros(n_max)
        self.atoms = np.zeros((n_max - params.N + 2, n_max))
        self.r_hist = np.zeros((1, n_max))
        self.n = params.K - 1

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


def step(state: ConstructionState, params: ConstructionParams,
         given: np.ndarray | None = None) -> ConstructionState:
    """Advance one index: build d_n and r_n, then assert the step conditions.

    `given` replays a stored step, its (q, gamma, alpha, xi), with the same
    vector arithmetic as the solving path; the condition assertions still
    run, so a corrupted sequence is caught here.
    """
    n = state.n + 1
    if n > state.n_max:
        raise ValueError("state already at n_max")
    beta = state.beta
    i = np.arange(1, n)
    w = params.phi(i / n) / n
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


def advance(state: ConstructionState, params: ConstructionParams,
            given_rows: np.ndarray | None = None) -> ConstructionState:
    """Run steps up to n_max; column n of `given_rows`, a (4, n_max + 1)
    table of q, gamma, alpha and xi, replays step n."""
    while state.n < state.n_max:
        given = None if given_rows is None else given_rows[:, state.n + 1]
        step(state, params, given=given)
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


def choose_epsilon(state: ConstructionState, params: ConstructionParams) -> float:
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
    """Finished construction: target, dictionary, and the state behind them."""

    params: ConstructionParams
    f: CoeffVector
    dictionary: Dictionary
    variation_bound: float
    state: ConstructionState = field(repr=False)

    def oracle_tables(self) -> "OracleTables":  # fresh tables on every call
        return OracleTables(self.state, self.params.phi, self.params.epsilon)


def finalize(state: ConstructionState, params: ConstructionParams) -> AdversarialInstance:
    """Assemble f = r_N, the blended atom (row 0 of the store), and the dictionary."""
    if state.n != state.n_max:
        raise ValueError("advance the construction to n_max before finalizing")
    if params.epsilon is None:
        raise ValueError("epsilon not chosen")
    eps = params.epsilon
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
    variation = (r_n_norm / eps) * (1.0 + np.sqrt(1.0 - eps * eps))
    return AdversarialInstance(
        params=params, f=CoeffVector(r_n.copy()), dictionary=dictionary,
        variation_bound=float(variation), state=state)


def _h_rows(alpha: np.ndarray, phi: PhiProfile, ls: np.ndarray) -> np.ndarray:
    """Correction vectors h_l = (alpha_l / l) phi(i / l), i = 1..l-1, for the
    consecutive l in ls: one row each, zero from column l - 1 on, from one
    phi evaluation."""
    i = np.arange(1, ls[-1])
    inside = i < ls[:, None]
    x = np.where(inside, i / ls[:, None], 0.0)
    return np.where(inside, (alpha[ls] / ls)[:, None] * phi(x), 0.0)


def _residual_components(state: ConstructionState,
                         phi: PhiProfile) -> tuple[np.ndarray, np.ndarray]:
    """(h, b) from the scalar sequences and phi alone.

    h[l - K] is the correction vector h_l for l = K..n_max; b holds the
    base components of the component formula, b_j = xi_{j+1} past the seed
    block j < K.  `_residual_rows` turns them into residual components.
    """
    K, n_max, beta = state.K, state.n_max, state.beta
    q, xi = state.q, state.xi
    b = np.empty(n_max)
    b[: K - 1] = K ** (-0.5 + beta) / (q[K - 1] * np.sqrt(K - 1.0))
    b[K - 1:] = xi[K:n_max + 1]
    h = np.zeros((n_max - K + 1, n_max))
    for l0 in range(K, n_max + 1, _H_BLOCK):
        ls = np.arange(l0, min(l0 + _H_BLOCK, n_max + 1))
        h[ls - K, : ls[-1] - 1] = _h_rows(state.alpha, phi, ls)
    return h, b


def _residual_rows(q: np.ndarray, b: np.ndarray, h: np.ndarray, K: int,
                   N: int) -> Iterator[np.ndarray]:
    """Yield the residual components <r_m, e_j>, j = 1..m, for m = N-1, N, ...,
    n_max-1 in turn, by the cumulative component formula
    r_m = -q_m (b + sum_{l=K}^m h_l) over one running correction sum."""
    run = np.zeros(len(b))
    if N == K:  # seed row r_{K-1} has an empty correction sum
        yield -(q[K - 1]) * b[: K - 1]
    for m in range(K, len(b)):
        run[: m - 1] += h[m - K, : m - 1]
        if m >= N - 1:
            yield -(q[m]) * (b[:m] + run[:m])


class OracleTables:
    """Closed-form inner products from scalar sequences alone.

    Keeps two dense arrays, the correction vectors `h` (`_residual_components`)
    and the atom components `dhat`, built in one forward pass over the
    residual components by the inductive definition.  `blocks` walks the
    steps n upward in blocks of `_VERIFY_BLOCK` steps and yields
    <r_{n-1}, d_k> for each block at once:

    * k < n: the forward sums C_m = C_{m-1} + (<h_m, d_hat_k>)_k, carried as
      one running row and its diagonal C_k[k], one product `h @ dhat.T`
      per block;
    * k > n: the scan form of the two-term recursion, each block's rows from
      that block's residual rows, which the running correction sum of
      `_residual_rows` regenerates;
    * k = n: the base equality; the blended atom: the vector `ct`.

    Each walk starts afresh at N+1 from running state of its own, so every
    walk of the same tables yields the same bits.  Nothing here reads the
    construction's stored vectors.
    """

    def __init__(self, state: ConstructionState, phi: PhiProfile, epsilon: float):
        K, N, n_max = state.K, state.N, state.n_max
        gamma, xi = state.gamma, state.xi
        self.K, self.N, self.n_max, self.epsilon = K, N, n_max, epsilon
        self.q = q = state.q.copy()
        self.rn_norm = float(_schedule(N, state.beta))
        self.h, self.b = h, b = _residual_components(state, phi)

        # atom components d_hat[k] = gamma_k r_hat[k-1] + h_k + xi_k e_k
        self.dhat = dhat = np.zeros((n_max - N + 1, n_max))
        walk = _residual_rows(q, b, h, K, N)
        for k in range(N, n_max + 1):
            rrow = next(walk)                 # r_hat[k-1]
            if k == N + 1:
                r_n = rrow
            row = dhat[k - N]
            row[: k - 1] = gamma[k] * rrow[: k - 1]
            row[: k - 1] += h[k - K, : k - 1]
            row[k - 1] = xi[k]
        dtil = epsilon * r_n / self.rn_norm + np.sqrt(1.0 - epsilon ** 2) * dhat[0, :N]

        # blended-atom sums
        wtil = h[N + 1 - K: n_max - K, :N] @ dtil
        self.ct = np.concatenate([[0.0], np.cumsum(wtil)])  # ct[m-N]

        # k > n: dividing the recursion value(k) = A_k value(k-1) + g(k) by
        # the running product P_k = prod A_j turns it into a cumulative sum
        karr = np.arange(N + 1, n_max + 1)
        a_fac = (1.0 / gamma[karr - 1] - q[karr - 1]) * gamma[karr]
        p = np.empty(n_max - N)                # p[k-(N+1)], base p[N+1] = 1
        p[0] = 1.0
        p[1:] = np.cumprod(a_fac[1:])
        self.p = p
        self.ratio = gamma[karr[1:]] / gamma[karr[1:] - 1]

    def blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (lo, hi, pairs, tilde) for each block of `_VERIFY_BLOCK` steps
        n = lo..hi, from n = N+1 up to n_max: pairs[n - lo, k - N] is
        <r_{n-1}, d_k>, k = N..n_max, by the formula of its case (k < n, k = n,
        k > n), and tilde[n - lo] is <r_{n-1}, dt_N> for the blended atom dt_N.
        The caller owns both.
        """
        K, N, n_max, q, p, h = self.K, self.N, self.n_max, self.q, self.p, self.h
        block = _VERIFY_BLOCK
        walk = _residual_rows(q, self.b, h, K, N)
        next(walk)                              # r_hat[N-1] only shapes d_hat[N]
        cw_run = np.zeros(n_max - N + 1)        # C_{lo-1}, C_N the empty sum
        cw_diag = np.zeros(n_max - N + 1)       # C_k[k-N], k < lo
        for lo in range(N + 1, n_max + 1, block):
            hi = min(lo + block - 1, n_max)
            ns = np.arange(lo, hi + 1)
            below, above = hi - N, lo - N   # k < hi covers every k < n here, k > lo every k > n
            pairs = np.empty((hi - lo + 1, n_max - N + 1))

            # k < n: rows C_{lo-1}..C_top of the forward sums (C_{n_max} is never
            # read), over the rows' live prefix: h_i, i <= top, is zero from
            # column top on, r_hat[m], m < hi, from column hi - 1 on.
            top = min(hi, n_max - 1)
            cw = np.empty((top - lo + 2, n_max - N + 1))
            cw[0] = cw_run
            np.matmul(h[lo - K: top + 1 - K, :top], self.dhat[:, :top].T, out=cw[1:])
            np.cumsum(cw, axis=0, out=cw)
            m = np.arange(lo - 1, top + 1)
            cw_diag[m - N] = cw[m - (lo - 1), m - N]
            cw_run = cw[-1].copy()
            pairs[:, :below] = -(q[ns - 1])[:, None] * (cw[: hi - lo + 1, :below]
                                                        - cw_diag[:below])
            del cw

            # k > n: residual rows r_hat[n-1] against h_k, k = N+1..n_max
            rhat = np.zeros((hi - lo + 1, hi - 1))
            for row, rrow in zip(rhat, walk):
                row[: len(rrow)] = rrow
            rh = rhat @ h[N + 1 - K:, : hi - 1].T
            del rhat, row, rrow
            cg = np.zeros((hi - lo + 1, n_max - N))  # cols k = N+1..n_max
            g2 = cg[:, 1:]                           # (rh_k - ratio_k rh_{k-1}) / p_k
            np.multiply(self.ratio, rh[:, :-1], out=g2)
            np.subtract(rh[:, 1:], g2, out=g2)
            np.divide(g2, p[1:], out=g2)
            del rh
            np.cumsum(g2, axis=1, out=g2)
            upper = p[above:] * ((q[ns] / p[ns - (N + 1)])[:, None] + cg[:, above:]
                                 - cg[ns - lo, ns - (N + 1)][:, None])
            np.copyto(pairs[:, above + 1:], upper,
                      where=ns[:, None] < np.arange(lo + 1, n_max + 1))
            del cg, g2, upper
            pairs[ns - lo, ns - N] = q[ns]
            tilde = -(q[ns - 1]) * (self.ct[ns - 1 - N] - self.epsilon * self.rn_norm / q[N])
            yield lo, hi, pairs, tilde
            del pairs, tilde   # a generator's locals outlive the yield


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

    One walk of fresh oracle tables and one of the residuals from r_N yield
    the blocks of steps in lockstep, each reduced by whole-array operations;
    the tables live only while verify runs.  A row holding a NaN margin never
    sets `min_margin` (ties go to the first pair in row order); the blended
    margin takes the oracle value only where its magnitude is strictly
    larger, as `max` does.
    """
    st = instance.state
    N, n_max = st.N, st.n_max
    width = n_max - N + 1
    min_margin, min_pair, til_min, til_arg = np.inf, (-1, -1), np.inf, -1
    min_margin_o, dual_max, diag_max, first_nonfinite = np.inf, 0.0, 0.0, None
    min_abs, norms = np.inf, np.empty(width)   # norms[m - N] = |r_m|
    blocks = instance.oracle_tables().blocks()
    for rows, r in _residual_blocks(st):   # rows[n - lo] = r_{n-1}
        lo, hi, pairs, tilde = next(blocks)   # zip would keep the last blocks alive
        ns = np.arange(lo, hi + 1)
        on_diag = (ns - lo, ns - N)
        qn = st.q[ns]
        norms[lo - 1 - N: hi - N] = np.linalg.norm(rows, axis=1)
        direct = rows @ st.atoms[1:].T          # against d_N..d_n_max
        til_direct = rows @ st.atoms[0]         # against the blended atom
        gaps = np.maximum(np.max(np.abs(direct - pairs), axis=1),
                          np.abs(til_direct - tilde))
        dual_max = np.maximum(dual_max, np.max(gaps))
        if first_nonfinite is None and not np.all(np.isfinite(gaps)):
            first_nonfinite = lo + int(np.argmin(np.isfinite(gaps)))
        diag_max = np.maximum(diag_max, np.max(np.abs(direct[on_diag] - qn) / qn))
        t_abs = np.abs(til_direct)
        min_abs = np.minimum(min_abs, np.min(qn - t_abs))
        # q_n - |value| in the blocks' own buffers, then divided by q_n
        margins = np.subtract(qn[:, None], np.abs(direct, out=direct), out=direct)
        omargins = np.subtract(qn[:, None], np.abs(pairs, out=pairs), out=pairs)
        margins[on_diag] = omargins[on_diag] = np.inf
        min_abs = np.minimum(min_abs, np.min(margins))
        margins /= qn[:, None]
        omargins /= qn[:, None]
        margins[np.isnan(margins).any(axis=1)] = np.inf
        j = int(np.argmin(margins))
        if margins.flat[j] < min_margin:
            min_margin, min_pair = float(margins.flat[j]), (lo + j // width, N + j % width)
        min_margin_o = np.minimum(min_margin_o, np.min(omargins))
        o_abs = np.abs(tilde)
        tmarg = (qn - np.where(o_abs > t_abs, o_abs, t_abs)) / qn
        tmarg[np.isnan(tmarg)] = np.inf
        j = int(np.argmin(tmarg))
        if tmarg[j] < til_min:
            til_min, til_arg = tmarg[j], lo + j
        del direct, pairs, tilde, margins, omargins, rows   # before the next block
    norms[-1:] = np.linalg.norm(r[None], axis=1)   # r_{n_max}, in the rows' own arithmetic
    sched_err = np.max(np.abs(norms / _schedule(np.arange(N, n_max + 1), st.beta) - 1.0))

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


def build_instance(phi: PhiProfile, K: int = 200, N: int = 400,
                   n_max: int = 5000, epsilon: float | None = None,
                   max_doublings: int = 4):
    """Construct, choose epsilon, finalize, verify; double K and N on failure.

    Returns (instance, verification_report).  Raises ConstructionError
    once the doubling budget is exhausted.
    """
    last_err = ConstructionError(f"N={N} leaves no room below n_max={n_max}")
    for attempt in range(max_doublings + 1):
        kk, nn = K << attempt, N << attempt
        if nn >= n_max:
            break
        params = ConstructionParams(beta=phi.beta, K=kk, N=nn, n_max=n_max,
                                    epsilon=epsilon, phi=phi)
        try:
            state = init_state(params)
            advance(state, params)
            if params.epsilon is None:
                params.epsilon = choose_epsilon(state, params)
            inst = finalize(state, params)
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
