"""Worst-case dictionary construction with certified greedy selection.

Builds the residual/atom sequences whose norms follow the schedule
(n+1)^(beta - 1/2) exactly, assembles the dictionary (one blended atom
plus the planned atoms), picks the blending weight epsilon, and verifies
the strict selection inequalities |<r_{n-1}, d_k>| < q_n = <r_{n-1}, d_n>
by two independent routes:

* direct: inner products of the stored residual history against the
  stored atoms;
* oracle: the closed-form recursions driven purely by the scalar
  sequences (q, gamma, alpha, xi), the weight profile phi and epsilon --
  no vector accumulated during the construction enters this route.

Every quantity the oracle needs is reconstructed from the residual
component formula <r_m, e_j> = -q_m (xi_j + sum_{l>j}^m <h_l, e_j>).
"""

from __future__ import annotations

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
_VERIFY_BLOCK = 512  # residual rows per direct-route matmul in verify


def q_of(n, beta: float):
    """Greedy coefficient schedule: q_n^2 = n^(2b-1) - (n+1)^(2b-1).

    Evaluated in cancellation-free form; defined for every n >= 1 and in
    particular at n = K-1 where the component formulas need it.
    """
    if beta >= 0.5:
        raise ValueError("q is undefined for beta >= 1/2")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
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
    the residual history keeps r_m for m >= N (verify needs r_{n-1}, n > N).
    """

    def __init__(self, params: ConstructionParams):
        self.beta = params.beta
        self.K = params.K
        self.N = params.N
        self.n_max = params.n_max
        n_max = params.n_max
        self.q = np.zeros(n_max + 1)
        self.gamma = np.zeros(n_max + 1)
        self.alpha = np.zeros(n_max + 1)
        self.xi = np.zeros(n_max + 1)
        self.norms = np.zeros(n_max + 1)
        self.r = np.zeros(n_max)
        self.atoms = np.zeros((n_max - params.N + 2, n_max))
        self.r_hist = np.zeros((n_max - params.N + 1, n_max))
        self.n = params.K - 1

    def atom_row(self, k: int) -> np.ndarray:
        if not self.N <= k <= self.n:
            raise IndexError(f"atom {k} not stored")
        return self.atoms[k - self.N + 1]

    def residual_row(self, m: int) -> np.ndarray:
        if not self.N <= m <= self.n:
            raise IndexError(f"residual {m} not stored")
        return self.r_hist[m - self.N]


def init_state(params: ConstructionParams) -> ConstructionState:
    """Seed residual: all K-1 leading coefficients equal, norm K^(beta-1/2)."""
    st = ConstructionState(params)
    K, beta = params.K, params.beta
    st.r[: K - 1] = -(K ** (-0.5 + beta)) / np.sqrt(K - 1.0)
    st.q[K - 1] = q_of(K - 1, beta) if K >= 2 else np.nan
    st.norms[K - 1] = float(np.linalg.norm(st.r[: K - 1]))
    target = K ** (-0.5 + beta)
    if abs(st.norms[K - 1] - target) > 1e-12 * target:
        raise ConstructionError("seed residual norm off its schedule")
    return st


def step(state: ConstructionState, params: ConstructionParams,
         given: dict | None = None) -> ConstructionState:
    """Advance one index: build d_n and r_n, then assert the step conditions.

    `given` replays a stored step (keys q, gamma, alpha, xi) with the same
    vector arithmetic as the solving path; the condition assertions still
    run, so a corrupted sequence is caught here.
    """
    n = state.n + 1
    if n > state.n_max:
        raise ValueError("state already at n_max")
    beta = state.beta
    if given is None:
        qn = q_of(n, beta)
        gn = 1.0 / qn - 1.0 / state.q[n - 1]
    else:
        qn = given["q"]
        gn = given["gamma"]
    i = np.arange(1, n)
    w = params.phi(i / n) / n
    r = state.r
    s_n = float(w @ r[: n - 1])
    if given is None:
        if s_n == 0.0:
            raise ConstructionError(f"phi support misses residual at step {n}")
        an = (qn - gn * n ** (2.0 * beta - 1.0)) / s_n
    else:
        an = given["alpha"]
    v = gn * r[:n]
    v[: n - 1] += an * w
    nv2 = float(v @ v)
    if given is None:
        if nv2 > 1.0:
            raise ConstructionError(f"xi imaginary at step {n} -- increase K")
        xin = float(np.sqrt(1.0 - nv2))
    else:
        xin = given["xi"]
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
        state.residual_row(n)[:n] = r[:n]
    return state


def advance(state: ConstructionState, params: ConstructionParams,
            to_n: int | None = None,
            given_rows: dict | None = None) -> ConstructionState:
    """Run steps up to `to_n` (default n_max)."""
    stop = state.n_max if to_n is None else to_n
    while state.n < stop:
        g = None
        if given_rows is not None:
            m = state.n + 1
            g = {key: given_rows[key][m] for key in ("q", "gamma", "alpha", "xi")}
        step(state, params, given=g)
    return state


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
    hist = state.r_hist[: n_max - N]          # rows r_{n-1}, n = N+1..n_max
    u = hist @ (state.r_hist[0] / r_n_norm)   # against r_N / |r_N|
    w = hist @ state.atom_row(N)              # against d_N
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
    d_tilde: CoeffVector
    dictionary: Dictionary
    variation_bound: float
    state: ConstructionState = field(repr=False)
    _tables: "OracleTables | None" = field(default=None, repr=False)

    @property
    def planned_labels(self) -> list[str]:
        return [f"d{n}" for n in range(self.params.N + 1, self.params.n_max + 1)]

    def oracle_tables(self) -> "OracleTables":
        if self._tables is None:
            self._tables = OracleTables(self.state, self.params.phi,
                                        self.params.epsilon)
        return self._tables


def finalize(state: ConstructionState, params: ConstructionParams) -> AdversarialInstance:
    """Assemble f = r_N, the blended atom (row 0 of the store), and the dictionary."""
    if state.n != state.n_max:
        raise ValueError("advance the construction to n_max before finalizing")
    if params.epsilon is None:
        raise ValueError("epsilon not chosen")
    eps = params.epsilon
    N = state.N
    r_n = state.residual_row(N)[:N]
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
        params=params, f=CoeffVector(r_n), d_tilde=dictionary.atoms[0],
        dictionary=dictionary, variation_bound=float(variation), state=state)


class OracleTables:
    """Closed-form inner products from scalar sequences alone.

    Reconstructs residual components via the component formula, atom
    components from the inductive definition, and then serves
    <r_{n-1}, d_k> for a block of steps n at once (`rows`) through the
    forward recursion (k < n), the base equality (k = n) and the two-term
    recursion (k > n) in scan form; `pair_value` and `tilde_pair_value`
    follow the recursions literally, one pair at a time.  Nothing here
    reads the construction's stored vectors.
    """

    def __init__(self, state: ConstructionState, phi: PhiProfile, epsilon: float):
        self.beta = state.beta
        self.K, self.N, self.n_max = state.K, state.N, state.n_max
        self.q = state.q.copy()
        self.gamma = state.gamma.copy()
        self.alpha = state.alpha.copy()
        self.xi = state.xi.copy()
        self.epsilon = epsilon
        self._phi = phi
        self._build()

    # -- formula-level pieces -------------------------------------------

    def h_row(self, l: int) -> np.ndarray:
        """Components of the correction vector h_l (length l-1)."""
        i = np.arange(1, l)
        return (self.alpha[l] / l) * self._phi(i / l)

    def _build(self):
        K, N, n_max = self.K, self.N, self.n_max
        beta = self.beta
        q, gamma, xi = self.q, self.gamma, self.xi

        # residual components r_hat[m, j] for m in [N-1, n_max-1] via the
        # cumulative component formula; b_j covers the seed block j < K
        b = np.empty(n_max)
        b[: K - 1] = K ** (-0.5 + beta) / (q[K - 1] * np.sqrt(K - 1.0))
        b[K - 1:] = xi[K:n_max + 1]
        h_all = np.zeros((n_max - K + 1, n_max))
        for l in range(K, n_max + 1):
            h_all[l - K, : l - 1] = self.h_row(l)
        run = np.zeros(n_max)
        rhat = np.zeros((n_max - N + 1, n_max))  # rows m = N-1 .. n_max-1
        if N == K:  # seed row r_{K-1} has an empty correction sum
            rhat[0, : K - 1] = -(q[K - 1]) * b[: K - 1]
        for m in range(K, n_max):
            run[: m - 1] += h_all[m - K, : m - 1]
            if m >= N - 1:
                rhat[m - (N - 1), :m] = -(q[m]) * (b[:m] + run[:m])
        self.rhat = rhat
        self.rn_norm = float(_schedule(N, beta))

        # atom components d_hat[k] = gamma_k r_hat[k-1] + h_k + xi_k e_k
        dhat = np.zeros((n_max - N + 1, n_max))
        for k in range(N, n_max + 1):
            row = dhat[k - N]
            row[: k - 1] = self.gamma[k] * rhat[k - 1 - (N - 1), : k - 1]
            row[: k - 1] += h_all[k - K, : k - 1]
            row[k - 1] = xi[k]
        self.dhat = dhat

        til = (self.epsilon * rhat[1] / self.rn_norm
               + np.sqrt(1.0 - self.epsilon ** 2) * dhat[0])
        self.dtil_hat = til[:N].copy()

        # k < n: cumulative sums over i = N+1..m of <h_i, d_hat_k>, row m - N;
        # row 0 (m = N) is the empty sum
        self.cw = cw = np.zeros((n_max - N, n_max - N + 1))   # cw[m-N, k-N]
        np.matmul(h_all[N + 1 - K: n_max - K], dhat.T, out=cw[1:])
        np.cumsum(cw[1:], axis=0, out=cw[1:])

        # blended-atom sums
        wtil = h_all[N + 1 - K: n_max - K, :N] @ self.dtil_hat
        self.ct = np.concatenate([[0.0], np.cumsum(wtil)])  # ct[m-N]

        # k > n: scan representation of the two-term recursion.  Dividing
        # the recursion value(k) = A_k value(k-1) + g(k) by the running
        # product P_k = prod A_j turns it into a cumulative sum.
        rh = rhat[1:] @ h_all[N + 1 - K:].T   # rows m = N..n_max-1, cols k = N+1..n_max
        karr = np.arange(N + 1, n_max + 1)
        a_fac = (1.0 / gamma[karr - 1] - q[karr - 1]) * gamma[karr]
        p = np.empty(n_max - N)                # p[k-(N+1)], base p[N+1] = 1
        p[0] = 1.0
        p[1:] = np.cumprod(a_fac[1:])
        self.p = p
        ratio = gamma[karr[1:]] / gamma[karr[1:] - 1]
        g2 = (rh[:, 1:] - ratio * rh[:, :-1]) / p[1:]
        cg = np.zeros((n_max - N, n_max - N))  # rows n = N+1..n_max, cols k = N+1..n_max
        np.cumsum(g2, axis=1, out=cg[:, 1:])
        self.cg = cg
        del h_all, rh

    # -- assembled blocks --------------------------------------------------

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(pairs, tilde) for the steps n = lo..hi, one row per n.

        pairs[n - lo, k - N] = <r_{n-1}, d_k> for k = N..n_max, each entry by
        the formula of its case (k < n, k = n, k > n); tilde[n - lo] is
        <r_{n-1}, d_tilde>.
        """
        N, n_max, q, p = self.N, self.n_max, self.q, self.p
        if not N < lo <= hi <= n_max:
            raise IndexError("n out of range")
        ns = np.arange(lo, hi + 1)
        below, above = hi - N, lo - N   # k < hi covers every k < n here, k > lo every k > n
        pairs = np.empty((hi - lo + 1, n_max - N + 1))
        pairs[:, :below] = -(q[ns - 1])[:, None] * (self.cw[lo - 1 - N: hi - N, :below]
                                                    - np.diagonal(self.cw)[:below])
        cg = self.cg[lo - (N + 1): hi - N]    # rows n, cols k = N+1..n_max
        upper = p[above:] * ((q[ns] / p[ns - (N + 1)])[:, None] + cg[:, above:]
                             - cg[ns - lo, ns - (N + 1)][:, None])
        np.copyto(pairs[:, above + 1:], upper, where=ns[:, None] < np.arange(lo + 1, n_max + 1))
        pairs[ns - lo, ns - N] = q[ns]
        tilde = -(q[ns - 1]) * (self.ct[ns - 1 - N]
                                - self.epsilon * self.rn_norm / q[N])
        return pairs, tilde

    def pair_value(self, n: int, k: int) -> float:
        """Per-pair recursion, following the inductive formulas literally."""
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
        """Per-pair recursion for the blended atom."""
        N = self.N
        if not N < n <= self.n_max:
            raise IndexError("n out of range")
        acc = 0.0
        for i in range(N + 1, n):
            acc += float(self.h_row(i)[:N] @ self.dtil_hat)
        return -float(self.q[n - 1]) * (acc - self.epsilon * self.rn_norm / self.q[N])


@dataclass
class VerificationReport:
    """Outcome of the dual-path selection-inequality check."""

    n_pairs: int
    all_strict: bool
    min_margin: float
    min_margin_pair: tuple[int, int]
    min_margin_oracle: float
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
                and self.diag_max_rel_err <= DIAG_RTOL
                and self.schedule_max_rel_err <= CONDITION_RTOL)

    def to_text(self) -> str:
        lines = [
            f"pairs={self.n_pairs}",
            f"all_strict={'true' if self.all_strict else 'false'}",
            f"min_margin={self.min_margin:.12g}",
            f"min_margin_pair={self.min_margin_pair[0]},{self.min_margin_pair[1]}",
            f"min_margin_oracle={self.min_margin_oracle:.12g}",
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
    (n, k), k != n, the blended-atom margins, the worst oracle/direct
    disagreement, the diagonal equality error, and the norm-schedule
    deviation over the whole residual history; a non-finite direct or
    oracle value fails the check and the notes name its first n.

    Each block of `_VERIFY_BLOCK` steps is reduced by whole-array
    operations.  A row holding a NaN margin never sets `min_margin` (ties go
    to the first pair in row order); the blended margin takes the oracle
    value only where its magnitude is strictly larger, as `max` does.
    """
    st = instance.state
    N, n_max = st.N, st.n_max
    width = n_max - N + 1
    tables = instance.oracle_tables()
    min_margin, min_pair, til_min, til_arg = np.inf, (-1, -1), np.inf, -1
    min_margin_o, dual_max, diag_max, first_nonfinite = np.inf, 0.0, 0.0, None
    for lo in range(N + 1, n_max + 1, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK - 1, n_max)
        ns = np.arange(lo, hi + 1)
        on_diag = (ns - lo, ns - N)
        qn = st.q[ns]
        rows = st.r_hist[lo - 1 - N: hi - N]   # r_{n-1} for n in [lo, hi]
        direct = rows @ st.atoms[1:].T          # against d_N..d_n_max
        til_direct = rows @ st.atoms[0]         # against the blended atom
        pairs, tilde = tables.rows(lo, hi)
        gaps = np.maximum(np.max(np.abs(direct - pairs), axis=1),
                          np.abs(til_direct - tilde))
        dual_max = np.maximum(dual_max, np.max(gaps))
        if first_nonfinite is None and not np.all(np.isfinite(gaps)):
            first_nonfinite = lo + int(np.argmin(np.isfinite(gaps)))
        diag_max = np.maximum(diag_max, np.max(np.abs(direct[on_diag] - qn) / qn))
        margins, omargins = np.abs(direct), np.abs(pairs)
        for m in (margins, omargins):        # (q_n - |value|) / q_n, in place
            np.divide(np.subtract(qn[:, None], m, out=m), qn[:, None], out=m)
            m[on_diag] = np.inf
        margins[np.isnan(margins).any(axis=1)] = np.inf
        j = int(np.argmin(margins))
        if margins.flat[j] < min_margin:
            min_margin, min_pair = float(margins.flat[j]), (lo + j // width, N + j % width)
        min_margin_o = np.minimum(min_margin_o, np.min(omargins))
        t_abs, o_abs = np.abs(til_direct), np.abs(tilde)
        tmarg = (qn - np.where(o_abs > t_abs, o_abs, t_abs)) / qn
        tmarg[np.isnan(tmarg)] = np.inf
        j = int(np.argmin(tmarg))
        if tmarg[j] < til_min:
            til_min, til_arg = tmarg[j], lo + j
    sched = _schedule(np.arange(N, n_max + 1), st.beta)
    hist_norms = np.linalg.norm(st.r_hist, axis=1)
    sched_err = float(np.max(np.abs(hist_norms / sched - 1.0)))

    return VerificationReport(
        n_pairs=(n_max - N) * width,
        all_strict=bool(first_nonfinite is None and min_margin > 0.0
                        and min_margin_o > 0.0 and til_min > 0.0),
        min_margin=float(min_margin), min_margin_pair=min_pair,
        min_margin_oracle=float(min_margin_o),
        tilde_min_margin=float(til_min), tilde_argmin=til_arg,
        dual_max_diff=float(dual_max), diag_max_rel_err=float(diag_max),
        schedule_max_rel_err=sched_err,
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
