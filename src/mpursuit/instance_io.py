"""Self-contained instance files: parameters, phi grid, scalar sequences.

Atoms and residuals are deliberately not stored; the file carries exactly
the data that determines them (q, gamma, alpha, xi per step plus the phi
grid), and loading replays the construction through the same vector
arithmetic as the builder.  Given identical float64 evaluation order the
reconstruction is bit-exact, and a corrupted sequence is caught by the
step-condition assertions during the replay.  The file must hold exactly
one sequence row per step n in [K-1, n_max], with the seed row's gamma,
alpha and xi zero as the writer leaves them.
"""

from __future__ import annotations

import math

import numpy as np

from .adversarial import (CONDITION_RTOL, AdversarialInstance, ConstructionParams,
                          advance, finalize, init_state)
from .errors import ConstructionError, InstanceFormatError, key_values
from .grid_functions import GridFunction
from .phi_builder import PhiProfile

__all__ = ["instance_to_text", "save_instance", "load_instance"]

_FORMAT = "mpursuit-instance-v1"


def instance_to_text(instance: AdversarialInstance) -> str:
    p = instance.params
    st = instance.state
    prof = p.phi
    lines = [
        f"# {_FORMAT}",
        f"beta={p.beta:.17g}",
        f"K={p.K}",
        f"N={p.N}",
        f"n_max={p.n_max}",
        f"epsilon={p.epsilon:.17g}",
        f"t={prof.t:.17g}",
        f"tau={prof.tau:.17g}",
        f"c_t={prof.c_t:.17g}",
        f"delta={prof.delta:.17g}",
        f"grid_m={prof.phi.m}",
        "[phi]",
    ]
    lines.append(prof.phi.to_csv().rstrip("\n"))
    lines.append("[sequences]")
    lines.append("n,q,gamma,alpha,xi")
    for n in range(p.K - 1, p.n_max + 1):
        lines.append(f"{n},{st.q[n]:.17g},{st.gamma[n]:.17g},"
                     f"{st.alpha[n]:.17g},{st.xi[n]:.17g}")
    return "\n".join(lines) + "\n"


def save_instance(instance: AdversarialInstance, path: str, header: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + instance_to_text(instance))


def _header_value(scalars: dict, key: str, typ):
    if key not in scalars:
        raise InstanceFormatError(f"instance header is missing {key}=")
    try:
        return typ(scalars[key])
    except ValueError:
        raise InstanceFormatError(f"instance header {key}={scalars[key]!r} "
                                  f"is not a valid {typ.__name__}") from None


def load_instance(path: str) -> AdversarialInstance:
    """Parse an instance file and replay the construction it describes.

    A malformed file raises InstanceFormatError, and so does a header
    with a line that is not key=value, a header that repeats a key, or one
    whose t, tau, c_t and delta are not finite
    with 0 < t < tau < 1, c_t > 0 and delta = tau - 2t exactly; a replay
    whose step conditions fail raises ConstructionError naming the step.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head: list[str] = []
    phi_lines: list[str] = []
    seq_rows: list[tuple[int, float, float, float, float]] = []
    section = "head"
    for raw in text.splitlines():
        line = raw.strip()
        if line in ("[phi]", "[sequences]"):
            section = line
        elif not line:
            continue
        elif section == "head":
            if not line.startswith("#"):
                head.append(line)
        elif section == "[phi]":
            phi_lines.append(line)
        elif not line.startswith("n,"):
            try:
                n, qv, gv, av, xv = line.split(",")
                seq_rows.append((int(n), float(qv), float(gv), float(av), float(xv)))
            except ValueError:
                raise InstanceFormatError(f"malformed sequence row {line!r}") from None
    scalars = key_values(head, "instance header", InstanceFormatError)

    beta = _header_value(scalars, "beta", float)
    k_par = _header_value(scalars, "K", int)
    n_par = _header_value(scalars, "N", int)
    n_max = _header_value(scalars, "n_max", int)
    epsilon = _header_value(scalars, "epsilon", float)
    phi_grid = GridFunction.from_csv("\n".join(phi_lines))
    if _header_value(scalars, "grid_m", int) != phi_grid.m:
        raise InstanceFormatError(f"instance header grid_m={scalars['grid_m']} does "
                                  f"not match the {phi_grid.m} nodes of [phi]")
    t, tau, c_t, delta = (_header_value(scalars, key, float)
                          for key in ("t", "tau", "c_t", "delta"))
    for key, val in (("t", t), ("tau", tau), ("c_t", c_t), ("delta", delta)):
        if not math.isfinite(val):
            raise InstanceFormatError(f"instance header {key}={val!r} is not finite")
    if not (0.0 < t < tau < 1.0 and c_t > 0.0):
        raise InstanceFormatError(f"instance header needs 0 < t < tau < 1 and c_t > 0, "
                                  f"not t={t!r}, tau={tau!r}, c_t={c_t!r}")
    profile = PhiProfile(phi=phi_grid, t=t, c_t=c_t, beta=beta, tau=tau)
    if delta != profile.delta:  # the writer's %.17g round-trips it
        raise InstanceFormatError(f"instance header delta={delta!r} is not "
                                  f"tau - 2t = {profile.delta!r}")
    params = ConstructionParams(K=k_par, N=n_par, n_max=n_max, epsilon=epsilon,
                                phi=profile)

    # check the rows against [K-1, n_max] before anything sized by n_max exists
    seed = k_par - 1
    seq_rows.sort(key=lambda row: row[0])
    for want, (n, *_) in enumerate(seq_rows, start=seed):
        if not seed <= n <= n_max:
            raise InstanceFormatError(f"sequence row {n} outside [K-1, n_max] = "
                                      f"[{seed}, {n_max}]")
        if n < want:
            raise InstanceFormatError(f"sequence row {n} appears twice")
        if n > want:
            raise InstanceFormatError(f"sequence row {want} is missing")
    if len(seq_rows) < n_max - seed + 1:
        raise InstanceFormatError(f"sequence row {seed + len(seq_rows)} is missing")
    table = np.zeros((4, n_max + 1))
    table[:, seed:] = np.array([vals for _, *vals in seq_rows]).T
    # replay reads only the seed row's q; the writer leaves the rest zero
    if not np.all(table[1:, seed] == 0.0):
        raise InstanceFormatError(f"seed row {seed} must have gamma, alpha and xi 0")

    state = init_state(params)
    # no step condition reads the seed row's q, so check it against q_of here
    seed_q, want = float(table[0, seed]), float(state.q[seed])
    if not abs(seed_q - want) <= CONDITION_RTOL * want:
        raise ConstructionError(f"step {seed} seed q={seed_q!r} vs schedule {want!r}")
    state.q[seed] = seed_q
    advance(state, given_rows=table)
    return finalize(state)
