"""Output checks for the benchmark's workloads.

Every check takes file texts and returns a list of problems; an empty
list means the output passed.  A timed call whose check finds a problem
counts as failed.  The first two lines of every mpursuit output file
(``# mpursuit ...`` and ``# config: ...``) echo the output paths, so
comparisons between runs skip them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HEADER_LINES = 2


def body(text: str) -> str:
    """The file without its two header lines."""
    return "".join(text.splitlines(keepends=True)[HEADER_LINES:])


def key_values(text: str, prefix: str = "") -> dict[str, str]:
    """`key=value` lines (optionally only keys under `prefix`, prefix removed)."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, val = line.partition("=")
        if key.startswith(prefix):
            out[key[len(prefix):]] = val
    return out


def instance_params(text: str) -> dict[str, float]:
    """beta, N and n_max from an instance file."""
    kv = key_values(text.partition("[phi]")[0])
    return {"beta": float(kv["beta"]), "N": int(kv["N"]), "n_max": int(kv["n_max"])}


def check_build(report_text: str) -> list[str]:
    kv = key_values(report_text, "verification.")
    if kv.get("passed") != "true":
        return [f"build report: verification.passed={kv.get('passed')}"]
    return []


def trace_rows(trace_text: str) -> list[list[str]]:
    rows = []
    for line in trace_text.splitlines():
        if line and not line.startswith("#") and not line.startswith("n,"):
            rows.append(line.split(","))
    return rows


def check_pga_trace(trace_text: str, beta: float, big_n: int, n_max: int) -> list[str]:
    """Planned atoms d_{N+1}..d_{n_max}, sign +1, norms on (n+1)^(beta-1/2)."""
    rows = trace_rows(trace_text)
    if len(rows) != n_max - big_n:
        return [f"pga trace: {len(rows)} rows, expected {n_max - big_n}"]
    for i, (n_s, rn, atom, sign, _) in enumerate(rows):
        n = big_n + i + 1
        if atom != f"d{n}" or sign != "1":
            return [f"pga trace: step {n_s} chose {sign}*{atom}, planned +1*d{n}"]
        target = (n + 1.0) ** (beta - 0.5)
        if not abs(float(rn) / target - 1.0) <= 1e-8:
            return [f"pga trace: step {n_s} residual {rn} off schedule {target!r}"]
    return []


def check_rate(rate_text: str, beta: float) -> list[str]:
    slope = float(key_values(rate_text)["slope"])
    target = -(0.5 - beta)
    if not abs(slope - target) <= 0.005:
        return [f"rate: slope {slope} more than 0.005 from {target}"]
    return []


def check_oga_trace(trace_text: str, rows_expected: int) -> list[str]:
    rows = trace_rows(trace_text)
    if len(rows) != rows_expected:
        return [f"oga trace: {len(rows)} rows, expected {rows_expected}"]
    norms = [float(r[1]) for r in rows]
    if not all(math.isfinite(x) for x in norms):
        return ["oga trace: non-finite residual norm"]
    for i in range(1, len(norms)):
        if norms[i] > norms[i - 1]:
            return [f"oga trace: residual norm rises at step {rows[i][0]}"]
    return []


class DigestStore:
    """SHA-256 of output bodies, kept across the runs made in one checkout.

    The first run records each body's digest; every later run must
    reproduce it byte for byte.
    """

    def __init__(self, path: str):
        self.path = path
        self.digests: dict[str, str] = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                self.digests = json.load(fh)

    def check(self, key: str, text: str) -> list[str]:
        digest = hashlib.sha256(body(text).encode("utf-8")).hexdigest()
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return [f"{key}: output differs from the first run's"]
        return []

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
