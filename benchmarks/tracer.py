"""Span recording around mpursuit's public functions, and the traced child process.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter``), the span that was open when it started, the id of
the child process run it belongs to, and a few computed counts.  Spans are
kept in memory and written out once, when the child ends.

Each wrapper is installed at every module attribute where a caller looks
the function up: a wrapper on the defining module alone would miss the
``from ... import`` bindings in ``mpursuit.cli`` and ``mpursuit.instance_io``.

Run as a child process (``src`` on ``PYTHONPATH``)::

    python benchmarks/tracer.py command SPANS RUN_ID [--profile-out CSV] -- CLI_ARGS...
    python benchmarks/tracer.py probe SPANS RUN_ID --instance FILE --profile CSV
        [--plan-steps S] [--select-only]

``command`` runs ``mpursuit.cli.main(CLI_ARGS)`` with every wrapper
installed.  ``probe`` replays an instance file and, with ``--plan-steps``,
runs the plan check: the first S matching-pursuit steps must select the
planned atoms d_{N+1}, d_{N+2}, ... with sign +1.  The replay and the check
are recorded only with the plan check.  It then times the three kernel
microbenchmarks with recording off.  With
``--select-only`` it stops after the selection kernel; the benchmark runs
it so under a one-thread BLAS for the single-threaded baseline.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

# span name -> (module, attribute) pairs where callers look the function up
TARGETS = {
    "integral_equation.solve_f": [("mpursuit.cli", "solve_f")],
    "integral_equation.apply_T": [("mpursuit.integral_equation", "apply_T")],
    "grid_functions.selfconv_on_nodes": [("mpursuit.integral_equation",
                                          "selfconv_on_nodes")],
    "phi_builder.build_profile": [("mpursuit.cli", "build_profile")],
    "phi_builder.mollify": [("mpursuit.phi_builder", "mollify")],
    "phi_builder.check_conditions": [("mpursuit.phi_builder", "check_conditions")],
    "adversarial.build_instance": [("mpursuit.cli", "build_instance")],
    "adversarial.init_state": [("mpursuit.adversarial", "init_state"),
                               ("mpursuit.instance_io", "init_state")],
    "adversarial.advance": [("mpursuit.adversarial", "advance"),
                            ("mpursuit.instance_io", "advance")],
    "adversarial.choose_epsilon": [("mpursuit.adversarial", "choose_epsilon")],
    "adversarial.finalize": [("mpursuit.adversarial", "finalize"),
                             ("mpursuit.instance_io", "finalize")],
    "adversarial.verify": [("mpursuit.cli", "verify"), ("mpursuit.adversarial", "verify")],
    "adversarial.oracle_tables": [("mpursuit.adversarial.AdversarialInstance",
                                   "oracle_tables")],
    "instance_io.load_instance": [("mpursuit.cli", "load_instance")],
    "instance_io.save_instance": [("mpursuit.cli", "save_instance")],
    "greedy_algorithms.run": [("mpursuit.cli", "run")],
    "greedy_algorithms.matrix": [("mpursuit.greedy_algorithms.Dictionary", "matrix")],
}


def _array_bytes(obj) -> int:
    import numpy as np
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


# Computed counts attached to a span: hook(args, result, before) -> dict.
# `before` is what BEFORE returned for the same call, taken on entry.
BEFORE = {
    "adversarial.advance": lambda args: {"n0": args[0].n},
}
INFO = {
    "grid_functions.selfconv_on_nodes":
        lambda a, r, b: {"points": a[0].m * (a[0].m + 1) // 2},
    "adversarial.advance": lambda a, r, b: {"steps": r.n - b["n0"]},
    "adversarial.finalize": lambda a, r, b: {
        "state_bytes": r.state.atoms.nbytes + r.state.r_hist.nbytes,
        "atom_bytes": sum(v.coeffs.nbytes for v in r.dictionary.atoms)},
    "adversarial.verify": lambda a, r, b: {"pairs": r.n_pairs},
    "adversarial.oracle_tables": lambda a, r, b: {"bytes": _array_bytes(r)},
    "instance_io.save_instance": lambda a, r, b: {"bytes": os.path.getsize(a[1])},
    "greedy_algorithms.run": lambda a, r, b: {
        "steps": len(r.steps),
        "select_bytes": len(r.steps) * len(a[2]) * a[2].width * 8},
    "greedy_algorithms.matrix": lambda a, r, b: {"bytes": r.nbytes},
}


class Recorder:
    """In-memory span list with the stack of open spans."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.active = True

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "start": time.perf_counter(),
                           "end": None, "parent": self.stack[-1] if self.stack else None,
                           "run": self.run_id})
        self.stack.append(sid)
        return sid

    def close(self, sid: int, info: dict | None = None) -> None:
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        if info:
            span.update(info)
        self.stack.pop()

    def wrap(self, name: str, fn):
        before = BEFORE.get(name)
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            pre = before(args) if before else None
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, {"error": True})
                raise
            self.close(sid, info(args, result, pre) if info else None)
            return result
        return wrapper

    def install(self) -> list:
        """Wrap every target; returns the undo list for `uninstall`."""
        undo = []
        for name, sites in TARGETS.items():
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _resolve(path: str):
    """Module or class object for a dotted path such as `pkg.mod.Class`."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


# ------------------------------------------------------------ span arithmetic


def self_time(span: dict, children: list[dict]) -> float:
    """Duration minus the part of the span's interval its children cover."""
    covered, cur_lo, cur_hi = 0.0, None, None
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], span["start"]), min(c["end"], span["end"])
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span["end"] - span["start"]) - covered


class SpanIndex:
    """Totals over a list of spans, which may come from several child runs."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_key = {(s["run"], s["id"]): s for s in spans}
        self.children: dict[tuple, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault((s["run"], s["parent"]), []).append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(self_time(s, self.children.get((s["run"], s["id"]), []))
                   for s in self.named(name))

    def info_sum(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.named(name))

    def info_max(self, name: str, key: str) -> int:
        return max((s.get(key, 0) for s in self.named(name)), default=0)

    def has_ancestor(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            p = self.by_key[(span["run"], parent)]
            if p["name"] == name:
                return True
            parent = p["parent"]
        return False


def layer_metrics(spans: list[dict], kernels: dict) -> dict:
    """Per-layer figures from spans of the traced set-up, command and probe.

    `kernels` holds the probe's microbenchmark results as (value, unit);
    the computed OGA projection time needs its single-call selection time.
    """
    ix = SpanIndex(spans)
    steps = ix.info_sum("greedy_algorithms.run", "steps")
    run_s = ix.self_total("greedy_algorithms.run")
    profiles = ix.count("phi_builder.build_profile")
    init_in_build = [s for s in ix.named("adversarial.init_state")
                     if ix.has_ancestor(s, "adversarial.build_instance")]
    layers = sum(self_time(s, ix.children.get((s["run"], s["id"]), []))
                 for s in ix.named("cli.main"))
    return {
        "integral_equation.solve_f_s": (ix.total("integral_equation.solve_f"), "s"),
        "integral_equation.sweeps": (ix.count("integral_equation.apply_T"), "count"),
        "grid_functions.selfconv_calls": (ix.count("grid_functions.selfconv_on_nodes"),
                                          "count"),
        "grid_functions.selfconv_s": (ix.total("grid_functions.selfconv_on_nodes"), "s"),
        "grid_functions.selfconv_points": (
            ix.info_sum("grid_functions.selfconv_on_nodes", "points"), "count"),
        "phi_builder.build_profile_s": (ix.total("phi_builder.build_profile"), "s"),
        "phi_builder.mollify_s": (ix.total("phi_builder.mollify"), "s"),
        "phi_builder.check_conditions_s": (ix.total("phi_builder.check_conditions"), "s"),
        "phi_builder.attempts": (
            ix.count("phi_builder.mollify") / profiles if profiles else 0.0, "count"),
        "adversarial.advance_s": (ix.total("adversarial.advance"), "s"),
        "adversarial.steps": (ix.info_sum("adversarial.advance", "steps"), "count"),
        "adversarial.choose_epsilon_s": (ix.total("adversarial.choose_epsilon"), "s"),
        "adversarial.finalize_s": (ix.total("adversarial.finalize"), "s"),
        "adversarial.build_attempts": (len(init_in_build), "count"),
        "adversarial.oracle_tables_s": (ix.total("adversarial.oracle_tables"), "s"),
        "adversarial.verify_s": (ix.self_total("adversarial.verify"), "s"),
        "adversarial.pairs": (ix.info_sum("adversarial.verify", "pairs"), "count"),
        "adversarial.oracle_bytes": (ix.info_max("adversarial.oracle_tables", "bytes"),
                                     "bytes"),
        "adversarial.state_bytes": (ix.info_max("adversarial.finalize", "state_bytes"),
                                    "bytes"),
        "instance_io.load_s": (ix.self_total("instance_io.load_instance"), "s"),
        "instance_io.save_s": (ix.total("instance_io.save_instance"), "s"),
        "instance_io.file_bytes": (ix.info_sum("instance_io.save_instance", "bytes"),
                                   "bytes"),
        "greedy_algorithms.run_s": (run_s, "s"),
        "greedy_algorithms.steps": (steps, "count"),
        "greedy_algorithms.select_bytes": (
            ix.info_sum("greedy_algorithms.run", "select_bytes"), "bytes"),
        "greedy_algorithms.projection_s": (
            run_s - steps * kernels["greedy_algorithms.select_atom_ms"][0] / 1e3, "s"),
        "greedy_algorithms.matrix_s": (ix.total("greedy_algorithms.matrix"), "s"),
        "greedy_algorithms.matrix_bytes": (
            ix.info_max("greedy_algorithms.matrix", "bytes"), "bytes"),
        "linear_core.atom_bytes": (ix.info_max("adversarial.finalize", "atom_bytes"),
                                   "bytes"),
        "cli.self_s": (layers + sum(s.get("import_s", 0.0) for s in ix.named("cli.main")),
                       "s"),
    }


# ------------------------------------------------------------ child process


def _write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def _command(args, cli_args: list[str]) -> int:
    t0 = time.perf_counter()
    import mpursuit.cli as cli
    import_s = time.perf_counter() - t0
    rec = Recorder(args.run_id)
    undo = rec.install()
    if args.profile_out:
        # keep the solved profile for the probe's self-convolution kernel
        solve = cli.solve_f

        def keep_profile(*a, **kw):
            report = solve(*a, **kw)
            with open(args.profile_out, "w", encoding="utf-8") as fh:
                fh.write(report.converged_f.to_csv())
            return report
        cli.solve_f = keep_profile
    sid = rec.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        rec.close(sid, {"import_s": import_s})
        rec.uninstall(undo)
    _write_json(args.spans, {"spans": rec.spans})
    return code


def _median_ms(fn, reps: int) -> float:
    """Median of `reps` timed calls, in milliseconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    times.sort()
    return times[len(times) // 2]


def _probe(args) -> int:
    from mpursuit import cli, greedy_algorithms
    from mpursuit.grid_functions import GridFunction, selfconv_on_nodes

    rec = Recorder(args.run_id)
    undo = rec.install()
    rec.active = args.plan_steps > 0
    instance = cli.load_instance(args.instance)
    problems = []
    if args.plan_steps:
        trace = cli.run("pga", instance.f, instance.dictionary, args.plan_steps)
        n0 = instance.params.N + 1
        got = [(s.atom_id, s.sign) for s in trace.steps]
        want = [(f"d{n0 + i}", 1) for i in range(args.plan_steps)]
        if got != want:
            problems.append(f"plan check: first steps {got[:3]}... != {want[:3]}...")
    rec.active = False
    rec.uninstall(undo)

    kernels: dict[str, tuple] = {}   # name -> (value, unit)
    # selection: one select_atom call on the instance's dictionary, warmed first
    dictionary = instance.dictionary
    residual = instance.f
    greedy_algorithms.select_atom(residual, dictionary)
    kernels["greedy_algorithms.select_atom_ms"] = (_median_ms(
        lambda: greedy_algorithms.select_atom(residual, dictionary), 15), "ms")
    rows, width = len(dictionary), dictionary.width
    kernels["greedy_algorithms.select_atom_flops"] = (2 * rows * width, "flop")
    kernels["greedy_algorithms.select_atom_bytes"] = (8 * rows * width, "bytes")
    if args.select_only:
        _write_json(args.spans, {"spans": [], "kernels": kernels, "problems": problems})
        return 0

    # self-convolution on the solved profile: the first call builds the
    # query table, later calls reuse it
    with open(args.profile, "r", encoding="utf-8") as fh:
        fbar = GridFunction.from_csv(fh.read())
    t0 = time.perf_counter()
    selfconv_on_nodes(fbar)
    kernels["grid_functions.selfconv_cold_ms"] = ((time.perf_counter() - t0) * 1e3, "ms")
    kernels["grid_functions.selfconv_ms"] = (
        _median_ms(lambda: selfconv_on_nodes(fbar), 5), "ms")
    points = fbar.m * (fbar.m + 1) // 2
    kernels["grid_functions.selfconv_kernel_points"] = (points, "count")
    # per point: query x, interpolated value, column index (8 bytes each)
    kernels["grid_functions.selfconv_kernel_bytes"] = (24 * points, "bytes")

    # oracle tables: loading builds none, so this first call builds them afresh
    t0 = time.perf_counter()
    instance.oracle_tables()
    kernels["adversarial.oracle_tables_fresh_s"] = (time.perf_counter() - t0, "s")
    # the two dense products, h @ dhat.T and rhat @ h.T, over n_max columns
    n_max, pairs_n = instance.params.n_max, instance.params.n_max - instance.params.N
    kernels["adversarial.oracle_tables_flops"] = (2 * n_max * (
        (pairs_n - 1) * (pairs_n + 1) + pairs_n * pairs_n), "flop")
    _write_json(args.spans, {"spans": rec.spans, "kernels": kernels,
                             "problems": problems})
    return 3 if problems else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="tracer")
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("command")
    sp.add_argument("spans")
    sp.add_argument("run_id")
    sp.add_argument("--profile-out", default="")
    sp = sub.add_parser("probe")
    sp.add_argument("spans")
    sp.add_argument("run_id")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--plan-steps", type=int, default=0)
    sp.add_argument("--select-only", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "command":
        return _command(args, cli_args)
    return _probe(args)


if __name__ == "__main__":
    sys.exit(main())
