"""End-to-end benchmark of the mpursuit command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: every timed call is a fresh
``python -m mpursuit.cli ...`` process with ``src`` on ``PYTHONPATH``, as
a user runs it, so nothing needs installing.  The BLAS pool of every child
is pinned to the machine's CPU count.

Each run first sets up the workload's inputs (the ``build`` that writes the
instance file it reads), then repeats the timed command as often as fits in
``--seconds`` seconds (at least once), checks every output, and prints one
JSON line as the last line of standard output.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
from spawning the command to its exit), ``peak_rss_mb`` (median peak
resident memory of that process, from its own ``wait4`` rusage) and
``setup_s``.  ``--trace 1`` reports per-layer metrics from a traced run:
the set-up and the command run again in-process under timing wrappers
(``tracer.py``), then a probe process times the kernel microbenchmarks.

The workloads have no random input: the seed is only recorded.  All files
go to a temporary directory under ``.bench_runs/`` in the checkout, which
is removed at exit; a JSON record of the run (environment, metrics and,
for traced runs, every span) is kept there.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer  # noqa: E402

RUN_BUDGET_S = 170.0     # a run must end within 180 s
PLAN_STEPS = 20
TRACER = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                       "tracer.py")]


@dataclasses.dataclass
class Call:
    code: int
    wall: float
    rss_mb: float
    cpu: float = 0.0


class Children:
    """Starts child processes one at a time and waits for each to end.

    A child still running at the run's deadline is killed, and counts as
    failed.
    """

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], env: dict | None = None) -> Call:
        remaining = self.left()
        if remaining <= 0:
            return Call(code=-1, wall=0.0, rss_mb=0.0)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env or self.env, stdout=sys.stderr,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        return Call(code=proc.returncode, wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
                    cpu=usage.ru_utime + usage.ru_stime)


class Context:
    """What one run shares between set-up, timed calls and checks."""

    def __init__(self, root: str, tmp: str, children: Children):
        self.root = root
        self.tmp = tmp
        self.children = children
        self.cli = [sys.executable, "-m", "mpursuit.cli"]
        self.setup_dir = os.path.join(tmp, "setup")
        self.store = checks.DigestStore(os.path.join(root, ".bench_runs", "digests.json"))
        self.rate_checked = False

    def read(self, *parts: str) -> str:
        with open(os.path.join(*parts), "r", encoding="utf-8") as fh:
            return fh.read()

    def instance_path(self) -> str:
        return os.path.join(self.setup_dir, "instance.txt")

    def params(self) -> dict:
        return checks.instance_params(self.read(self.instance_path()))


# ------------------------------------------------------------ workloads


def _check_build(ctx: Context, out: str) -> list[str]:
    return (checks.check_build(ctx.read(out, "build_report.txt"))
            + ctx.store.check("build-2500/instance.txt", ctx.read(out, "instance.txt")))


def _check_pga(ctx: Context, out: str) -> list[str]:
    p = ctx.params()
    trace = os.path.join(out, "trace.csv")
    text = ctx.read(trace)
    problems = (checks.check_pga_trace(text, p["beta"], p["N"], p["n_max"])
                + ctx.store.check("pga-2500/trace.csv", text))
    if problems or ctx.rate_checked:
        return problems     # the digest check makes every later trace identical
    ctx.rate_checked = True
    rate = os.path.join(out, "rate.txt")
    call = ctx.children.run(ctx.cli + ["rate", "--trace", trace, "--n-min", "500",
                                       "--n-max", str(p["n_max"]), "--out", rate])
    if call.code != 0:
        return [f"rate: exit {call.code}"]
    return checks.check_rate(ctx.read(rate), p["beta"])


def _check_oga(ctx: Context, out: str) -> list[str]:
    p = ctx.params()
    text = ctx.read(out, "trace.csv")
    return (checks.check_oga_trace(text, p["n_max"] - p["N"])
            + ctx.store.check("oga-2500/trace.csv", text))


@dataclasses.dataclass(frozen=True)
class Workload:
    """One timed CLI command and the set-up it needs.

    `instance_n` is the n_max of the instance the set-up builds (None: the
    command reads no instance and the set-up is an import warm-up, repeated
    three times).  `plan_check` is set when the command replays no instance
    and runs no greedy algorithm: the traced probe then replays the output
    and runs the plan check under the wrappers, so those layers are measured
    on every workload.
    """

    instance_n: int | None
    argv: Callable[[str, str], list[str]]    # (outdir, instance path) -> CLI args
    outputs: tuple[str, ...]                 # files that traced and untraced runs share
    check: Callable[[Context, str], list[str]]
    plan_check: bool = False


# Why each workload, and which layers it exercises and bypasses: README.md.
WORKLOADS = {
    "build-2500": Workload(
        instance_n=None,
        argv=lambda out, inst: ["build", "--n-max", "2500", "--outdir", out],
        outputs=("instance.txt", "build_report.txt"), check=_check_build,
        plan_check=True),
    "pga-2500": Workload(
        instance_n=2500,
        argv=lambda out, inst: ["run", "--instance", inst, "--alg", "pga",
                                "--out", os.path.join(out, "trace.csv")],
        outputs=("trace.csv",), check=_check_pga),
    "oga-2500": Workload(
        instance_n=2500,
        argv=lambda out, inst: ["run", "--instance", inst, "--alg", "oga",
                                "--out", os.path.join(out, "trace.csv")],
        outputs=("trace.csv",), check=_check_oga),
}


# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: str, *args: str) -> str | None:
    try:
        res = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(root: str, threads: int) -> dict:
    status = _git(root, "status", "--porcelain")
    return {
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


# ------------------------------------------------------------ the two run modes


def _setup(ctx: Context, wl: Workload, traced: bool) -> tuple[float, list[str]]:
    """Set the workload's inputs up; returns (seconds, traced span files)."""
    if wl.instance_n is None:
        if traced:
            return 0.0, []
        walls = []
        for _ in range(3):
            call = ctx.children.run(ctx.cli + ["--version"])
            if call.code != 0:
                raise RuntimeError(f"set-up: warm-up exited {call.code}")
            walls.append(call.wall)
        return statistics.median(walls), []
    argv = ["build", "--n-max", str(wl.instance_n), "--outdir", ctx.setup_dir]
    spans = []
    if traced:
        spans.append(os.path.join(ctx.tmp, "spans-setup.json"))
        argv = _traced(ctx, spans[0], "setup", argv)
    else:
        argv = ctx.cli + argv
    call = ctx.children.run(argv)
    if call.code != 0:
        raise RuntimeError(f"set-up: build exited {call.code}")
    return call.wall, spans


def _traced(ctx: Context, spans: str, run_id: str, cli_args: list[str]) -> list[str]:
    return TRACER + ["command", spans, run_id,
                     "--profile-out", os.path.join(ctx.tmp, "profile.csv"), "--", *cli_args]


def _timed(ctx: Context, wl: Workload, tag: str, traced_spans: str = "") -> tuple:
    """One call of the workload's command; returns (Call, outdir, problems)."""
    out = os.path.join(ctx.tmp, tag)
    os.makedirs(out)
    argv = wl.argv(out, ctx.instance_path())
    argv = _traced(ctx, traced_spans, "command", argv) if traced_spans else ctx.cli + argv
    call = ctx.children.run(argv)
    try:
        problems = [f"{tag}: exit {call.code}"] if call.code != 0 else wl.check(ctx, out)
    except (OSError, KeyError, ValueError, IndexError) as err:
        problems = [f"{tag}: unreadable output: {err!r}"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return call, out, problems


def measure(ctx: Context, wl: Workload, seconds: float) -> dict:
    setup_s, _ = _setup(ctx, wl, traced=False)
    calls, failed, measured = [], 0, 0.0
    while not calls or measured + measured / len(calls) <= seconds:
        if calls and ctx.children.left() < 2.0 * max(c.wall for c in calls):
            break
        call, out, problems = _timed(ctx, wl, f"call-{len(calls)}")
        shutil.rmtree(out)
        calls.append(call)
        measured += call.wall
        failed += bool(problems)
    metrics = {
        "wall_s": (statistics.median(c.wall for c in calls), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in calls), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {"attempted": len(calls), "failed": failed, "metrics": metrics,
            "calls": [dataclasses.asdict(c) for c in calls]}


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def trace(ctx: Context, wl: Workload) -> dict:
    """Traced set-up and command, an untraced command, and the kernel probe."""
    _, span_files = _setup(ctx, wl, traced=True)
    untraced, out_u, problems_u = _timed(ctx, wl, "untraced")
    span_files.append(os.path.join(ctx.tmp, "spans-command.json"))
    traced, out_t, problems_t = _timed(ctx, wl, "traced", span_files[-1])
    problems = problems_u + problems_t
    for name in wl.outputs:
        if checks.body(ctx.read(out_u, name)) != checks.body(ctx.read(out_t, name)):
            problems.append(f"traced {name} differs from the untraced one")

    instance = (os.path.join(out_t, "instance.txt") if wl.instance_n is None
                else ctx.instance_path())
    common = ["--instance", instance, "--profile", os.path.join(ctx.tmp, "profile.csv")]
    span_files.append(os.path.join(ctx.tmp, "spans-probe.json"))
    argv = TRACER + ["probe", span_files[-1], "probe", *common,
                     "--plan-steps", str(PLAN_STEPS if wl.plan_check else 0)]
    one_thread = os.path.join(ctx.tmp, "select-1t.json")
    env_1t = dict(ctx.children.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
    for call in (ctx.children.run(argv),
                 ctx.children.run(TRACER + ["probe", one_thread, "select-1t", *common,
                                            "--select-only"], env=env_1t)):
        if call.code != 0:
            problems.append(f"probe: exit {call.code}")

    spans, kernels = [], {}
    for path in span_files:
        if os.path.exists(path):
            rec = _load_json(path)
            spans += rec["spans"]
            kernels.update(rec.get("kernels", {}))
            problems += rec.get("problems", [])
    if os.path.exists(one_thread):
        kernels["greedy_algorithms.select_atom_1t_ms"] = _load_json(one_thread)[
            "kernels"]["greedy_algorithms.select_atom_ms"]
    for p in problems[len(problems_u) + len(problems_t):]:
        print(f"check failed: {p}", file=sys.stderr)

    metrics = {}
    if "greedy_algorithms.select_atom_ms" in kernels:
        metrics.update(tracer.layer_metrics(spans, kernels))
    metrics.update({k: tuple(v) for k, v in kernels.items()})
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics["trace.spans"] = (len(spans), "count")
    # the traced call also answers for the output comparison and the probe
    failed = bool(problems_u) + bool(len(problems) > len(problems_u))
    return {"attempted": 2, "failed": failed, "metrics": metrics, "spans": spans}


# ------------------------------------------------------------ entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mpursuit", "cli.py")):
        print("benchmark: run from the root of an mpursuit checkout "
              "(src/mpursuit/cli.py not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    threads = os.cpu_count() or 1
    runs_dir = os.path.join(root, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=runs_dir)
    ctx = Context(root, tmp, Children(child_env(root, threads), started + RUN_BUDGET_S))
    wl = WORKLOADS[args.workload]
    try:
        result = trace(ctx, wl) if args.trace else measure(ctx, wl, args.seconds)
    except (RuntimeError, OSError, KeyError, ValueError) as err:
        print(f"benchmark: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ctx.store.save()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root, threads),
              "elapsed_s": time.monotonic() - started, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(runs_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
