"""Compare the deterministic CLI outputs of two mpursuit source trees.

Usage::

    python tests/compare_outputs.py SRC_A SRC_B [--workdir DIR]

SRC_A and SRC_B are ``src`` directories, for example of a parent commit and
of a change.  For each tree, under ``OPENBLAS_NUM_THREADS`` 1 and then 2,
this runs ``python -m mpursuit.cli`` for ``constants`` at its defaults,
with ``--shrinkage 0.5``, with ``--tau-margin 1.0`` and with
``--beta-margin -0.01`` (the last two fail conditions and exit 3);
``solve-f``; ``make-phi``; ``build`` at n_max 900 and 2500; ``verify`` on
both instances; ``run`` on both instances for pga, pga_shrink (shrinkage
0.5), rga and oga, so that the traces cover two padded layouts of the atom
store (rows of 900 and 2500 entries, laid out 1024 and 2560 entries apart
on 4 KiB pages); and ``rate`` on the 2500 pga and oga traces, and on the pga
trace with the bound witnesses of ``--alpha 0.1828 --variation-bound
1.0``.  It then runs ``solve-f`` and ``build`` at n_max
900 once more under ``OPENBLAS_NUM_THREADS=1`` with each command pinned to
one CPU (``os.sched_setaffinity`` in the child alone), so that the
self-convolution sweep takes its one-worker path.  It compares each output
file of the two trees in the same setting with its first two lines (the
command and config echo, which name the output paths) dropped, and the exit
code of each command.  Every difference is printed; the exit code is 1 when there
is one, else 0.  The file name has no ``test_`` prefix, so pytest does
not collect it; one comparison takes a few minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

THREADS = (1, 2)
PINNED = (["solve-f", "--outdir", "solve"], ["build", "--n-max", "900", "--outdir", "b900"])
ALGS = (("pga",), ("pga_shrink", "--shrinkage", "0.5"), ("rga",), ("oga",))
CONSTANTS = (("default", ()), ("shrinkage_0.5", ("--shrinkage", "0.5")),
             ("tau_margin_1", ("--tau-margin", "1.0")),
             ("beta_margin_-0.01", ("--beta-margin", "-0.01")))


def commands() -> list[list[str]]:
    """The CLI argument lists, in order; paths are relative to the run directory."""
    cmds = [["constants", *flags, "--out", f"constants/{name}.txt"] for name, flags in CONSTANTS]
    cmds += [["solve-f", "--outdir", "solve"], ["make-phi", "--outdir", "phi"]]
    for n in (900, 2500):
        cmds.append(["build", "--n-max", str(n), "--outdir", f"b{n}"])
        cmds.append(["verify", "--instance", f"b{n}/instance.txt", "--out", f"b{n}/verify.txt"])
    for n in (900, 2500):
        for alg, *extra in ALGS:
            cmds.append(["run", "--instance", f"b{n}/instance.txt", "--alg", alg, *extra,
                         "--out", f"b{n}/trace_{alg}.csv"])
    for alg in ("pga", "oga"):
        cmds.append(["rate", "--trace", f"b2500/trace_{alg}.csv", "--out", f"b2500/rate_{alg}.txt"])
    cmds.append(["rate", "--trace", "b2500/trace_pga.csv", "--alpha", "0.1828",
                 "--variation-bound", "1.0", "--out", "b2500/rate_pga_witnesses.txt"])
    return cmds


def pin_to_one_cpu() -> None:
    """Restrict the calling process, a child before it starts the CLI, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def settings() -> list[tuple[str, int, list[list[str]], bool]]:
    """(label, OPENBLAS_NUM_THREADS, commands, pinned to one CPU) of each comparison."""
    return ([(f"t={threads}", threads, commands(), False) for threads in THREADS]
            + [("one CPU", 1, list(PINNED), True)])


def run_tree(src: str, where: str, threads: int, cmds: list[list[str]],
             pinned: bool) -> list[int]:
    """Run the commands `cmds` on the tree `src` in the directory `where`."""
    os.makedirs(where)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS=str(threads))
    codes = []
    for cmd in cmds:
        done = subprocess.run([sys.executable, "-m", "mpursuit.cli", *cmd], cwd=where, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              preexec_fn=pin_to_one_cpu if pinned else None)
        if done.returncode:
            print(f"  {' '.join(cmd)}: exit {done.returncode}: {done.stderr.strip()}")
        codes.append(done.returncode)
    return codes


def outputs(where: str) -> dict[str, list[str]]:
    """Each output file under `where` by relative path: its lines after the first two."""
    found = {}
    for root, _, files in os.walk(where):
        for name in files:
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                found[os.path.relpath(path, where)] = fh.read().splitlines()[2:]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workdir", help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    work = args.workdir or tempfile.mkdtemp(prefix="compare_outputs-")
    start, differ, compared = time.perf_counter(), [], 0
    try:
        for label, threads, cmds, pinned in settings():
            runs = {}
            for side, src in (("a", args.src_a), ("b", args.src_b)):
                where = os.path.join(work, f"{side}-t{threads}{'-pinned' if pinned else ''}")
                print(f"{side} = {src}, {label}", flush=True)
                runs[side] = run_tree(src, where, threads, cmds, pinned), outputs(where)
            (codes_a, files_a), (codes_b, files_b) = runs["a"], runs["b"]
            for cmd, code_a, code_b in zip(cmds, codes_a, codes_b):
                if code_a != code_b:
                    differ.append(f"{label} exit code of {' '.join(cmd)}: {code_a} vs {code_b}")
            for name in sorted(files_a.keys() | files_b.keys()):
                compared += 1
                if files_a.get(name) != files_b.get(name):
                    differ.append(f"{label} {name}")
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)
    for line in differ:
        print(f"DIFFERS: {line}")
    print(f"{compared} outputs compared ({', '.join(label for label, *_ in settings())}): "
          f"{len(differ)} differences, {time.perf_counter() - start:.0f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
