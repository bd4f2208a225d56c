"""Run the committed mutants: each one must make each of its tests fail.

Usage::

    python tests/mutants.py [NAME ...]

A mutant is a file under ``src/mpursuit``, an exact snippet of it, the
snippet's replacement, and the test ids that must fail once the snippet is
replaced.  For each mutant (or only the named ones) the script copies
``src``, ``tests``, ``benchmarks`` and ``pyproject.toml`` to a temporary
directory, so that pytest's ``pythonpath`` points at the copy, applies the
replacement there and runs only the mutant's tests.  A listed test that
still passes lets the mutant survive; every survivor is printed, and the
exit code is 1 when there is one, else 0.  A mutant whose tests cannot run
(pytest exits other than 0 or 1) stops the script.  Each snippet must occur exactly
once in ``src``, which ``tests/test_mutants.py`` checks, so a refactor that
moves the code must re-anchor its mutants and run them again.  The file
name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "benchmarks", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str           # relative to src/mpursuit
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("bundle_sense_flipped", "constants.py",
           'Condition("tail_lower_bound", cond2, -1.0, ">")',
           'Condition("tail_lower_bound", cond2, -1.0, "<")',
           ("tests/test_constants.py::test_operating_point_strict_margins",)),
    Mutant("nan_passes", "constants.py",
           '{"<": v < b, ">": v > b, "<=": v <= b}',
           '{"<": not v >= b, ">": not v <= b, "<=": not v > b}',
           tuple(f"tests/test_constants.py::test_condition_passes_exactly_when_its_inequality"
                 f"_holds[{sense}]" for sense in ("<", ">", "<="))),
    Mutant("at_most_made_strict", "constants.py",
           '"<=": v <= b}', '"<=": v < b}',
           ("tests/test_constants.py::test_condition_passes_exactly_when_its_inequality"
            "_holds[<=]",)),
    Mutant("repeated_config_key_accepted", "cli.py",
           '            if key in out:\n'
           '                raise ValueError(f"config repeats {key}=")\n', '',
           ("tests/test_cli.py::test_config_value_of_the_wrong_type_names_its_key"
            "[n_min=500\\nn_min=9999-config repeats n_min=]",)),
    Mutant("dual_diff_not_below_min_abs_margin", "adversarial.py",
           "                and self.dual_max_diff < self.min_abs_margin\n", "",
           ("tests/test_adversarial.py::test_disagreement_must_stay_below_the_smallest"
            "_absolute_margin",)),
    Mutant("verify_drops_its_nan_note", "adversarial.py",
           "if first_nonfinite is None and not np.all(np.isfinite(gaps)):",
           "if False:",
           ("tests/test_cli.py::test_verify_names_first_non_finite_row[oracle]",
            "tests/test_cli.py::test_verify_names_first_non_finite_row[direct]")),
    Mutant("verify_keeps_nan_margin_rows", "adversarial.py",
           "margins[np.isnan(margins).any(axis=1)] = np.inf", "pass",
           tuple(f"tests/test_adversarial.py::test_verify_matches_row_by_row_reference"
                 f"[atom-nan-{block}]" for block in (7, 64, 512))),
    Mutant("verify_keeps_nan_blended_margins", "adversarial.py",
           "tmarg[np.isnan(tmarg)] = np.inf", "pass",
           ("tests/test_adversarial.py::test_verify_matches_row_by_row_reference[atom-nan-512]",)),
    Mutant("oracle_reads_the_stored_blended_atom", "adversarial.py",
           "dtil = epsilon * r_n / self.rn_norm + np.sqrt(1.0 - epsilon ** 2) * dhat[0, :N]",
           "dtil = state.atoms[0, :N].copy()",
           ("tests/test_adversarial.py::test_oracle_never_reads_stored_vectors",)),
)


def failed_ids(output: str) -> set[str]:
    """The test ids pytest's short summary (``-rfE``) reports as failed or in error."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def run_mutant(mutant: Mutant, work: str) -> list[str]:
    """The listed tests of `mutant` that pass on a copy with the mutant applied."""
    where = os.path.join(work, mutant.name)
    for name in COPIED:
        src, dst = os.path.join(ROOT, name), os.path.join(where, name)
        if os.path.isdir(src):
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dst)
    path = os.path.join(where, "src", "mpursuit", mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet is not once in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.snippet, mutant.replacement))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *mutant.tests], cwd=where, capture_output=True, text=True)
    if done.returncode not in (0, 1):   # no test ran: a broken import or an unknown id
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}"
                         f"{done.stderr}")
    failed = failed_ids(done.stdout)
    return [test for test in mutant.tests if test not in failed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    start, survivors = time.perf_counter(), {}
    work = tempfile.mkdtemp(prefix="mutants-")
    try:
        for mutant in chosen:
            passing = run_mutant(mutant, work)
            print(f"{'SURVIVES' if passing else 'killed'}: {mutant.name}", flush=True)
            if passing:
                survivors[mutant.name] = passing
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, tests in survivors.items():
        for test in tests:
            print(f"SURVIVOR: {name}: {test} passes")
    print(f"{len(chosen)} mutants, {len(chosen) - len(survivors)} killed, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
