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


_CONFIG_CASE = "tests/test_cli.py::test_config_value_of_the_wrong_type_names_its_key"
_INSTANCE_CASE = "tests/test_cli.py::test_instance_needs_one_row_per_step_and_a_zero_seed_row"
_GRID_CASE = "tests/test_cli.py::test_plot_malformed_input_is_a_usage_error"

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
    Mutant("dual_diff_not_below_min_abs_margin", "adversarial.py",
           "                and self.dual_max_diff < self.min_abs_margin\n", "",
           ("tests/test_adversarial.py::test_disagreement_must_stay_below_the_smallest"
            "_absolute_margin",)),
    Mutant("verify_drops_its_nan_note", "adversarial.py",
           "            nonfinite[at] |= ~np.isfinite(gaps)\n", "",
           ("tests/test_cli.py::test_verify_names_first_non_finite_row[oracle]",
            "tests/test_cli.py::test_verify_names_first_non_finite_row[direct]")),
    Mutant("verify_keeps_nan_margin_rows", "adversarial.py",
           "j = np.argmin(margins, axis=1)",
           "j = np.argmin(np.nan_to_num(margins, nan=np.inf), axis=1)",
           tuple(f"tests/test_adversarial.py::test_verify_matches_row_by_row_reference"
                 f"[atom-nan-{block}]" for block in (7, 64, 512))),
    Mutant("verify_keeps_nan_blended_margins", "adversarial.py",
           "tmarg[np.isnan(tmarg)] = np.inf", "pass",
           ("tests/test_adversarial.py::test_verify_matches_row_by_row_reference[atom-nan-512]",
            *(f"tests/test_adversarial.py::test_verify_matches_row_by_row_reference"
              f"[blended_min_atom-nan-{block}]" for block in (7, 64, 512)))),
    Mutant("oracle_reads_the_stored_blended_atom", "adversarial.py",
           "self.dtil = epsilon * r_n / rn_norm + np.sqrt(1.0 - epsilon ** 2) * d_n",
           "self.dtil = state.atoms[0, :N].copy()",
           ("tests/test_adversarial.py::test_oracle_never_reads_stored_vectors",)),
    # the oracle's atom tiles and its one product per block and tile
    Mutant("tile_product_one_column_short", "adversarial.py",
           "cols = min(hi, k1) - 1", "cols = min(hi, k1) - 2",
           ("tests/test_adversarial.py::test_bulk_rows_match_pair_values",)),
    Mutant("oracle_drops_the_base_equality", "adversarial.py",
           "                pairs[ns - lo, ns - k0] = q[ns]\n", "",
           ("tests/test_adversarial.py::test_oracle_selected_index_is_q",)),
    Mutant("base_equality_only_in_the_first_tile", "adversarial.py",
           "                ns = np.arange(max(lo, k0), min(hi + 1, k1))\n"
           "                pairs[ns - lo, ns - k0] = q[ns]",
           "                ns = np.arange(max(lo, k0), min(hi + 1, k1))\n"
           "                ns = ns if k0 == N else ns[:0]\n"
           "                pairs[ns - lo, ns - k0] = q[ns]",
           ("tests/test_adversarial.py::test_oracle_selected_index_is_q",
            "tests/test_adversarial.py::test_bulk_rows_match_pair_values")),
    Mutant("forming_walk_resumes_one_block_late", "adversarial.py",
           "self._walk(form, k0, k1)", "self._walk(form, k0 + _H_BLOCK * (k0 > N), k1)",
           ("tests/test_adversarial.py::test_bulk_rows_match_pair_values",
            "tests/test_adversarial.py::test_phi_band_skip_keeps_the_replayed_atom_store")),
    Mutant("oracle_dhat_on_np_zeros", "adversarial.py",
           "tile = page_rows(k1 - k0, k1 - 1)", "tile = np.zeros((k1 - k0, k1 - 1))",
           ("tests/test_cli.py::test_resident_memory_follows_the_nonzero_structure",
            "tests/test_adversarial.py::test_verify_memory_stays_within_one_tile_and_a_few"
            "_blocks")),
    # verify's fold across tiles
    Mutant("nan_row_rule_per_tile", "adversarial.py",
           "    row_min[nan_rows] = np.inf\n", "",
           tuple(f"tests/test_adversarial.py::test_verify_matches_row_by_row_reference"
                 f"[last_tile_atom-nan-{block}]" for block in (7, 64, 512))),
    Mutant("tie_goes_to_the_later_tile", "adversarial.py",
           "better = low < row_min[at]", "better = low <= row_min[at]",
           tuple(f"tests/test_adversarial.py::test_a_tie_across_tiles_goes_to_the_first_pair"
                 f"_in_row_order[{tiles}]" for tiles in (2, 3, 7))),
    # the construction's one stored residual and its walk
    Mutant("walk_copies_the_row_after_the_update", "adversarial.py",
           "            row[:] = r\n            r[:n] -= q[n] * state.atom_row(n)[:n]\n",
           "            r[:n] -= q[n] * state.atom_row(n)[:n]\n            row[:] = r\n",
           ("tests/test_adversarial.py::test_oracle_vs_direct_random_pairs",
            "tests/test_adversarial.py::test_walk_reproduces_every_step_residual_bit_for_bit[7]")),
    Mutant("step_stores_r_N_plus_1_as_r_N", "adversarial.py",
           "    if n == state.N:\n        state.r_hist[0, :n] = r[:n]",
           "    if n == state.N + 1:\n        state.r_hist[0, :n] = r[:n]",
           ("tests/test_adversarial.py::test_build_instance_doubling_success",
            "tests/test_adversarial.py::test_step_energy_identity")),
    Mutant("verify_reuses_the_norm_before_r_n_max", "adversarial.py",
           "norms[-1:] = np.linalg.norm(r[None], axis=1)", "norms[-1:] = norms[-2:-1]",
           ("tests/test_adversarial.py::test_verify_dual_paths_agree_even_without_margins",)),
    # Gram rows on demand and phi's zero band
    Mutant("gram_hit_returns_the_row_before", "greedy_algorithms.py",
           "return rows[j - lo]", "return rows[j - lo - 1]",
           ("tests/test_greedy.py::test_pga_halts_inside_a_gram_block",
            "tests/test_greedy.py::test_gram_rows_double_per_stream_and_keep_one_block_a_stream")),
    Mutant("gram_blocks_never_double", "greedy_algorithms.py",
           "min(2 * len(rows), _GRAM_BLOCK)", "min(len(rows), _GRAM_BLOCK)",
           ("tests/test_greedy.py::test_gram_rows_double_per_stream_and_keep_one_block_a_stream",)),
    Mutant("gram_prefix_from_the_first_atom", "greedy_algorithms.py",
           "int(self.lengths[j:j + m].max())", "int(self.lengths[j])",
           ("tests/test_greedy.py::test_gram_rows_keep_the_contract_in_any_storage_order"
            "[pga-1.0-shuffled]",)),
    Mutant("gram_miss_keeps_no_other_block", "greedy_algorithms.py",
           "kept, buf = 1, blocks[1 - _GRAM_STREAMS:], None", "kept, buf = 1, [], None",
           ("tests/test_greedy.py::test_gram_rows_double_per_stream_and_keep_one_block_a_stream",)),
    Mutant("h_rows_from_the_last_row_edge", "adversarial.py",
           "i0 = phi.first_live(int(ls[0]))", "i0 = phi.first_live(int(ls[-1]))",
           ("tests/test_profile_references.py::test_oracle_h_rows_equal_h_row",
            "tests/test_adversarial.py::test_bulk_rows_match_pair_values")),
    Mutant("first_live_two_points_high", "phi_builder.py",
           "max(1, int(self.support_lo * n) - 1)", "max(1, int(self.support_lo * n) + 1)",
           ("tests/test_phi_builder.py::test_build_profile_certificate",)),
    Mutant("support_lo_three_pieces_late", "phi_builder.py",
           "float(self.phi.nodes[live[0]])", "float(self.phi.nodes[live[0] + 3])",
           ("tests/test_phi_builder.py::test_build_profile_certificate",
            "tests/test_adversarial.py::test_phi_band_skip_keeps_the_replayed_atom_store")),
    Mutant("atom_store_on_np_zeros", "adversarial.py",
           "self.atoms = page_rows(n_max - params.N + 2, n_max)",
           "self.atoms = np.zeros((n_max - params.N + 2, n_max))",
           ("tests/test_cli.py::test_resident_memory_follows_the_nonzero_structure",)),
    Mutant("rows_share_pages", "linear_core.py",
           "per_page = mmap.PAGESIZE // 8", "per_page = 1",
           ("tests/test_cli.py::test_resident_memory_follows_the_nonzero_structure",)),
    Mutant("gram_block_in_a_fresh_array", "greedy_algorithms.py",
           "out=buf[:m])", "out=None)",
           ("tests/test_greedy.py::test_a_gram_stream_forms_each_block_into_the_buffer_of_the"
            "_one_it_replaces",)),
    Mutant("dictionary_copies_its_store", "greedy_algorithms.py",
           "rows = np.asarray(rows, dtype=np.float64)",
           "rows = np.array(rows, dtype=np.float64)",
           ("tests/test_greedy.py::test_dictionary_holds_contiguous_rows_without_a_copy",)),
    Mutant("oga_widened_tile_on_np_zeros", "greedy_algorithms.py",
           "wide = lazy_zeros((_TILE, min(self.width, cols + _TILE)))",
           "wide = np.zeros((_TILE, min(self.width, cols + _TILE)))",
           ("tests/test_greedy.py::test_oga_basis_tiles_widen_on_lazy_pages",)),
    # the one key=value rule of the config file, the instance header and the grid-CSV header
    Mutant("repeated_config_key_accepted", "errors.py",
           "        if key in out:\n", '        if key in out and what != "config":\n',
           (_CONFIG_CASE + "[n_min=500\\nn_min=9999-config repeats n_min=]",)),
    Mutant("repeated_key_accepted", "errors.py",
           '        if key in out:\n            raise error(f"{what} repeats {key}=")\n', "",
           (_CONFIG_CASE + "[n_min=500\\nn_min=9999-config repeats n_min=]",
            _INSTANCE_CASE + "[repeated_header_key]",
            _GRID_CASE + "[# lo=0.5,hi=1.0,M=3,lo=0.25\\nx,value\\n0.5,1\\n0.75,1\\n1,1\\n"
            "-grid CSV header repeats lo=]")),
    Mutant("key_value_line_without_equals_accepted", "errors.py",
           '        if not eq:\n'
           '            raise error(f"{what} line {item!r} is not key=value")\n', "",
           (_CONFIG_CASE + "[grid_m=501\\nout-config line 'out' is not key=value]",
            _INSTANCE_CASE + "[header_line_without_equals]",
            _GRID_CASE + "[# lo=0,hi=1,M=3,junk\\nx,value\\n0,1\\n0.5,1\\n1,1\\n"
            "-grid CSV header line 'junk' is not key=value]")),
    Mutant("trace_rows_out_of_order_accepted", "greedy_algorithms.py",
           "                if not step.step_index > last:\n                    raise "
           'ValueError(f"trace CSV row {line!r}: n must be above {last}")\n', "",
           tuple(f"tests/test_cli.py::test_trace_rows_must_count_up_from_1[{command}-{case}]"
                 for command in ("rate", "plot") for case in ("n_0", "n_falls", "n_repeats"))),
    # input checks
    Mutant("rate_accepts_non_finite_bounds", "cli.py",
           "if not math.isfinite(cfg[key]):", "if False:",
           ("tests/test_cli.py::test_non_finite_rate_bound_is_a_usage_error[alpha-nan]",
            "tests/test_cli.py::test_non_finite_rate_bound_is_a_usage_error[variation-bound-inf]")),
    Mutant("witnesses_ignore_the_trace_offset", "cli.py",
           'cfg["variation_bound"],\n                           index_offset=offset)',
           'cfg["variation_bound"],\n                           index_offset=0)',
           ("tests/test_cli.py::test_rate_witnesses_need_alpha_and_variation_bound",)),
    Mutant("witness_branch_ignores_alpha", "cli.py",
           'if cfg["alpha"] > 0.0 and cfg["variation_bound"] > 0.0:',
           'if cfg["variation_bound"] > 0.0:',
           ("tests/test_cli.py::test_rate_witnesses_need_alpha_and_variation_bound",)),
    Mutant("negative_index_offset_accepted", "greedy_algorithms.py",
           "if not value.isdecimal():", 'if not value.removeprefix("-").isdecimal():',
           tuple(f"tests/test_cli.py::test_malformed_index_offset_is_a_usage_error[{command}--50]"
                 for command in ("rate", "plot"))),
    Mutant("check_bounds_accepts_an_infinite_bound", "analysis.py",
           "if not 0.0 < variation_bound < np.inf:", "if not 0.0 < variation_bound:",
           ("tests/test_analysis.py::test_check_bounds_validation",)),
    Mutant("f_csv_tau_unchecked", "cli.py",
           "if not abs(fbar.lo - tau) <= 1e-12 * tau:", "if False:",
           tuple(f"tests/test_cli.py::test_f_csv_off_the_operating_tau_is_a_usage_error[{case}]"
                 for case in ("make-phi-flags0", "build-flags1"))),
    Mutant("f_csv_conditions_unchecked", "cli.py",
           "        _strict_bundle(beta, tau)\n", "",
           tuple(f"tests/test_cli.py::test_an_operating_point_that_fails_a_closed_form_exits_3"
                 f"_before_solving[{case}]" for case in ("make-phi-flags3", "build-flags4"))),
    Mutant("solve_conditions_unchecked", "cli.py",
           "g = _strict_bundle(beta, tau).g_grid(", "g = bundle(beta, tau).g_grid(",
           tuple(f"tests/test_cli.py::test_an_operating_point_that_fails_a_closed_form_exits_3"
                 f"_before_solving[{case}]" for case in ("solve-f-flags0", "build-flags2"))),
    # the profile solve: Anderson mixing and its box
    Mutant("anderson_output_unclamped", "integral_equation.py",
           "    return np.maximum(x, 0.0)\n", "    return x\n",
           ("tests/test_integral_equation.py::test_mixing_is_clamped_where_the_solution"
            "_vanishes",)),
    Mutant("box_check_without_rounding_allowance", "integral_equation.py",
           "e_hi, e_lo = sweep_rounding(G, t_hi), sweep_rounding(G, t_lo)", "e_hi = e_lo = 0.0",
           ("tests/test_integral_equation.py::test_the_box_check_allows_for_the_sweep_rounding",)),
    Mutant("box_check_drops_the_lower_side", "integral_equation.py",
           '("T(hi) >= lo", np.maximum(t_hi - e_hi, 0.0) - lo),\n                      ', "",
           ("tests/test_integral_equation.py::test_the_box_check_reads_both_sides[lower]",
            "tests/test_integral_equation.py::test_the_box_check_allows_for_the_sweep_rounding")),
    Mutant("box_check_drops_the_upper_side", "integral_equation.py",
           '                      ("T(lo) <= hi", hi - (t_lo + e_lo)),\n', "",
           ("tests/test_integral_equation.py::test_the_box_check_reads_both_sides[upper]",)),
    Mutant("constant_width_box", "integral_equation.py",
           "lo, hi = np.maximum(x - half * w, 0.0), x + half * w",
           "lo, hi = np.maximum(x - half, 0.0), x + half",
           ("tests/test_integral_equation.py::test_a_default_solve_locates_each_point_once",
            "tests/test_integral_equation.py::test_solve_bracket_sandwich")),
    # the uniform-grid evaluation kernel
    Mutant("locate_without_downward_correction", "grid_functions.py",
           "    i -= x < nodes.take(i, out=u)\n", "",
           tuple(f"tests/test_profile_references.py::test_locate_equals_the_search_of_the"
                 f"_interior_nodes[{m}-zero]" for m in (2001, 4001))),
    Mutant("locate_without_upward_correction", "grid_functions.py",
           "    i += x >= nodes[1:].take(i, out=u)\n", "",
           tuple(f"tests/test_profile_references.py::test_locate_equals_the_search_of_the"
                 f"_interior_nodes[{m}-tau]" for m in (2001, 4001))),
    # the self-convolution plan
    Mutant("first_sweep_stores_no_tables", "grid_functions.py",
           "                    table[pts] = column", "                    pass",
           ("tests/test_integral_equation.py::test_a_plan_stores_its_tables_during_its_first_sweep",
            "tests/test_integral_equation.py::test_selfconv_without_a_plan_equals_the_plan"
            "_bit_for_bit")),
    Mutant("planless_sweep_stores_tables", "grid_functions.py",
           "return SelfConvPlan(f)._sweep(f)", "return SelfConvPlan(f).sweep(f)",
           ("tests/test_integral_equation.py::test_a_plan_stores_its_tables_during_its_first_sweep",
            "tests/test_integral_equation.py::test_selfconv_without_a_plan_equals_the_plan"
            "_bit_for_bit")),
    Mutant("worker_exception_dropped", "grid_functions.py",
           "fut.result()", "fut.exception()",
           ("tests/test_profile_references.py::test_a_worker_exception_reaches_the_caller",)),
    Mutant("worker_left_running_after_a_sweep", "grid_functions.py",
           "with ThreadPoolExecutor(len(rest)) as pool:",
           "for pool in [ThreadPoolExecutor(len(rest))]:",
           ("tests/test_profile_references.py::test_solve_f_owns_its_plan_and_frees_it_on_return",
            "tests/test_profile_references.py::test_a_worker_exception_reaches_the_caller")),
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
