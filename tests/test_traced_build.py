"""The benchmark's traced `build`: every name its tracer wraps still exists and runs."""

import json
import os
import sys

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")
sys.path.insert(0, BENCHMARKS)

import tracer  # noqa: E402
from mpursuit import cli  # noqa: E402

BUILD_SPANS = {"integral_equation.solve_f", "adversarial.build_instance",
               "adversarial.advance", "adversarial.choose_epsilon", "adversarial.finalize",
               "adversarial.oracle_tables", "integral_equation.apply_T"}


def test_traced_build_records_every_stage(tmp_path):
    out, spans = str(tmp_path / "out"), str(tmp_path / "spans.json")
    profile = str(tmp_path / "profile.csv")
    assert tracer.main(["command", spans, "t", "--profile-out", profile, "--",
                        "build", "--n-max", "900", "--outdir", out]) == 0
    with open(os.path.join(out, "build_report.txt"), encoding="utf-8") as fh:
        assert "verification.passed=true" in fh.read().splitlines()
    assert not hasattr(cli.build_instance, "__wrapped__")   # wrappers removed again
    with open(spans, encoding="utf-8") as fh:
        rec = json.load(fh)
    assert BUILD_SPANS <= {span["name"] for span in rec["spans"]}
    metrics = tracer.layer_metrics(rec["spans"],
                                   {"greedy_algorithms.select_atom_ms": (1.0, "ms")})
    assert metrics["adversarial.pairs"][0] == 500 * 501
    assert metrics["adversarial.oracle_tables_s"][0] > 0.0

    # the probe reaches the library by names of its own: select_atom on the
    # instance's target, GridFunction.from_csv, selfconv_on_nodes without a
    # plan and a fresh oracle_tables()
    probe = str(tmp_path / "probe.json")
    assert tracer.main(["probe", probe, "p", "--instance", os.path.join(out, "instance.txt"),
                        "--profile", profile, "--plan-steps", "20"]) == 0
    with open(probe, encoding="utf-8") as fh:
        rec = json.load(fh)
    assert rec["problems"] == []
    for name in ("greedy_algorithms.select_atom_ms", "grid_functions.selfconv_ms",
                 "adversarial.oracle_tables_fresh_s"):
        assert rec["kernels"][name][0] > 0.0
