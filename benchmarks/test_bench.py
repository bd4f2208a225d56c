"""Fast tests of the benchmark itself, on a small K=200, N=400, n_max=900 instance."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from mpursuit import cli  # noqa: E402


def _read(*parts):
    with open(os.path.join(*parts), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A built n_max=900 instance and its PGA trace."""
    d = str(tmp_path_factory.mktemp("small"))
    assert cli.main(["build", "--n-max", "900", "--outdir", d]) == 0
    inst = os.path.join(d, "instance.txt")
    assert cli.main(["run", "--instance", inst, "--alg", "pga",
                     "--out", os.path.join(d, "trace_pga.csv")]) == 0
    return d


def _span(sid, name, start, end, parent=None, run="r"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run": run}


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, "p", 0.0, 10.0)
    kids = [_span(1, "a", 1.0, 3.0, 0), _span(2, "b", 2.0, 4.0, 0),
            _span(3, "c", 6.0, 7.0, 0), _span(4, "d", 9.5, 12.0, 0)]
    # covered: [1, 4] + [6, 7] + [9.5, 10] = 4.5
    assert tracer.self_time(parent, kids) == pytest.approx(5.5)
    assert tracer.self_time(parent, []) == pytest.approx(10.0)


def test_nested_spans_self_totals_per_run():
    spans = [_span(0, "load", 0.0, 5.0), _span(1, "advance", 1.0, 4.0, 0),
             _span(2, "step", 1.5, 2.0, 1),
             # same ids in a second child run must not mix with the first
             _span(0, "load", 10.0, 12.0, run="s"), _span(1, "advance", 10.5, 11.0, 0, "s")]
    ix = tracer.SpanIndex(spans)
    assert ix.self_total("load") == pytest.approx(2.0 + 1.5)
    assert ix.self_total("advance") == pytest.approx(2.5 + 0.5)
    assert ix.total("advance") == pytest.approx(3.5)
    assert ix.has_ancestor(spans[2], "load")
    assert not ix.has_ancestor(spans[4], "step")


def test_pga_check_rejects_a_swapped_atom(small):
    text = _read(small, "trace_pga.csv")
    p = checks.instance_params(_read(small, "instance.txt"))
    assert checks.check_pga_trace(text, p["beta"], p["N"], p["n_max"]) == []
    swapped = text.replace(",d402,", ",dX,").replace(",d403,", ",d402,").replace(",dX,", ",d403,")
    assert swapped != text
    assert checks.check_pga_trace(swapped, p["beta"], p["N"], p["n_max"])
    flipped = text.replace(",d401,1,", ",d401,-1,")
    assert checks.check_pga_trace(flipped, p["beta"], p["N"], p["n_max"])


def test_build_check_rejects_a_failed_report(small):
    build = _read(small, "build_report.txt")
    assert checks.check_build(build) == []
    assert checks.check_build(build.replace("verification.passed=true",
                                            "verification.passed=false"))


def test_digest_store_rejects_a_body_that_differs_from_the_first_run(small, tmp_path):
    text = _read(small, "instance.txt")
    path = str(tmp_path / "digests.json")
    store = checks.DigestStore(path)
    assert store.check("build/instance.txt", text) == []
    store.save()
    later = checks.DigestStore(path)
    # the header echoes the output directory and is not compared
    other_dir = text.replace("outdir=", "outdir=/elsewhere", 1)
    assert later.check("build/instance.txt", other_dir) == []
    lines = text.splitlines(keepends=True)
    q_row = next(i for i, line in enumerate(lines) if line.startswith("700,"))
    lines[q_row] = lines[q_row].replace("700,", "700,1", 1)
    assert later.check("build/instance.txt", "".join(lines))


def test_oga_and_rate_checks_reject_bad_outputs():
    head = "# mpursuit run\n# config: x\n# index_offset=400\nn,residual_norm,atom_id,sign,coefficient\n"
    good = head + "1,0.5,d401,1,0.1\n2,0.4,d402,1,0.1\n"
    assert checks.check_oga_trace(good, 2) == []
    assert checks.check_oga_trace(good, 3)
    assert checks.check_oga_trace(good.replace("2,0.4,", "2,0.6,"), 2)
    assert checks.check_oga_trace(good.replace("2,0.4,", "2,nan,"), 2)
    assert checks.check_rate("slope=-0.1848\n", 0.3152) == []
    assert checks.check_rate("slope=-0.19\n", 0.3152)


def test_wrappers_leave_command_output_unchanged(small, tmp_path):
    inst = os.path.join(small, "instance.txt")
    plain = str(tmp_path / "plain.txt")
    assert cli.main(["verify", "--instance", inst, "--out", plain]) == 0
    spans = str(tmp_path / "spans.json")
    traced = str(tmp_path / "traced.txt")
    assert tracer.main(["command", spans, "t", "--",
                        "verify", "--instance", inst, "--out", traced]) == 0
    assert checks.body(_read(traced)) == checks.body(_read(plain))
    assert not hasattr(cli.verify, "__wrapped__")   # wrappers removed again
    rec = json.loads(_read(spans))
    metrics = tracer.layer_metrics(rec["spans"], {"greedy_algorithms.select_atom_ms": (1.0, "ms")})
    assert metrics["adversarial.pairs"][0] == 500 * 501
    assert metrics["adversarial.steps"][0] == 900 - 199
    assert metrics["adversarial.oracle_tables_s"][0] > 0.0
    assert metrics["instance_io.load_s"][0] > 0.0

    trace_plain = str(tmp_path / "plain.csv")
    trace_traced = str(tmp_path / "traced.csv")
    assert cli.main(["run", "--instance", inst, "--alg", "oga", "--steps", "50",
                     "--out", trace_plain]) == 0
    assert tracer.main(["command", spans, "t", "--", "run", "--instance", inst,
                        "--alg", "oga", "--steps", "50", "--out", trace_traced]) == 0
    assert checks.body(_read(trace_traced)) == checks.body(_read(trace_plain))
