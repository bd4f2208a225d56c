import json
import os
import re
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mpursuit
from mpursuit import cli, phi_builder
from mpursuit.adversarial import verify
from mpursuit.cli import main
from mpursuit.errors import ConstructionError, InstanceFormatError
from mpursuit.greedy_algorithms import GreedyTrace, run
from mpursuit.grid_functions import GridFunction
from mpursuit.instance_io import instance_to_text, load_instance, save_instance


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def value_of(text, key):
    m = re.search(rf"^{re.escape(key)}=(.*)$", text, re.MULTILINE)
    assert m, f"{key} not found"
    return m.group(1)


def error_line(capsys, usage=False):
    """The one `error:` line on stderr; argparse's usage lines come first."""
    err = capsys.readouterr().err.splitlines()
    if usage:
        assert err and err[0].startswith("usage:"), err
        err = [line for line in err if not line.startswith(("usage:", " "))]
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def test_constants_default(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["constants", "--shrinkage", "1", "--out", str(out)]) == 0
    text = read(out)
    assert text.startswith("# mpursuit constants v")
    assert abs(float(value_of(text, "alpha")) - 0.1828) < 0.001
    assert "margins.c_below_one.pass=true" in text


def test_constants_small_shrinkage(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["constants", "--shrinkage", "0.000001", "--out", str(out)]) == 0
    assert abs(float(value_of(read(out), "alpha")) - 0.305) < 0.001


def test_constants_usage_error(tmp_path, capsys):
    out = tmp_path / "c.txt"
    for value in ("2", "0", "-0.5", "nan"):
        assert main(["constants", "--shrinkage", value, "--out", str(out)]) == 1
        assert error_line(capsys) == "error: shrinkage must lie in (0, 1]"
    assert not out.exists()


def test_constants_reruns_byte_identical(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["constants", "--shrinkage", "1", "--out", str(out)]) == 0
    first = read(out)
    assert main(["constants", "--shrinkage", "1", "--out", str(out)]) == 0
    assert read(out) == first


def test_seed_flag_is_a_usage_error(tmp_path, capsys):
    # nothing in the pipeline is random, so no command takes a seed
    out = tmp_path / "c.txt"
    assert main(["constants", "--seed", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "error: unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shrinkage=0.5\nout=ignored.txt\n")
    out = tmp_path / "c.txt"
    assert main(["constants", "--config", str(cfgfile), "--out", str(out)]) == 0
    text = read(out)
    assert value_of(text, "s") == "0.5"     # file overrides default
    assert "out=" + str(out) in text          # flag overrides file


def test_config_key_no_command_declares_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shrinkage=0.5\nnmax=100\n")     # a typo of n_max
    out = tmp_path / "c.txt"
    assert main(["constants", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert "'nmax'" in error_line(capsys)
    assert not out.exists()


def test_config_key_of_another_command_is_ignored(tmp_path):
    # one file serves the whole pipeline: build's and run's keys pass constants by
    cfgfile = tmp_path / "pipeline.cfg"
    cfgfile.write_text("n_max=100\nalg=oga\nlog_log=maybe\nshrinkage=0.5\n")
    out = tmp_path / "c.txt"
    assert main(["constants", "--config", str(cfgfile), "--out", str(out)]) == 0
    text = read(out)
    assert value_of(text, "s") == "0.5"
    assert "n_max" not in text and "alg" not in text and "log_log" not in text


def write_curve(tmp_path):
    curve = tmp_path / "c.csv"
    curve.write_text(GridFunction(0.5, 1.0, np.linspace(1.0, 2.0, 5)).to_csv())
    return curve


@pytest.mark.parametrize("value, flag", [("false", "False"), ("FALSE", "False"),
                                         ("true", "True")])
def test_config_bool_values(tmp_path, value, flag):
    curve = write_curve(tmp_path)
    cfgfile = tmp_path / "plot.cfg"
    cfgfile.write_text(f"log_log={value}\n")
    svg = tmp_path / "p.svg"
    assert main(["plot", str(curve), "--config", str(cfgfile), "--out", str(svg)]) == 0
    assert f"log_log={flag} " in read(svg)


@pytest.mark.parametrize("value", ["no", "0", "yes", ""])
def test_config_bool_other_value_is_a_usage_error(tmp_path, capsys, value):
    curve = write_curve(tmp_path)
    cfgfile = tmp_path / "plot.cfg"
    cfgfile.write_text(f"log_log={value}\n")
    svg = tmp_path / "p.svg"
    capsys.readouterr()
    assert main(["plot", str(curve), "--config", str(cfgfile), "--out", str(svg)]) == 1
    assert "log_log" in error_line(capsys)
    assert not svg.exists()


@pytest.mark.parametrize("line, message", [
    ("grid_m=abc", "config grid_m='abc': invalid literal for int() with base 10: 'abc'"),
    ("tol=1e-8x", "config tol='1e-8x': could not convert string to float: '1e-8x'"),
    # the later line won, and a line without "=" fell back to the default
    ("n_min=500\nn_min=9999", "config repeats n_min="),
    ("grid_m=501\nout", "config line 'out' is not key=value")])
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, line, message):
    cfgfile = tmp_path / "solve.cfg"
    cfgfile.write_text(line + "\n")
    outdir = tmp_path / "out"
    capsys.readouterr()
    assert main(["solve-f", "--config", str(cfgfile), "--outdir", str(outdir)]) == 1
    assert error_line(capsys) == "error: " + message
    assert not outdir.exists()


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_solve_and_phi_pipeline(tmp_path):
    sf = tmp_path / "sf"
    assert main(["solve-f", "--grid-m", "501", "--outdir", str(sf)]) == 0
    for j in range(4):
        assert (sf / f"iterate_{j}.csv").exists()
    report = read(sf / "solve_report.txt")
    assert float(value_of(report, "residual_sup")) <= 1e-6
    assert 0.0 < float(value_of(report, "box_half_width")) < 1e-8
    assert "bracket_width" not in report
    assert float(value_of(report, "f3_min")) > 0.0

    ph = tmp_path / "ph"
    assert main(["make-phi", "--f-csv", str(sf / "solved_profile.csv"),
                 "--t", "0.01", "--outdir", str(ph)]) == 0
    rep = read(ph / "phi_report.txt")
    assert "all_pass=true" in rep
    assert float(value_of(rep, "growth_bound_sup.value")) < 1.0
    assert float(value_of(rep, "tail_bound_sup.value")) < 1.0
    # the CSV route and a fresh solve give one profile
    fresh = tmp_path / "fresh"
    assert main(["make-phi", "--grid-m", "501", "--t", "0.01",
                 "--outdir", str(fresh)]) == 0
    for name in ("phi.csv", "phi_report.txt"):
        assert read(fresh / name).split("\n", 2)[2] == read(ph / name).split("\n", 2)[2]

    svg = tmp_path / "iterates.svg"
    assert main(["plot"] + [str(sf / f"iterate_{j}.csv") for j in range(4)]
                + ["--out", str(svg)]) == 0
    body = read(svg)
    assert body.count("<polyline") == 4
    # third iterate stays strictly positive
    it3 = np.array([float(line.split(",")[1])
                    for line in read(sf / "iterate_3.csv").splitlines()
                    if line and not line.startswith(("#", "x,"))])
    assert it3.min() > 0.0


@pytest.mark.parametrize("command, flags", [("make-phi", []), ("build", ["--n-max", "900"])])
def test_f_csv_off_the_operating_tau_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      command, flags):
    """A profile solved at the default margins lives on [0.4604, 1]; at
    --tau-margin 0.9 the operating tau is 0.4228, and the command stops
    before it mollifies."""
    sf = tmp_path / "sf"
    assert main(["solve-f", "--grid-m", "201", "--outdir", str(sf)]) == 0

    def mollify(*args, **kwargs):
        raise AssertionError("mollified a profile off the operating tau")
    monkeypatch.setattr(phi_builder, "mollify", mollify)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--f-csv", str(sf / "solved_profile.csv"), "--tau-margin", "0.9",
                 *flags, "--outdir", str(out)]) == 1
    line = error_line(capsys)
    assert line.startswith("error: the --f-csv grid starts at 0.4604")
    assert "not at the operating tau=0.4228" in line
    assert not out.exists()


def test_plot_requires_inputs(tmp_path, capsys):
    assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 1
    assert "inputs" in error_line(capsys, usage=True)
    assert not (tmp_path / "x.svg").exists()


TRACE_HEAD = "# index_offset=400\nn,residual_norm,atom_id,sign,coefficient\n"


@pytest.mark.parametrize("text, message", [
    ("# lo=0,hi=1,M=3\nx,value\n0,1\n0.5\n1,1\n", "not two numbers"),
    (TRACE_HEAD + "1,0.5,d401,1,0.1\n2,0.4,d402,1\n", "is not n,residual_norm"),
    ("a,b\n1,2\n", "not a grid or trace CSV"),
    # the later header line won
    ("# lo=0,hi=2,M=3\n# lo=0,hi=1,M=3\nx,value\n0,1\n0.5,1\n1,1\n",
     "grid CSV repeats its lo=,hi=,M= header"),
    # the later lo= won, and the rows were reported off its grid
    ("# lo=0.5,hi=1.0,M=3,lo=0.25\nx,value\n0.5,1\n0.75,1\n1,1\n",
     "grid CSV header repeats lo="),
    # a header part without "=" was ignored
    ("# lo=0,hi=1,M=3,junk\nx,value\n0,1\n0.5,1\n1,1\n",
     "grid CSV header line 'junk' is not key=value"),
])
def test_plot_malformed_input_is_a_usage_error(tmp_path, capsys, text, message):
    good, bad = write_curve(tmp_path), tmp_path / "bad.csv"
    bad.write_text(text)
    svg = tmp_path / "p.svg"
    capsys.readouterr()
    assert main(["plot", str(good), str(bad), "--out", str(svg)]) == 1
    assert message in error_line(capsys)
    assert not svg.exists()


@pytest.mark.parametrize("text", [
    # the header was taken for a comment unless lo= came first
    "# hi=1,lo=0,M=3\nx,value\n0,1\n0.5,1\n1,1\n",
    # the command and config echo stay comments
    "# mpursuit solve-f v0\n# config: lo=9 hi=9 M=9\n# M=3, hi=1, lo=0\n"
    "x,value\n0,1\n0.5,2\n1,1\n",
])
def test_plot_reads_the_grid_header_in_any_key_order(tmp_path, text):
    curve, svg = tmp_path / "g.csv", tmp_path / "p.svg"
    curve.write_text(text)
    g = GridFunction.from_csv(text)
    assert (g.lo, g.hi, g.m) == (0.0, 1.0, 3)
    assert main(["plot", str(curve), "--out", str(svg)]) == 0
    assert read(svg).startswith("<svg")


def test_plot_log_log_flat_trace(tmp_path):
    # one row: both ranges are degenerate, and widening by +-0.5 would leave log10(<= 0)
    trace = tmp_path / "flat.csv"
    trace.write_text(TRACE_HEAD + "1,0.1,d401,1,0.1\n")
    svg = tmp_path / "flat.svg"
    assert main(["plot", str(trace), "--log-log", "--out", str(svg)]) == 0
    body = read(svg)
    assert body.startswith("<svg") and "<polyline" in body


def test_plot_escapes_its_text_and_keeps_double_dashes_out_of_comments(tmp_path):
    # the title went into a <text> node as it was, the config echo put its
    # "--" into a comment, and a file name's "&" went into the legend: the
    # command exited 0 and no XML parser accepted the file
    curve = tmp_path / "x&y.csv"
    curve.write_text(read(write_curve(tmp_path)))
    svg = tmp_path / "p.svg"
    title = "a<b & c--d"
    assert main(["plot", str(curve), "--title", title, "--out", str(svg)]) == 0
    doc = xml.dom.minidom.parse(str(svg))
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert texts[-2:] == ["x&y", title]
    comments = [node.data for node in doc.documentElement.childNodes
                if node.nodeType == node.COMMENT_NODE]
    assert len(comments) == 1 and "title=a<b & c- -d" in comments[0]


def test_plot_creates_the_output_directory(tmp_path):
    # plot wrote its file itself and exited 1 where every other command
    # creates the directory
    svg = tmp_path / "newdir" / "p.svg"
    assert main(["plot", str(write_curve(tmp_path)), "--out", str(svg)]) == 0
    assert read(svg).startswith("<svg")


def test_rate_short_trace_row_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(TRACE_HEAD + "1,0.5,d401,1,0.1\n2,0.4,d402,1\n")
    out = tmp_path / "r.txt"
    capsys.readouterr()
    assert main(["rate", "--trace", str(bad), "--out", str(out)]) == 1
    assert "'2,0.4,d402,1' is not n,residual_norm" in error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "", "-50", "400\n# index_offset=7"])
@pytest.mark.parametrize("command", ["rate", "plot"])
def test_malformed_index_offset_is_a_usage_error(tmp_path, capsys, command, value):
    # the trace's own line is the only source of the offset; a negative one
    # would give step indices <= 0, and of two lines the later one won
    bad = tmp_path / "bad.csv"
    bad.write_text(TRACE_HEAD.replace("=400", "=" + value) + "1,0.5,d401,1,0.1\n")
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main([command, str(bad), "--out", str(out)] if command == "plot"
                else ["rate", "--trace", str(bad), "--out", str(out)]) == 1
    assert error_line(capsys) == ("error: trace CSV repeats index_offset=" if "\n" in value
                                  else f"error: trace line '# index_offset={value}' "
                                  "is not an index offset >= 0")
    assert not out.exists()


def test_rate_reads_each_rows_own_n(tmp_path):
    # rows n = 2, 4, ..., 200: numbered 1, 2, ... by position, 91 of them
    # fell in [10, 200], and each witness read (2j)^-1/2 j^1/2
    trace = tmp_path / "even.csv"
    trace.write_text(GreedyTrace.CSV_HEADER + "\n" + "".join(
        f"{n},{n ** -0.5!r},d{n},1,0.1\n" for n in range(2, 201, 2)))
    out = tmp_path / "r.txt"
    assert main(["rate", "--trace", str(trace), "--n-min", "10", "--n-max", "200",
                 "--alpha", "0.5", "--variation-bound", "1", "--out", str(out)]) == 0
    text = read(out)
    assert value_of(text, "points") == "96"
    assert float(value_of(text, "slope")) == pytest.approx(-0.5)
    assert float(value_of(text, "upper_witness")) == pytest.approx(1.0)
    assert float(value_of(text, "lower_witness")) == pytest.approx(1.0)


@pytest.mark.parametrize("rows, bad, last", [
    ("0,0.5,d0,1,0.1\n", "0,0.5,d0,1,0.1", 0),
    ("1,0.5,d1,1,0.1\n3,0.4,d3,1,0.1\n2,0.45,d2,1,0.1\n", "2,0.45,d2,1,0.1", 3),
    ("1,0.5,d1,1,0.1\n1,0.4,d1,1,0.1\n", "1,0.4,d1,1,0.1", 1)],
    ids=["n_0", "n_falls", "n_repeats"])
@pytest.mark.parametrize("command", ["rate", "plot"])
def test_trace_rows_must_count_up_from_1(tmp_path, capsys, command, rows, bad, last):
    # such rows were read as they came: rate numbered them by position, plot
    # drew them back and forth
    trace = tmp_path / "bad.csv"
    trace.write_text(TRACE_HEAD + rows)
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main([command, str(trace), "--out", str(out)] if command == "plot"
                else ["rate", "--trace", str(trace), "--out", str(out)]) == 1
    assert error_line(capsys) == f"error: trace CSV row {bad!r}: n must be above {last}"
    assert not out.exists()


@pytest.fixture(scope="module")
def saved_instance(tmp_path_factory, mid_instance):
    inst, _ = mid_instance
    path = tmp_path_factory.mktemp("inst") / "instance.txt"
    save_instance(inst, str(path), header="")
    return inst, str(path)


def test_verify_command_passes(tmp_path, saved_instance):
    _, path = saved_instance
    out = tmp_path / "v.txt"
    assert main(["verify", "--instance", path, "--out", str(out)]) == 0
    text = read(out)
    assert "passed=true" in text
    assert float(value_of(text, "min_margin")) > 0.0


def test_verify_command_corrupted_alpha(tmp_path, saved_instance):
    _, path = saved_instance
    lines = read(path).splitlines()
    for i, line in enumerate(lines):
        if line.startswith("650,"):
            parts = line.split(",")
            parts[3] = f"{float(parts[3]) + 1e-3:.17g}"
            lines[i] = ",".join(parts)
            break
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.txt"
    assert main(["verify", "--instance", str(bad), "--out", str(out)]) == 3
    assert "passed=false" in read(out)


@pytest.mark.parametrize("row", [700, 199])   # a step, and the seed row K-1
def test_verify_command_nan_sequence_fails_replay(tmp_path, saved_instance, row):
    _, path = saved_instance
    lines = read(path).splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{row},"):
            parts = line.split(",")
            parts[1] = "nan"
            lines[i] = ",".join(parts)
            break
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConstructionError, match=f"step {row} "):
        load_instance(str(bad))
    out = tmp_path / "v.txt"
    assert main(["verify", "--instance", str(bad), "--out", str(out)]) == 3
    report = read(out)
    assert f"replay_failed=step {row} " in report
    assert "passed=false" in report


@pytest.mark.parametrize("route", ["oracle", "direct"])
def test_verify_names_first_non_finite_row(saved_instance, route):
    # non-finite values reaching verify by a path other than replay: the
    # seed q feeds every oracle row; q_{N+50} feeds the walk from r_{N+50}
    # on, the direct row of n = N+51, and the oracle keeps clean tables
    _, path = saved_instance
    inst = load_instance(path)
    st = inst.state
    if route == "oracle":
        st.q[st.K - 1] = np.nan
        first = st.N + 1
    else:
        tables = inst.oracle_tables()
        inst.oracle_tables = lambda: tables
        st.q[st.N + 50] = np.nan
        first = st.N + 51
    report = verify(inst)
    assert not report.passed and not report.all_strict
    assert report.notes == f"non-finite inner product at n={first}"
    assert "passed=false" in report.to_text()
    if route == "oracle":
        assert np.isnan(report.min_margin_oracle)


def test_instance_missing_header_key_is_a_usage_error(tmp_path, saved_instance, capsys,
                                                      load_text):
    _, path = saved_instance
    lines = read(path).splitlines(keepends=True)
    no_epsilon = "".join(line for line in lines if not line.startswith("epsilon="))
    with pytest.raises(InstanceFormatError, match="epsilon="):
        load_text(no_epsilon)
    # a [phi] data row cut to its x column, and one whose x is off its node
    row = lines.index("[phi]\n") + 4
    x, value = lines[row].split(",")
    cut_phi = "".join(lines[:row] + [x + "\n"] + lines[row + 1:])
    moved_x = "".join(lines[:row] + [f"{float(x) + 1e-6!r},{value}"] + lines[row + 1:])
    # a grid_m that does not count the [phi] nodes
    grid_m = next(line for line in lines if line.startswith("grid_m="))
    wrong_m = "".join(lines).replace(grid_m, "grid_m=7\n", 1)
    with pytest.raises(InstanceFormatError, match="grid_m=7 does not match"):
        load_text(wrong_m)
    for text, key in ((no_epsilon, "epsilon="), (cut_phi, "not two numbers"),
                      (moved_x, "is not grid node 1"), (wrong_m, "grid_m=7 does not match")):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        capsys.readouterr()
        for cmd in (["verify", "--out", str(tmp_path / "v.txt")],
                    ["run", "--out", str(tmp_path / "t.csv")]):
            assert main(cmd + ["--instance", str(bad)]) == 1
            assert key in error_line(capsys)


def edit_header(text, **values):
    """The instance text with the header lines key=... set to key=value."""
    lines = text.splitlines(keepends=True)
    for key, value in values.items():
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
        lines[i] = f"{key}={value}\n"
    return "".join(lines)


HEADER_EDITS = {
    # all four at once: this header replayed and verified before it was checked
    "t_tau_c_t_delta": (dict(t="0.3", tau="0.1", c_t="7", delta="0.9"),
                        "instance header needs 0 < t < tau < 1 and c_t > 0, "
                        "not t=0.3, tau=0.1, c_t=7.0"),
    "delta": (dict(delta="0.25"), "instance header delta=0.25 is not tau - 2t = "),
    "c_t_nan": (dict(c_t="nan"), "instance header c_t=nan is not finite"),
    "t_zero": (dict(t="0"), "instance header needs 0 < t < tau < 1 and c_t > 0, not t=0.0"),
}


@pytest.mark.parametrize("case", list(HEADER_EDITS))
def test_instance_header_t_tau_c_t_delta_are_checked(tmp_path, saved_instance, capsys,
                                                     case):
    """t, tau, c_t and delta must be finite with 0 < t < tau < 1, c_t > 0 and
    delta = tau - 2t exactly, as build_profile writes them; nothing in the
    replay or in verify reads them, so only this check catches an edit."""
    _, path = saved_instance
    values, message = HEADER_EDITS[case]
    bad = tmp_path / "bad.txt"
    bad.write_text(edit_header(read(path), **values))
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        load_instance(str(bad))
    capsys.readouterr()
    for cmd in (["verify", "--out", str(tmp_path / "v.txt")],
                ["run", "--out", str(tmp_path / "t.csv")]):
        assert main(cmd + ["--instance", str(bad)]) == 1
        assert error_line(capsys).startswith(f"error: {message}")
    assert not (tmp_path / "v.txt").exists() and not (tmp_path / "t.csv").exists()


_SEQ_HEADER = "n,q,gamma,alpha,xi\n"


def edit_rows(text, edit):
    """The instance text with its [sequences] rows (header excluded) passed through edit."""
    head, _, body = text.partition(_SEQ_HEADER)
    return head + _SEQ_HEADER + "\n".join(edit(body.splitlines())) + "\n"


def on_rows(edit):
    """An edit of the whole instance text that passes its rows through edit."""
    return lambda text: edit_rows(text, edit)


# mid_instance: K=200, N=400, n_max=900, so the seed row is 199
ROW_EDITS = {
    "seed_fields": (on_rows(lambda rows: [",".join(rows[0].split(",")[:2]
                                                   + ["nan", "-inf", "nan"])] + rows[1:]),
                    "seed row 199 must have gamma, alpha and xi 0"),
    "extra_row": (on_rows(lambda rows: rows[:1] + ["5,nan,nan,nan,nan"] + rows[1:]),
                  "sequence row 5 outside [K-1, n_max] = [199, 900]"),
    "duplicate_row": (on_rows(lambda rows: rows + [rows[650 - 199]]),
                      "sequence row 650 appears twice"),
    "missing_row": (on_rows(lambda rows: [r for r in rows if not r.startswith("650,")]),
                    "sequence row 650 is missing"),
    # the last of two epsilon= lines won: verify exited 3, and run used 0.25
    "repeated_header_key": (lambda text: re.sub(r"(?m)^(epsilon=.*\n)", r"\1epsilon=0.25\n",
                                                text, count=1),
                            "instance header repeats epsilon="),
    # verify passed: a header line without "=" was read as a key with no value
    "header_line_without_equals": (lambda text: text.replace("epsilon=", "garbage line\nepsilon=",
                                                             1),
                                   "instance header line 'garbage line' is not key=value"),
    # rejected before an array of n_max + 1 entries is allocated
    "n_max_beyond_rows": (lambda text: text.replace("n_max=900\n", "n_max=1000000000000\n"),
                          "sequence row 901 is missing"),
}


@pytest.mark.parametrize("case", list(ROW_EDITS))
def test_instance_needs_one_row_per_step_and_a_zero_seed_row(tmp_path, saved_instance,
                                                             capsys, case):
    # each of these loaded, or failed only in replay or allocation, before the row check
    _, path = saved_instance
    edit, message = ROW_EDITS[case]
    bad = tmp_path / "bad.txt"
    bad.write_text(edit(read(path)))
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        load_instance(str(bad))
    capsys.readouterr()
    for cmd in (["verify", "--out", str(tmp_path / "v.txt")],
                ["run", "--out", str(tmp_path / "t.csv")]):
        assert main(cmd + ["--instance", str(bad)]) == 1
        assert error_line(capsys) == f"error: {message}"
    assert not (tmp_path / "v.txt").exists() and not (tmp_path / "t.csv").exists()


@pytest.mark.filterwarnings("ignore:invalid value")
@settings(max_examples=40, deadline=None)
@given(row=st.integers(199, 900), field=st.integers(1, 4),
       kind=st.sampled_from(["relative", "sign", "zero", "nan", "inf", "-inf"]),
       exponent=st.floats(-6.0, 1.0), down=st.booleans())
def test_corrupted_sequence_field_never_verifies(mid_instance, load_text, row, field,
                                                kind, exponent, down):
    """One corrupted [sequences] field fails the replay or the verification.

    The corruptions are a relative change of at least 1e-6 either way, a
    sign flip, 0, NaN and +-inf, on any row, the seed row included.  A
    smaller relative change is not claimed: one of 1e-9 is inside the step
    conditions' tolerance CONDITION_RTOL (1e-9) and can replay and verify.
    """
    text = instance_to_text(mid_instance[0])
    rows = text.partition(_SEQ_HEADER)[2].splitlines()
    parts = rows[row - 199].split(",")
    old = float(parts[field])
    new = {"relative": old * (1.0 + (-1.0 if down else 1.0) * 10.0 ** exponent),
           "sign": -old, "zero": 0.0, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    assume(not new == old)  # e.g. a sign flip of a zero field
    parts[field] = repr(new)
    rows[row - 199] = ",".join(parts)
    try:
        replayed = load_text(edit_rows(text, lambda _: rows))
    except (ConstructionError, InstanceFormatError):
        return
    assert not verify(replayed).passed


def test_negative_steps_or_epsilon_is_a_usage_error(tmp_path, saved_instance, capsys):
    # 0 still means the default: all n_max - N steps, or a chosen epsilon
    _, path = saved_instance
    out = tmp_path / "t.csv"
    capsys.readouterr()
    assert main(["run", "--instance", path, "--steps", "-5", "--out", str(out)]) == 1
    assert error_line(capsys) == "error: steps must be >= 0 (0 runs n_max - N steps)"
    assert not out.exists()
    assert main(["run", "--instance", path, "--steps", "0", "--out", str(out)]) == 0
    assert len(GreedyTrace.from_csv(read(out))[0].steps) == 500
    outdir = tmp_path / "b"
    for value in ("-0.5", "nan"):
        assert main(["build", "--epsilon", value, "--n-max", "900",
                     "--outdir", str(outdir)]) == 1
        assert error_line(capsys) == "error: epsilon must be >= 0 (0 chooses it)"
    assert not outdir.exists()


@pytest.mark.parametrize("command, flags", [
    ("solve-f", []), ("make-phi", []), ("build", ["--n-max", "900"]),
    ("make-phi", ["--f-csv"]), ("build", ["--n-max", "900", "--f-csv"])])
def test_an_operating_point_that_fails_a_closed_form_exits_3_before_solving(
        tmp_path, capsys, monkeypatch, command, flags):
    """At --beta-margin 0.0001 the closed-form tail_upper_bound is 1.0033, as
    `constants` reports.  solve-f, make-phi and build name that condition and
    exit 3 before they solve or mollify; the --f-csv route checks it once the
    profile's grid is known to start at the operating tau."""
    beta, tau = mpursuit.operating_point(0.0001, cli._MARGINS["tau_margin"])
    if flags[-1:] == ["--f-csv"]:
        csv = tmp_path / "f.csv"
        csv.write_text(mpursuit.bundle(beta, tau).g_grid(201).to_csv())
        flags = [*flags, str(csv)]

    def refuse(*args, **kwargs):
        raise AssertionError("solved or mollified at a failing operating point")
    monkeypatch.setattr(cli, "solve_f", refuse)
    monkeypatch.setattr(phi_builder, "mollify", refuse)
    outdir = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--beta-margin", "0.0001", *flags, "--outdir", str(outdir)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "verification failed: the operating point beta=0.317124293697, tau=0.455572412696 "
        "fails margins.tail_upper_bound (1.00330570403 < 1 is false)"]
    assert not outdir.exists()
    constants = tmp_path / "c.txt"
    assert main(["constants", "--beta-margin", "0.0001", "--out", str(constants)]) == 3
    assert "margins.tail_upper_bound.pass=false" in read(constants).splitlines()


@pytest.mark.parametrize("command", ["solve-f", "make-phi", "build"])
@pytest.mark.parametrize("value", ["0", "-5", "1", "2", "3"])
def test_max_iter_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    # below 4 too: the bracket certificate reads the fourth iterate
    outdir = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--max-iter", value, "--grid-m", "201",
                 "--outdir", str(outdir)]) == 1
    assert error_line(capsys) == ("error: max_iter must be at least 4: the bracket "
                                  "certificate reads the fourth iterate")
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["solve-f", "build"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_is_a_usage_error(tmp_path, capsys, command, value):
    # a NaN tol is never met, an infinite one stops unconverged
    outdir = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--tol", value, "--grid-m", "201", "--outdir", str(outdir)]) == 1
    assert error_line(capsys) == "error: tol must be positive and finite"
    assert not outdir.exists()


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "1.5"], "epsilon must lie in (0, 1)"),
    (["--k", "1"], "K must be at least 2"),
    (["--n", "100", "--k", "200"], "N must be at least K"),
    (["--n-max", "400"], "n_max must exceed N"),
])
def test_build_rejects_bad_sizes_before_solving(tmp_path, capsys, monkeypatch, flags,
                                                message):
    def solve_f(*args, **kwargs):
        raise AssertionError("build solved the profile before checking its sizes")
    monkeypatch.setattr(cli, "solve_f", solve_f)
    outdir = tmp_path / "b"
    capsys.readouterr()
    assert main(["build", *flags, "--outdir", str(outdir)]) == 1
    assert error_line(capsys) == f"error: {message}"
    assert not outdir.exists()


def test_make_phi_short_profile_row_is_a_usage_error(tmp_path, capsys):
    bad = write_curve(tmp_path)
    lines = read(bad).splitlines()
    lines[3] = "0.5"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["make-phi", "--f-csv", str(bad), "--outdir", str(tmp_path)]) == 1
    assert "not two numbers" in error_line(capsys)


def test_run_and_verify_load_no_scipy(tmp_path, saved_instance):
    # scipy is a test-only reference: no command, build included, imports it
    _, path = saved_instance
    code = (
        "import json, sys\n"
        "from mpursuit.cli import main\n"
        f"codes = [main(['run', '--instance', {path!r}, '--steps', '50', "
        f"'--out', {str(tmp_path / 't.csv')!r}]),\n"
        f"         main(['verify', '--instance', {path!r}, "
        f"'--out', {str(tmp_path / 'v.txt')!r}]),\n"
        "         main(['build', '--grid-m', '1001', '--t', '0.05', '--k', '200', "
        f"'--n', '400', '--n-max', '900', '--outdir', {str(tmp_path / 'b')!r}])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy')]))\n")
    src = os.path.dirname(os.path.dirname(mpursuit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert scipy_modules == []


def test_importing_the_cli_loads_no_pool_decimal_or_scipy():
    """`mpursuit --version` pays only for the imports of mpursuit.cli: the
    sweep's thread pool is imported by a sweep that uses one, and decimal
    and scipy by no command."""
    src = os.path.dirname(os.path.dirname(mpursuit.__file__))
    code = ("import json, sys\nimport mpursuit.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'decimal', 'scipy'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout) == []


def test_solved_profile_bytes_do_not_depend_on_blas_threads_or_cpus(tmp_path):
    """solve-f at 1 and 2 BLAS threads, and at 1 thread pinned to one CPU
    (so the sweep runs without a pool), writes the same bodies: Anderson
    mixing reduces with NumPy, not the BLAS, and solves in plain floats."""
    src = os.path.dirname(os.path.dirname(mpursuit.__file__))
    one_cpu = min(os.sched_getaffinity(0))
    bodies = []
    for threads, pin in (("1", False), ("2", False), ("1", True)):
        out = tmp_path / f"s{threads}{pin}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "mpursuit.cli", "solve-f", "--outdir", str(out)],
                       env=env, check=True,
                       preexec_fn=(lambda: os.sched_setaffinity(0, {one_cpu})) if pin else None)
        bodies.append([read(out / name).split("\n", 2)[2]
                       for name in ("solved_profile.csv", "solve_report.txt")])
    assert bodies[0] == bodies[1] == bodies[2]
    assert "bracket_certified=true" in bodies[0][1].splitlines()


def test_run_unknown_algorithm_is_a_usage_error(tmp_path, capsys, saved_instance):
    _, path = saved_instance
    out = tmp_path / "t.csv"
    capsys.readouterr()
    assert main(["run", "--instance", path, "--alg", "frob", "--out", str(out)]) == 1
    assert error_line(capsys) == "error: unknown algorithm 'frob'"
    assert not out.exists()
    # the name is checked before the instance file is read
    missing = str(tmp_path / "missing.txt")
    assert main(["run", "--instance", missing, "--alg", "frob", "--out", str(out)]) == 1
    assert error_line(capsys) == "error: unknown algorithm 'frob'"


def test_run_and_rate_commands(tmp_path, saved_instance):
    inst, path = saved_instance
    trace_path = tmp_path / "trace.csv"
    assert main(["run", "--instance", path, "--alg", "pga",
                 "--out", str(trace_path)]) == 0
    text = read(trace_path)
    assert "n,residual_norm,atom_id,sign,coefficient" in text
    assert "# index_offset=400" in text

    rate_path = tmp_path / "rate.txt"
    assert main(["rate", "--trace", str(trace_path), "--n-min", "500",
                 "--n-max", "900", "--out", str(rate_path)]) == 0
    beta = inst.params.beta
    slope = float(value_of(read(rate_path), "slope"))
    assert abs(slope + (0.5 - beta)) < 0.005

    svg = tmp_path / "trace.svg"
    assert main(["plot", str(trace_path), "--log-log", "--out", str(svg)]) == 0
    assert "<polyline" in read(svg)


def test_rate_witnesses_need_alpha_and_variation_bound(tmp_path, saved_instance):
    inst, path = saved_instance
    trace_path = tmp_path / "trace.csv"
    assert main(["run", "--instance", path, "--out", str(trace_path)]) == 0
    rate_path = tmp_path / "rate.txt"

    def rate(alpha, vb):
        assert main(["rate", "--trace", str(trace_path), "--n-min", "500", "--n-max", "900",
                     "--alpha", repr(alpha), "--variation-bound", repr(vb),
                     "--out", str(rate_path)]) == 0
        return read(rate_path)

    # |r_n| follows (n+1)^(beta-1/2) from n = N+1 on, so with the trace's
    # offset both witnesses are (n/(n+1))^alpha / V, just below 1 / V
    alpha, vb = 0.5 - inst.params.beta, inst.variation_bound
    text = rate(alpha, vb)
    upper = float(value_of(text, "upper_witness"))
    lower = float(value_of(text, "lower_witness"))
    assert np.isfinite(upper) and 0.0 < lower <= upper
    assert 1.0 - 1e-3 < lower * vb <= upper * vb < 1.0
    for a, v in ((0.0, vb), (alpha, 0.0)):
        text = rate(a, v)
        assert "upper_witness=" not in text and "lower_witness=" not in text
        assert value_of(text, "index_offset") == "400"


@pytest.mark.parametrize("flag, value", [
    ("alpha", "nan"), ("alpha", "inf"), ("alpha", "-inf"),
    ("variation-bound", "nan"), ("variation-bound", "inf"), ("variation-bound", "-inf")])
def test_non_finite_rate_bound_is_a_usage_error(tmp_path, capsys, flag, value):
    # each used to exit 0: nan dropped the witness lines, alpha=inf wrote inf
    # witnesses and variation_bound=inf wrote 0
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_HEAD + "".join(f"{n},{n ** -0.2!r},d{400 + n},1,0.1\n"
                                          for n in range(1, 40)))
    other = "--variation-bound" if flag == "alpha" else "--alpha"
    out = tmp_path / "r.txt"
    capsys.readouterr()
    assert main(["rate", "--trace", str(trace), "--n-min", "410", "--n-max", "439",
                 f"--{flag}={value}", other, "1.0", "--out", str(out)]) == 1
    assert error_line(capsys) == f"error: {flag.replace('-', '_')} must be finite"
    assert not out.exists()


def test_rate_missing_file(tmp_path):
    assert main(["rate", "--trace", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "r.txt")]) == 1


def test_build_pipeline_reduced_scale(tmp_path):
    """End-to-end build -> verify -> run -> rate through the CLI.

    Reduced horizon (n_max=900) and grid; the spec-scale numbers live in
    the acceptance suite.  The fitted slope still lands within 0.005 of
    the schedule exponent because the norm schedule is exact at any scale.
    """
    out = tmp_path / "out"
    assert main(["build", "--grid-m", "1001", "--t", "0.05", "--k", "200",
                 "--n", "400", "--n-max", "900", "--outdir", str(out)]) == 0
    report = read(out / "build_report.txt")
    assert "verification.passed=true" in report
    assert "conditions.all_pass=true" in report
    beta = float(value_of(report, "beta"))

    vout = tmp_path / "verify.txt"
    assert main(["verify", "--instance", str(out / "instance.txt"),
                 "--out", str(vout)]) == 0
    assert "passed=true" in read(vout)

    trace = tmp_path / "t.csv"
    assert main(["run", "--instance", str(out / "instance.txt"), "--alg", "pga",
                 "--out", str(trace)]) == 0
    rate = tmp_path / "r.txt"
    assert main(["rate", "--trace", str(trace), "--n-min", "500",
                 "--n-max", "900", "--out", str(rate)]) == 0
    slope = float(value_of(read(rate), "slope"))
    assert abs(slope + (0.5 - beta)) < 0.005


def test_instance_text_round_trip(saved_instance, load_text, residual_history):
    inst, path = saved_instance
    text = read(path)
    body = text[text.index("# mpursuit-instance"):]
    inst2 = load_text(body)
    assert np.array_equal(inst.state.atoms, inst2.state.atoms)
    assert np.array_equal(residual_history(inst.state), residual_history(inst2.state))
    assert instance_to_text(inst2) == body


@pytest.fixture(scope="module")
def instance_2500(tmp_path_factory):
    out = tmp_path_factory.mktemp("b2500")
    assert main(["build", "--n-max", "2500", "--outdir", str(out)]) == 0
    return str(out / "instance.txt")


def cgs2_oga(f, dictionary, steps):
    """OGA as it ran before the single-pass projection: full-width selection,
    and each new atom orthogonalized by two full-width classical Gram-Schmidt
    passes (CGS2).  Returns the (atom index, sign) picks and residual norms."""
    mat = dictionary.matrix()
    width = max(dictionary.width, f.active_len)
    r = f.padded(width)
    basis = np.zeros((steps, width))
    nbasis, picks, norms = 0, [], []
    for _ in range(steps):
        vals = mat @ r[: mat.shape[1]]
        j = int(np.argmax(np.abs(vals)))
        sign = 1 if vals[j] >= 0.0 else -1
        bb = np.zeros(width)
        bb[: mat.shape[1]] = sign * mat[j]
        for _ in range(2):
            bb -= basis[:nbasis].T @ (basis[:nbasis] @ bb)
        nb = float(np.linalg.norm(bb))
        if nb > 1e-12:
            bb /= nb
            basis[nbasis] = bb
            nbasis += 1
            r -= (r @ bb) * bb
        picks.append((j, sign))
        norms.append(float(np.linalg.norm(r)))
    return picks, np.array(norms)


def test_oga_single_pass_keeps_the_output_contract_of_cgs2(instance_2500):
    """The output contract of DECISIONS.md between run("oga") and the CGS2
    projection it replaced: the same atoms and signs at all 2100 steps, and
    each residual norm within 4 ulps."""
    inst = load_instance(instance_2500)
    steps = inst.params.n_max - inst.params.N
    trace = run("oga", inst.f, inst.dictionary, steps)
    picks, ref = cgs2_oga(inst.f, inst.dictionary, steps)
    assert len(trace.steps) == steps == 2100
    labels = inst.dictionary.labels
    assert [(s.atom_id, s.sign) for s in trace.steps] == [(labels[j], sign) for j, sign in picks]
    assert np.all(np.abs(trace.residual_norms - ref) <= 4 * np.spacing(ref))


def test_oga_blocks_keep_the_output_contract_of_the_single_pass(tmp_path, instance_2500,
                                                                single_pass_oga):
    """The output contract of DECISIONS.md between `run --alg oga` in
    look-ahead blocks and the single-pass loop it replaced: the same atoms
    and signs at all 2100 steps, and each residual norm within 4 ulps."""
    out = tmp_path / "trace.csv"
    assert main(["run", "--instance", instance_2500, "--alg", "oga", "--out", str(out)]) == 0
    trace = GreedyTrace.from_csv(read(out))[0]
    inst = load_instance(instance_2500)
    picks, ref = single_pass_oga(inst.f, inst.dictionary, 2100)
    labels = inst.dictionary.labels
    assert len(trace.steps) == len(picks) == 2100
    assert [(s.atom_id, s.sign) for s in trace.steps] == [(labels[j], sign) for j, sign in picks]
    assert np.all(np.abs(trace.residual_norms - ref) <= 4 * np.spacing(ref))


def direct_pga(f, dictionary, steps, shrinkage):
    """PGA as it ran before selection from running inner products: each step
    multiplies the dictionary by the residual's 64-aligned live prefix.
    Returns the (atom index, sign) picks, coefficients and residual norms."""
    mat = dictionary.matrix()
    r = f.padded(max(dictionary.width, f.active_len))
    live, picks, coeffs, norms = f.active_len, [], [], []
    for _ in range(steps):
        cols = min(mat.shape[1], -(-live // 64) * 64)
        vals = mat[:, :cols] @ r[:cols]
        j = int(np.argmax(np.abs(vals)))
        v = float(vals[j])
        sign = 1 if v >= 0.0 else -1
        live = max(live, dictionary.atoms[j].active_len)
        coeff = shrinkage * abs(v)
        r[: mat.shape[1]] -= coeff * (sign * mat[j])
        picks.append((j, sign))
        coeffs.append(coeff)
        norms.append(float(np.linalg.norm(r)))
    return picks, np.array(coeffs), np.array(norms)


@pytest.mark.parametrize("alg, shrinkage", [("pga", 1.0), ("pga_shrink", 0.5)])
def test_gram_selection_keeps_the_output_contract_of_direct_selection(
        instance_2500, alg, shrinkage):
    """The output contract of DECISIONS.md between selection from running
    inner products and the direct selection it replaced: the same atoms and
    signs at all 2100 steps, and each residual norm within 4 ulps.  The
    coefficients, which the contract leaves free, agree to 1e-12 relative."""
    inst = load_instance(instance_2500)
    steps = inst.params.n_max - inst.params.N
    trace = run(alg, inst.f, inst.dictionary, steps, shrinkage=shrinkage)
    picks, coeffs, ref = direct_pga(inst.f, inst.dictionary, steps, shrinkage)
    assert len(trace.steps) == steps == 2100
    labels = inst.dictionary.labels
    assert [(s.atom_id, s.sign) for s in trace.steps] == [(labels[j], sign) for j, sign in picks]
    assert np.all(np.abs(trace.residual_norms - ref) <= 4 * np.spacing(ref))
    got = np.array([s.coefficient for s in trace.steps])
    assert np.all(np.abs(got - coeffs) <= 1e-12 * np.abs(coeffs))


@pytest.mark.parametrize("alg, shrinkage", [("pga", 1.0), ("pga_shrink", 0.5), ("rga", 1.0)])
def test_gram_rows_on_demand_keep_the_output_contract_of_the_full_gram(
        instance_2500, full_gram_run, alg, shrinkage):
    """The output contract of DECISIONS.md between Gram rows formed in blocks
    as the picks need them and the whole Gram matrix formed once: the same
    atoms and signs at all 2100 steps, and each residual norm within 4 ulps.
    The coefficients, which the contract leaves free, agree to 1e-12
    relative."""
    inst = load_instance(instance_2500)
    steps = inst.params.n_max - inst.params.N
    vb = inst.variation_bound
    trace = run(alg, inst.f, inst.dictionary, steps, shrinkage=shrinkage, variation_bound=vb)
    picks, coeffs, ref = full_gram_run(alg, inst.f, inst.dictionary, steps, shrinkage, vb)
    assert len(trace.steps) == steps == 2100
    labels = inst.dictionary.labels
    assert [(s.atom_id, s.sign) for s in trace.steps] == [(labels[j], sign) for j, sign in picks]
    assert np.all(np.abs(trace.residual_norms - ref) <= 4 * np.spacing(ref))
    got = np.array([s.coefficient for s in trace.steps])
    assert np.all(np.abs(got - coeffs) <= 1e-12 * np.abs(coeffs))


def test_run_holds_one_atom_store_and_no_residual_history(tmp_path, monkeypatch,
                                                         saved_instance):
    """The loaded construction state stays alive through the run, so it must
    hold no n_max x n_max array but the atom store, and the run must read
    that store, not a copy."""
    _, path = saved_instance
    states, shared = [], []

    def load_and_watch(p):
        inst = load_instance(p)
        wide = {name for name, value in vars(inst.state).items()
                if isinstance(value, np.ndarray) and value.ndim == 2 and len(value) > 1}
        assert wide == {"atoms"}
        assert inst.state.r_hist.shape == (1, inst.params.n_max)
        states.append(inst.state)
        return inst

    def watched_run(alg, f, dictionary, *args, **kwargs):
        shared.append(np.shares_memory(states[0].atoms, dictionary.matrix()))
        return run(alg, f, dictionary, *args, **kwargs)

    monkeypatch.setattr(cli, "load_instance", load_and_watch)
    monkeypatch.setattr(cli, "run", watched_run)
    assert main(["run", "--instance", path, "--steps", "5",
                 "--out", str(tmp_path / "t.csv")]) == 0
    assert shared == [True]


_SMAPS_PROBE = """
import json, mmap, sys, weakref
from mpursuit import adversarial
from mpursuit.instance_io import load_instance

inst = load_instance(sys.argv[1])
st = inst.state
made, page_rows = [], adversarial.page_rows
adversarial.page_rows = lambda rows, width: made.append(page_rows(rows, width)) or made[-1]
tables = inst.oracle_tables()
# the oracle keeps no 2-D array, and no correction vectors
assert [name for name, v in vars(tables).items() if getattr(v, "ndim", 0) == 2] == []
assert made == []
N, n_max = st.N, st.n_max
nblocks = -(-(n_max - N) // adversarial._VERIFY_BLOCK)


def own_pages(lengths):   # bytes of the pages of rows holding lengths[i] entries each
    return mmap.PAGESIZE * sum(-(-8 * k // mmap.PAGESIZE) for k in lengths)


def extent(a):            # the addresses a's rows span
    return a.ctypes.data, a.ctypes.data + a.strides[0] * len(a)


snapshots, walk, last = [], tables.blocks(), None
for k0, k1 in tables.tiles:
    for _ in range(nblocks):   # the tile's blocks: after the last the open walk holds it
        next(walk)
    tile = weakref.ref(made.pop())
    assert made == [] and (last is None or last() is None)   # one tile at a time
    # each at the pages of its own rows: the atom store's blended atom of N
    # entries then d_N..d_n_max, d_k of k entries, and the tile's d_k0..d_k1-1
    arrays = {"atoms": (*extent(st.atoms), own_pages([N, *range(N, n_max + 1)])),
              "tile": (*extent(tile()), own_pages(range(k0, k1)))}
    maps = []
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()
            if head[0] == "Rss:":
                maps[-1][2] = int(head[1]) * 1024
            elif not head[0].endswith(":"):
                lo, hi = head[0].split("-")
                maps.append([int(lo, 16), int(hi, 16), 0])
    snapshots.append({"arrays": arrays, "maps": maps})
    last = tile
assert next(walk, None) is None and last() is None
print(json.dumps(snapshots))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
def test_resident_memory_follows_the_nonzero_structure(instance_2500):
    """In a fresh process that replays the 2500 instance and walks its oracle
    tables, which hold no 2-D array, the resident pages of the atom store
    and of each tile of the oracle's atoms, read after the tile's last block
    while the walk holds it, number at most the pages of their own rows,
    sum ceil(8 k / PAGESIZE) over rows of k written entries: each row starts
    on a page, and shares none with another row.  No two tiles are alive at
    once.  Dense, the atom store would take 42.0 MB against a bound of
    28.6 MB (rows that share pages took 31.9 MB).  The three tiles map 13.3,
    11.8 and 9.1 MB against bounds of 10.3, 9.2 and 9.1 MB.  The kernel
    merges adjacent mappings with the same flags, so the Rss of every
    mapping that overlaps an array counts, against the bounds of every
    array those mappings overlap."""
    src = os.path.dirname(os.path.dirname(mpursuit.__file__))
    proc = subprocess.run([sys.executable, "-c", _SMAPS_PROBE, instance_2500],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    snapshots = json.loads(proc.stdout.splitlines()[-1])
    assert len(snapshots) == 3

    def meets(a, b):
        return a[0] < b[1] and b[0] < a[1]

    for snapshot in snapshots:
        arrays, maps = snapshot["arrays"].values(), snapshot["maps"]
        for array in arrays:
            group, over = [array], []
            while True:  # the arrays and mappings linked to this array by overlaps
                over = [m for m in maps if any(meets(m, a) for a in group)]
                linked = [a for a in arrays if any(meets(a, m) for m in over)]
                if len(linked) == len(group):
                    break
                group = linked
            rss = sum(m[2] for m in over)
            bound = sum(written for _, _, written in group)
            assert 0 < rss <= bound, (array, rss, bound)


@pytest.mark.parametrize("alg", ["pga", "oga"])
def test_run_output_contract_across_blas_threads(tmp_path, instance_2500, alg):
    """The output contract of DECISIONS.md: at 1 and 2 BLAS threads a run
    picks the same atoms with the same signs, and each residual norm agrees
    to 4 ulps.  With OpenBLAS at n_max=2500 the two traces part in their
    last bits (PGA from step 1072, OGA from step 271 on a 2-core Xeon), so
    the bound is exercised; at n_max=900 they are bit-identical."""
    src = os.path.dirname(os.path.dirname(mpursuit.__file__))
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace_{threads}.csv"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "mpursuit.cli", "run", "--instance",
                        instance_2500, "--alg", alg, "--out", str(out)],
                       env=env, check=True)
        traces.append(GreedyTrace.from_csv(read(out))[0])
    one, two = traces
    assert len(one.steps) == len(two.steps) == 2100
    assert [(s.atom_id, s.sign) for s in one.steps] == [(s.atom_id, s.sign) for s in two.steps]
    r1, r2 = one.residual_norms, two.residual_norms
    assert np.all(np.abs(r1 - r2) <= 4 * np.spacing(r2))
