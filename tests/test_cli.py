import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mpursuit
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
    ("tol=1e-8x", "config tol='1e-8x': could not convert string to float: '1e-8x'")])
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
    assert float(value_of(report, "f3_min")) > 0.0

    ph = tmp_path / "ph"
    assert main(["make-phi", "--f-csv", str(sf / "solved_profile.csv"),
                 "--t", "0.01", "--outdir", str(ph)]) == 0
    rep = read(ph / "phi_report.txt")
    assert "all_pass=true" in rep
    assert float(value_of(rep, "growth_bound_sup.value")) < 1.0
    assert float(value_of(rep, "tail_bound_sup.value")) < 1.0

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


def test_plot_requires_inputs(tmp_path, capsys):
    assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 1
    assert "inputs" in error_line(capsys, usage=True)
    assert not (tmp_path / "x.svg").exists()


TRACE_HEAD = "# index_offset=400\nn,residual_norm,atom_id,sign,coefficient\n"


@pytest.mark.parametrize("text, message", [
    ("# lo=0,hi=1,M=3\nx,value\n0,1\n0.5\n1,1\n", "not two numbers"),
    (TRACE_HEAD + "1,0.5,d401,1,0.1\n2,0.4,d402,1\n", "is not n,residual_norm"),
    ("a,b\n1,2\n", "not a grid or trace CSV"),
])
def test_plot_malformed_input_is_a_usage_error(tmp_path, capsys, text, message):
    good, bad = write_curve(tmp_path), tmp_path / "bad.csv"
    bad.write_text(text)
    svg = tmp_path / "p.svg"
    capsys.readouterr()
    assert main(["plot", str(good), str(bad), "--out", str(svg)]) == 1
    assert message in error_line(capsys)
    assert not svg.exists()


def test_rate_short_trace_row_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(TRACE_HEAD + "1,0.5,d401,1,0.1\n2,0.4,d402,1\n")
    out = tmp_path / "r.txt"
    capsys.readouterr()
    assert main(["rate", "--trace", str(bad), "--out", str(out)]) == 1
    assert "'2,0.4,d402,1' is not n,residual_norm" in error_line(capsys)
    assert not out.exists()


@pytest.fixture(scope="module")
def saved_instance(tmp_path_factory, mid_instance):
    inst, _ = mid_instance
    path = tmp_path_factory.mktemp("inst") / "instance.txt"
    save_instance(inst, str(path))
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
    text = "\n".join(lines) + "\n"
    with pytest.raises(ConstructionError, match=f"step {row} "):
        load_instance(text, is_text=True)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "v.txt"
    assert main(["verify", "--instance", str(bad), "--out", str(out)]) == 3
    report = read(out)
    assert f"replay_failed=step {row} " in report
    assert "passed=false" in report


@pytest.mark.parametrize("route", ["oracle", "direct"])
def test_verify_names_first_non_finite_row(saved_instance, route):
    # non-finite values reaching verify by a path other than replay: the
    # seed q feeds every oracle row, r_{N+50} the direct row of n = N+51
    _, path = saved_instance
    inst = load_instance(path)
    st = inst.state
    if route == "oracle":
        st.q[st.K - 1] = np.nan
        first = st.N + 1
    else:
        st.residual_row(st.N + 50)[10] = np.nan
        first = st.N + 51
    inst._tables = None
    report = verify(inst)
    assert not report.passed and not report.all_strict
    assert report.notes == f"non-finite inner product at n={first}"
    assert "passed=false" in report.to_text()
    if route == "oracle":
        assert np.isnan(report.min_margin_oracle)


def test_instance_missing_header_key_is_a_usage_error(tmp_path, saved_instance, capsys):
    _, path = saved_instance
    lines = read(path).splitlines(keepends=True)
    no_epsilon = "".join(line for line in lines if not line.startswith("epsilon="))
    with pytest.raises(InstanceFormatError, match="epsilon="):
        load_instance(no_epsilon, is_text=True)
    # a [phi] data row cut to its x column, and one whose x is off its node
    row = lines.index("[phi]\n") + 4
    x, value = lines[row].split(",")
    cut_phi = "".join(lines[:row] + [x + "\n"] + lines[row + 1:])
    moved_x = "".join(lines[:row] + [f"{float(x) + 1e-6!r},{value}"] + lines[row + 1:])
    for text, key in ((no_epsilon, "epsilon="), (cut_phi, "not two numbers"),
                      (moved_x, "is not grid node 1")):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        capsys.readouterr()
        for cmd in (["verify", "--out", str(tmp_path / "v.txt")],
                    ["run", "--out", str(tmp_path / "t.csv")]):
            assert main(cmd + ["--instance", str(bad)]) == 1
            assert key in error_line(capsys)


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


def test_instance_text_round_trip(saved_instance):
    inst, path = saved_instance
    text = read(path)
    body = text[text.index("# mpursuit-instance"):]
    inst2 = load_instance(body, is_text=True)
    assert np.array_equal(inst.state.atoms, inst2.state.atoms)
    assert np.array_equal(inst.state.r_hist, inst2.state.r_hist)
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
    assert [(j, s.sign) for j, s in zip(trace.atom_indices, trace.steps)] == picks
    assert np.all(np.abs(trace.residual_norms - ref) <= 4 * np.spacing(ref))


@pytest.mark.parametrize("alg", ["pga", "oga"])
def test_run_output_contract_across_blas_threads(tmp_path, instance_2500, alg):
    """The output contract of DECISIONS.md: at 1 and 2 BLAS threads a run
    picks the same atoms with the same signs, and each residual norm agrees
    to 4 ulps.  With OpenBLAS at n_max=2500 the two traces part in their
    last bits (PGA from step 1047 or later, OGA from step 793), so the
    bound is exercised; at n_max=900 they are bit-identical."""
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
