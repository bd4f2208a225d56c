import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mpursuit
from mpursuit.cli import main
from mpursuit.errors import ConstructionError, InstanceFormatError
from mpursuit.instance_io import instance_to_text, load_instance, save_instance


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def value_of(text, key):
    m = re.search(rf"^{re.escape(key)}=(.*)$", text, re.MULTILINE)
    assert m, f"{key} not found"
    return m.group(1)


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


def test_constants_usage_error(tmp_path):
    assert main(["constants", "--shrinkage", "2",
                 "--out", str(tmp_path / "c.txt")]) == 1


def test_constants_reruns_byte_identical(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["constants", "--shrinkage", "1", "--out", str(out)]) == 0
    first = read(out)
    assert main(["constants", "--shrinkage", "1", "--out", str(out)]) == 0
    assert read(out) == first


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shrinkage=0.5\nout=ignored.txt\n")
    out = tmp_path / "c.txt"
    assert main(["constants", "--config", str(cfgfile), "--out", str(out)]) == 0
    text = read(out)
    assert value_of(text, "s") == "0.5"     # file overrides default
    assert "out=" + str(out) in text          # flag overrides file


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


def test_plot_requires_inputs(tmp_path):
    assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 1


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


def test_instance_missing_header_key_is_a_usage_error(tmp_path, saved_instance, capsys):
    _, path = saved_instance
    text = "".join(line for line in read(path).splitlines(keepends=True)
                   if not line.startswith("epsilon="))
    with pytest.raises(InstanceFormatError, match="epsilon="):
        load_instance(text, is_text=True)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    capsys.readouterr()
    for cmd in (["verify", "--out", str(tmp_path / "v.txt")],
                ["run", "--out", str(tmp_path / "t.csv")]):
        assert main(cmd + ["--instance", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "epsilon=" in err[0]


def test_run_and_verify_load_no_scipy(tmp_path, saved_instance):
    _, path = saved_instance
    code = (
        "import json, sys\n"
        "from mpursuit.cli import main\n"
        f"codes = [main(['run', '--instance', {path!r}, '--steps', '50', "
        f"'--out', {str(tmp_path / 't.csv')!r}]),\n"
        f"         main(['verify', '--instance', {path!r}, "
        f"'--out', {str(tmp_path / 'v.txt')!r}])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy')]))\n")
    src = os.path.dirname(os.path.dirname(mpursuit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert scipy_modules == []


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
