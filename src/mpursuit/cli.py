"""Command-line front end.

Commands: constants, solve-f, make-phi, build, verify, run, rate, plot.
Every output file starts with a header echoing the resolved configuration
and the package version; reruns with an identical configuration and BLAS
thread count produce byte-identical files.  Exit codes: 0 success, 1 usage
(including a malformed instance file), 2 numeric failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .adversarial import build_instance, verify
from .analysis import check_bounds, fit_decay
from .constants import bundle, operating_point, solve_beta_star, solve_gamma, tau_star
from .errors import NumericFailure
from .greedy_algorithms import ALGORITHMS, GreedyTrace, TraceStep, run
from .grid_functions import GridFunction
from .instance_io import load_instance, save_instance
from .integral_equation import residual_on_refined, solve_f
from .phi_builder import build_profile
from .svg import line_plot

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_VERIFY = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _read_config_file(args.config)
        for key, val in file_cfg.items():
            if key in cfg:
                cfg[key] = type(defaults[key])(val) if defaults[key] is not None else val
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _header(command: str, cfg: dict) -> str:
    body = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return f"# mpursuit {command} v{__version__}\n# config: {body}\n"


def _write(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------- commands


def cmd_constants(args) -> int:
    cfg = _resolve(args, {"shrinkage": 1.0, "beta_margin": 0.002,
                          "tau_margin": 0.98, "out": "constants.txt"})
    s = cfg["shrinkage"]
    if not 0.0 < s <= 1.0:
        print("shrinkage must lie in (0, 1]", file=sys.stderr)
        return EXIT_USAGE
    rate = solve_gamma(s)
    beta_star = solve_beta_star()
    t_star = tau_star(beta_star)
    beta_op, tau_op = operating_point(cfg["beta_margin"], cfg["tau_margin"])
    bun = bundle(beta_op, tau_op)
    lines = [
        f"s={_fmt(rate.s)}",
        f"gamma={_fmt(rate.gamma)}",
        f"alpha={_fmt(rate.alpha)}",
        f"beta={_fmt(rate.beta)}",
        f"gamma_equation_residual={rate.residual:.3e}",
        f"beta_star={_fmt(beta_star)}",
        f"tau_star={_fmt(t_star)}",
        f"operating.beta={_fmt(beta_op)}",
        f"operating.tau={_fmt(tau_op)}",
        f"c={_fmt(bun.c)}",
        f"R_G={_fmt(bun.rg)}",
        f"R_G_scan={_fmt(bun.rg_scan)}",
    ]
    for m in bun.condition_margins:
        lines.append(f"margins.{m.name}.value={_fmt(m.value)}")
        lines.append(f"margins.{m.name}.bound={_fmt(m.bound)} (strict {m.sense})")
        lines.append(f"margins.{m.name}.pass={'true' if m.passed else 'false'}")
    _write(cfg["out"], _header("constants", cfg) + "\n".join(lines) + "\n")
    return EXIT_OK if bun.all_strict else EXIT_VERIFY


def _solve_profile(cfg):
    beta, tau = operating_point(cfg["beta_margin"], cfg["tau_margin"])
    bun = bundle(beta, tau)
    g = bun.g_grid(cfg["grid_m"])
    report = solve_f(g, tau, tol=cfg["tol"], max_iter=cfg["max_iter"])
    return beta, tau, g, report


def cmd_solve_f(args) -> int:
    cfg = _resolve(args, {"beta_margin": 0.002, "tau_margin": 0.98,
                          "grid_m": 2001, "tol": 1e-8, "max_iter": 500,
                          "outdir": "."})
    beta, tau, g, report = _solve_profile(cfg)
    head = _header("solve-f", cfg)
    for j, it in enumerate(report.iterates[:4]):
        _write(os.path.join(cfg["outdir"], f"iterate_{j}.csv"), head + it.to_csv())
    fbar = report.converged_f
    _write(os.path.join(cfg["outdir"], "solved_profile.csv"), head + fbar.to_csv())
    refined = residual_on_refined(g, fbar)
    lines = [
        f"beta={_fmt(beta)}",
        f"tau={_fmt(tau)}",
        f"iterations={report.iterations}",
        f"bracket_width={report.bracket_width:.6e}",
        f"residual_sup={report.residual_sup:.6e}",
        f"residual_sup_refined={refined:.6e}",
        f"f3_min={_fmt(report.f3_min)}",
        f"R_G={_fmt(report.rg)}",
        f"deriv_sup={_fmt(report.deriv_sup)}",
        f"deriv_bound={_fmt(report.deriv_bound)}",
    ]
    _write(os.path.join(cfg["outdir"], "solve_report.txt"),
           head + "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_make_phi(args) -> int:
    cfg = _resolve(args, {"beta_margin": 0.002, "tau_margin": 0.98,
                          "grid_m": 2001, "tol": 1e-8, "max_iter": 500,
                          "t": 0.01, "f_csv": "", "outdir": "."})
    if cfg["f_csv"]:
        with open(cfg["f_csv"], "r", encoding="utf-8") as fh:
            fbar = GridFunction.from_csv(fh.read())
        beta, tau = operating_point(cfg["beta_margin"], cfg["tau_margin"])
    else:
        beta, tau, _, report = _solve_profile(cfg)
        fbar = report.converged_f
    fext = fbar.with_extension(left_zero=True, right_hold=True)
    profile, report = build_profile(fext, beta, tau, t=cfg["t"])
    head = _header("make-phi", cfg)
    _write(os.path.join(cfg["outdir"], "phi.csv"), head + profile.phi.to_csv())
    lines = [
        f"beta={_fmt(beta)}",
        f"tau={_fmt(tau)}",
        f"t={_fmt(profile.t)}",
        f"c_t={_fmt(profile.c_t)}",
        f"delta={_fmt(profile.delta)}",
        report.to_text().rstrip("\n"),
    ]
    _write(os.path.join(cfg["outdir"], "phi_report.txt"),
           head + "\n".join(lines) + "\n")
    return EXIT_OK if report.all_pass else EXIT_VERIFY


def cmd_build(args) -> int:
    cfg = _resolve(args, {"beta_margin": 0.002, "tau_margin": 0.98,
                          "grid_m": 2001, "tol": 1e-8, "max_iter": 500,
                          "t": 0.05, "k": 200, "n": 400, "n_max": 5000,
                          "epsilon": 0.0, "f_csv": "", "outdir": "."})
    if cfg["f_csv"]:
        with open(cfg["f_csv"], "r", encoding="utf-8") as fh:
            fbar = GridFunction.from_csv(fh.read())
        beta, tau = operating_point(cfg["beta_margin"], cfg["tau_margin"])
    else:
        beta, tau, _, report_f = _solve_profile(cfg)
        fbar = report_f.converged_f
    fext = fbar.with_extension(left_zero=True, right_hold=True)
    profile, cond_report = build_profile(fext, beta, tau, t=cfg["t"])
    eps = cfg["epsilon"] if cfg["epsilon"] > 0.0 else None
    instance, vreport = build_instance(profile, K=cfg["k"], N=cfg["n"],
                                       n_max=cfg["n_max"], epsilon=eps)
    head = _header("build", cfg)
    os.makedirs(cfg["outdir"], exist_ok=True)
    save_instance(instance, os.path.join(cfg["outdir"], "instance.txt"), header=head)
    st = instance.state
    lines = [
        f"beta={_fmt(beta)}",
        f"tau={_fmt(tau)}",
        f"t={_fmt(profile.t)}",
        f"K={instance.params.K}",
        f"N={instance.params.N}",
        f"n_max={instance.params.n_max}",
        f"epsilon={instance.params.epsilon:.17g}",
        f"variation_bound={_fmt(instance.variation_bound)}",
        f"alpha_final={_fmt(float(st.alpha[st.n_max]))}",
        f"xi_final={_fmt(float(st.xi[st.n_max]))}",
        "conditions." + cond_report.to_text().rstrip("\n").replace("\n", "\nconditions."),
        "verification." + vreport.to_text().rstrip("\n").replace("\n", "\nverification."),
    ]
    _write(os.path.join(cfg["outdir"], "build_report.txt"),
           head + "\n".join(lines) + "\n")
    return EXIT_OK if vreport.passed else EXIT_VERIFY


def cmd_verify(args) -> int:
    cfg = _resolve(args, {"instance": "instance.txt", "out": "verify_report.txt"})
    head = _header("verify", cfg)
    try:
        instance = load_instance(cfg["instance"])
    except NumericFailure as err:
        _write(cfg["out"], head + f"replay_failed={err}\npassed=false\n")
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    report = verify(instance)
    _write(cfg["out"], head + report.to_text())
    if not report.passed:
        print("verification failed: see report", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _resolve(args, {"instance": "instance.txt", "alg": "pga",
                          "steps": 0, "shrinkage": 1.0, "out": ""})
    if cfg["alg"] not in ALGORITHMS:
        print(f"unknown algorithm {cfg['alg']!r}", file=sys.stderr)
        return EXIT_USAGE
    instance = load_instance(cfg["instance"])
    p = instance.params
    steps = cfg["steps"] if cfg["steps"] > 0 else p.n_max - p.N
    trace = run(cfg["alg"], instance.f, instance.dictionary, steps,
                shrinkage=cfg["shrinkage"],
                variation_bound=instance.variation_bound)
    out = cfg["out"] or f"trace_{cfg['alg']}.csv"
    head = _header("run", cfg) + f"# index_offset={p.N}\n"
    _write(out, head + trace.to_csv())
    return EXIT_OK


def _trace_from_csv(path: str) -> tuple[GreedyTrace, int]:
    offset = 0
    trace = GreedyTrace(algorithm="file", shrinkage=1.0)
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("# index_offset="):
                offset = int(line.partition("=")[2])
                continue
            if not line or line.startswith("#") or line.startswith("n,"):
                continue
            n_s, rn, atom, sign, coeff = line.split(",")
            trace.steps.append(TraceStep(int(n_s), atom, int(sign),
                                         float(coeff), float(rn)))
    return trace, offset


def cmd_rate(args) -> int:
    cfg = _resolve(args, {"trace": "trace_pga.csv", "n_min": 500,
                          "n_max": 5000, "offset": -1, "alpha": 0.0,
                          "variation_bound": 0.0, "out": "rate_report.txt"})
    trace, file_offset = _trace_from_csv(cfg["trace"])
    offset = cfg["offset"] if cfg["offset"] >= 0 else file_offset
    fit = fit_decay(trace, cfg["n_min"], cfg["n_max"], index_offset=offset)
    lines = [
        f"slope={_fmt(fit.slope)}",
        f"intercept={_fmt(fit.intercept)}",
        f"r_squared={_fmt(fit.r_squared)}",
        f"n_min={fit.range[0]}",
        f"n_max={fit.range[1]}",
        f"points={fit.points}",
        f"index_offset={offset}",
    ]
    if cfg["alpha"] > 0.0 and cfg["variation_bound"] > 0.0:
        rep = check_bounds(trace, cfg["alpha"], cfg["variation_bound"],
                           index_offset=offset)
        lines.append(f"upper_witness={_fmt(rep.upper_witness)}")
        lines.append(f"lower_witness={_fmt(rep.lower_witness)}")
    _write(cfg["out"], _header("rate", cfg) + "\n".join(lines) + "\n")
    return EXIT_OK


def _load_curve(path: str):
    xs, ys = [], []
    kind = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("x,"):
                kind = "grid"
                continue
            if line.startswith("n,"):
                kind = "trace"
                continue
            parts = line.split(",")
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
    if kind is None:
        raise ValueError(f"{path}: not a grid or trace CSV")
    return np.array(xs), np.array(ys)


def cmd_plot(args) -> int:
    cfg = _resolve(args, {"out": "plot.svg", "log_log": False, "title": ""})
    if not args.inputs:
        print("plot needs at least one input CSV", file=sys.stderr)
        return EXIT_USAGE
    curves, labels = [], []
    for path in args.inputs:
        curves.append(_load_curve(path))
        labels.append(os.path.splitext(os.path.basename(path))[0])
    line_plot(curves, labels, cfg["out"], log_x=cfg["log_log"],
              log_y=cfg["log_log"], title=cfg["title"],
              header_lines=[_header("plot", cfg).strip()])
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--seed", type=int, default=None, help="seed echoed into headers")


def build_parser() -> _Parser:
    parser = _Parser(prog="mpursuit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="solve the rate equations and closed forms")
    sp.add_argument("--shrinkage", type=float, default=None)
    sp.add_argument("--beta-margin", dest="beta_margin", type=float, default=None)
    sp.add_argument("--tau-margin", dest="tau_margin", type=float, default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("solve-f", help="solve the profile integral equation")
    for flag, typ in (("--beta-margin", float), ("--tau-margin", float),
                      ("--grid-m", int), ("--tol", float), ("--max-iter", int)):
        sp.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ, default=None)
    sp.add_argument("--outdir", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve_f)

    sp = sub.add_parser("make-phi", help="mollify and certify the weight profile")
    for flag, typ in (("--beta-margin", float), ("--tau-margin", float),
                      ("--grid-m", int), ("--tol", float), ("--max-iter", int),
                      ("--t", float)):
        sp.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ, default=None)
    sp.add_argument("--f-csv", dest="f_csv", default=None,
                    help="solved profile CSV (skips the solve)")
    sp.add_argument("--outdir", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_make_phi)

    sp = sub.add_parser("build", help="build and verify a worst-case instance")
    for flag, typ in (("--beta-margin", float), ("--tau-margin", float),
                      ("--grid-m", int), ("--tol", float), ("--max-iter", int),
                      ("--t", float), ("--k", int), ("--n", int),
                      ("--n-max", int), ("--epsilon", float)):
        sp.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ, default=None)
    sp.add_argument("--f-csv", dest="f_csv", default=None)
    sp.add_argument("--outdir", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify", help="replay an instance file and verify it")
    sp.add_argument("--instance", default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("run", help="run a greedy algorithm on an instance")
    sp.add_argument("--instance", default=None)
    sp.add_argument("--alg", default=None, choices=ALGORITHMS)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--shrinkage", type=float, default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("rate", help="fit a decay exponent to a trace CSV")
    sp.add_argument("--trace", default=None)
    sp.add_argument("--n-min", dest="n_min", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--offset", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--variation-bound", dest="variation_bound", type=float,
                    default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("plot", help="render grid/trace CSVs to a static SVG")
    sp.add_argument("inputs", nargs="*")
    sp.add_argument("--out", default=None)
    sp.add_argument("--log-log", dest="log_log", action="store_const", const=True,
                    default=None)
    sp.add_argument("--title", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
