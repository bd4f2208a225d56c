"""Command-line front end.

Commands: constants, solve-f, make-phi, build, verify, run, rate, plot.
Every output file starts with a header echoing the resolved configuration
and the package version; reruns with an identical configuration and BLAS
thread count produce byte-identical files.  Exit codes: 0 success, 1 usage
(including a malformed instance file), 2 numeric failure, 3 verification
failure (also an operating point that fails a closed-form condition).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .adversarial import build_instance, check_sizes, verify
from .analysis import check_bounds, fit_decay
from .constants import bundle, operating_point, solve_beta_star, solve_gamma, tau_star
from .errors import ConditionFailure, NumericFailure, key_values
from .greedy_algorithms import GreedyTrace, check_algorithm, run
from .grid_functions import GridFunction
from .instance_io import load_instance, save_instance
from .integral_equation import residual_on_refined, solve_f
from .phi_builder import build_profile
from .svg import line_plot

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_VERIFY = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve(args, options: dict) -> dict:
    """Table defaults < config file < explicit flags.

    Config lines other than blank and # ones are key=value.  A key that only
    another command declares is ignored, so one file can serve the whole
    pipeline; a key that no command declares is a usage error.
    """
    cfg = dict(options)
    lines = [line.strip() for line in (_read(args.config) if args.config else "").splitlines()]
    for key, val in key_values([line for line in lines if line and not line.startswith("#")],
                               "config").items():
        if key not in options:
            if not any(key in opts for _, _, opts in COMMANDS.values()):
                raise ValueError(f"config key {key!r} is not an option of any command")
            continue
        kind = type(options[key])
        try:
            if kind is bool and val.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            cfg[key] = val.lower() == "true" if kind is bool else kind(val)
        except ValueError as err:
            raise ValueError(f"config {key}={val!r}: {err}") from None
    for key in cfg:
        flag = getattr(args, key)
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


def cmd_constants(cfg) -> int:
    rate = solve_gamma(cfg["shrinkage"])
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
        lines += m.lines("margins.", f" (strict {m.sense})")
    _write(cfg["out"], _header("constants", cfg) + "\n".join(lines) + "\n")
    return EXIT_OK if bun.all_strict else EXIT_VERIFY


def _strict_bundle(beta: float, tau: float):
    """bundle(beta, tau); raises ConditionFailure naming each closed-form
    condition that fails there, as `constants` reports them."""
    bun = bundle(beta, tau)
    failed = [c for c in bun.condition_margins if not c.passed]
    if failed:
        raise ConditionFailure(f"the operating point beta={_fmt(beta)}, tau={_fmt(tau)} fails "
                               + ", ".join(f"margins.{c.name} ({_fmt(c.value)} {c.sense} "
                                           f"{_fmt(c.bound)} is false)" for c in failed))
    return bun


def _solve_profile(cfg):
    beta, tau = operating_point(cfg["beta_margin"], cfg["tau_margin"])
    g = _strict_bundle(beta, tau).g_grid(cfg["grid_m"])
    return beta, g, solve_f(g, tol=cfg["tol"], max_iter=cfg["max_iter"])


def _phi_profile(cfg):
    """(profile, condition report) from a solve, or from --f-csv at the operating tau."""
    if cfg["f_csv"]:
        fbar = GridFunction.from_csv(_read(cfg["f_csv"]))
        beta, tau = operating_point(cfg["beta_margin"], cfg["tau_margin"])
        if not abs(fbar.lo - tau) <= 1e-12 * tau:
            raise ValueError(f"the --f-csv grid starts at {fbar.lo!r}, not at the "
                             f"operating tau={tau!r}")
        _strict_bundle(beta, tau)
    else:
        beta, _, report = _solve_profile(cfg)
        fbar = report.converged_f
    return build_profile(fbar, beta, t=cfg["t"])


def cmd_solve_f(cfg) -> int:
    beta, g, report = _solve_profile(cfg)
    head = _header("solve-f", cfg)
    for j, it in enumerate(report.iterates[:4]):
        _write(os.path.join(cfg["outdir"], f"iterate_{j}.csv"), head + it.to_csv())
    fbar = report.converged_f
    _write(os.path.join(cfg["outdir"], "solved_profile.csv"), head + fbar.to_csv())
    refined = residual_on_refined(g, fbar)
    lines = [
        f"beta={_fmt(beta)}",
        f"tau={_fmt(g.lo)}",
        f"iterations={report.iterations}",
        f"box_half_width={report.box_half_width:.6e}",
        f"residual_sup={report.residual_sup:.6e}",
        f"residual_sup_refined={refined:.6e}",
        f"f3_min={_fmt(report.f3_min)}",
        f"bracket_certified={'true' if report.bracket_certified else 'false'}",
        f"R_G={_fmt(report.rg)}",
        f"deriv_sup={_fmt(report.deriv_sup)}",
        f"deriv_bound={_fmt(report.deriv_bound)}",
    ]
    _write(os.path.join(cfg["outdir"], "solve_report.txt"),
           head + "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_make_phi(cfg) -> int:
    profile, report = _phi_profile(cfg)
    head = _header("make-phi", cfg)
    _write(os.path.join(cfg["outdir"], "phi.csv"), head + profile.phi.to_csv())
    lines = [
        f"beta={_fmt(profile.beta)}",
        f"tau={_fmt(profile.tau)}",
        f"t={_fmt(profile.t)}",
        f"c_t={_fmt(profile.c_t)}",
        f"delta={_fmt(profile.delta)}",
        report.to_text().rstrip("\n"),
    ]
    _write(os.path.join(cfg["outdir"], "phi_report.txt"),
           head + "\n".join(lines) + "\n")
    return EXIT_OK if report.all_pass else EXIT_VERIFY


def cmd_build(cfg) -> int:
    if not cfg["epsilon"] >= 0.0:
        raise ValueError("epsilon must be >= 0 (0 chooses it)")
    eps = cfg["epsilon"] if cfg["epsilon"] > 0.0 else None
    check_sizes(cfg["k"], cfg["n"], cfg["n_max"], eps)  # before the profile is solved
    profile, cond_report = _phi_profile(cfg)
    instance, vreport = build_instance(profile, K=cfg["k"], N=cfg["n"],
                                       n_max=cfg["n_max"], epsilon=eps)
    head = _header("build", cfg)
    os.makedirs(cfg["outdir"], exist_ok=True)
    save_instance(instance, os.path.join(cfg["outdir"], "instance.txt"), header=head)
    st = instance.state
    lines = [
        f"beta={_fmt(profile.beta)}",
        f"tau={_fmt(profile.tau)}",
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


def cmd_verify(cfg) -> int:
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


def cmd_run(cfg) -> int:
    check_algorithm(cfg["alg"])  # before the instance is loaded and replayed
    if cfg["steps"] < 0:
        raise ValueError("steps must be >= 0 (0 runs n_max - N steps)")
    instance = load_instance(cfg["instance"])
    p = instance.params
    steps = cfg["steps"] if cfg["steps"] > 0 else p.n_max - p.N
    trace = run(cfg["alg"], instance.f, instance.dictionary, steps,
                shrinkage=cfg["shrinkage"], variation_bound=instance.variation_bound)
    out = cfg["out"] or f"trace_{cfg['alg']}.csv"
    head = _header("run", cfg) + f"# index_offset={p.N}\n"
    _write(out, head + trace.to_csv())
    return EXIT_OK


def cmd_rate(cfg) -> int:
    for key in ("alpha", "variation_bound"):  # a value <= 0 writes no witnesses
        if not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite")
    trace, offset = GreedyTrace.from_csv(_read(cfg["trace"]))
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
    """(x, y) of a grid CSV (nodes, values) or a trace CSV (n, residual norm)."""
    text = _read(path)
    lines = {line.strip() for line in text.splitlines()}
    if "x,value" in lines:
        g = GridFunction.from_csv(text)
        return g.nodes, g.values
    if GreedyTrace.CSV_HEADER in lines:
        trace, _ = GreedyTrace.from_csv(text)
        return trace.step_indices, trace.residual_norms
    raise ValueError(f"{path}: not a grid or trace CSV")


def cmd_plot(cfg, *inputs) -> int:
    curves = [_load_curve(path) for path in inputs]
    labels = [os.path.splitext(os.path.basename(path))[0] for path in inputs]
    _write(cfg["out"], line_plot(curves, labels, cfg["log_log"], cfg["title"],
                                 _header("plot", cfg).strip()))
    return EXIT_OK


# ------------------------------------------------------------- option table

_MARGINS = {"beta_margin": 0.002, "tau_margin": 0.98}
_SOLVE = {**_MARGINS, "grid_m": 2001, "tol": 1e-8, "max_iter": 500, "outdir": "."}

# command -> (handler, help, {option: default}).  Each option is a --flag
# and a config key; its default fixes its type, and a bool is a switch.
# A handler takes the resolved config (plot also its input paths).
COMMANDS = {
    "constants": (cmd_constants, "solve the rate equations and closed forms",
                  {"shrinkage": 1.0, **_MARGINS, "out": "constants.txt"}),
    "solve-f": (cmd_solve_f, "solve the profile integral equation", _SOLVE),
    "make-phi": (cmd_make_phi, "mollify and certify the weight profile",
                 {**_SOLVE, "t": 0.01, "f_csv": ""}),
    "build": (cmd_build, "build and verify a worst-case instance",
              {**_SOLVE, "t": 0.05, "f_csv": "", "k": 200, "n": 400,
               "n_max": 5000, "epsilon": 0.0}),
    "verify": (cmd_verify, "replay an instance file and verify it",
               {"instance": "instance.txt", "out": "verify_report.txt"}),
    "run": (cmd_run, "run a greedy algorithm on an instance",
            {"instance": "instance.txt", "alg": "pga", "steps": 0,
             "shrinkage": 1.0, "out": ""}),
    "rate": (cmd_rate, "fit a decay exponent to a trace CSV",
             {"trace": "trace_pga.csv", "n_min": 500, "n_max": 5000,
              "alpha": 0.0, "variation_bound": 0.0, "out": "rate_report.txt"}),
    "plot": (cmd_plot, "render grid/trace CSVs to a static SVG",
             {"out": "plot.svg", "log_log": False, "title": ""}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="mpursuit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "plot":
            sp.add_argument("inputs", nargs="+", help="grid or trace CSVs")
        for key, default in options.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                sp.add_argument(flag, action="store_const", const=True, help="switch")
            else:
                sp.add_argument(flag, type=type(default), help=f"default: {default!r}")
        sp.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _, options = COMMANDS[args.command]
    try:
        return handler(_resolve(args, options), *getattr(args, "inputs", ()))
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConditionFailure as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
