"""Command-line entry point.

    nls4 run <config> [--output-dir D] [--seed S]
    nls4 check-potential <config>
    nls4 emit <report> <series> [--out FILE]

Exit status of `run` reflects the worst check verdict (0 pass, 1 fail);
harness-level failures (bad config, I/O) exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .potentials import check_assumptions, evaluate_potential
from .radial import make_grid
from .reporting import ReportError, emit_plot_data


def _cmd_run(args) -> int:
    from .experiments import run_experiment

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.output_dir is not None:
        cfg.output_dir = Path(args.output_dir)
    report = run_experiment(cfg)
    for check in report.checks:
        print(check.line())
    print(f"report: {Path(cfg.output_dir) / report.file_name}")
    return 0 if report.worst_verdict == "pass" else 1


def _cmd_check_potential(args) -> int:
    cfg = load_config(args.config)
    grid = make_grid(cfg.grid.dimension, cfg.grid.r_max, cfg.grid.num_points)
    evaluate_potential(cfg.potential, grid)  # validates dimension/finiteness
    report = check_assumptions(cfg.potential, grid)
    print(f"potential: {cfg.potential.family} (n={cfg.potential.dimension})")
    print(f"decay_ok = {report.decay_ok} | sup <r>^{report.decay_exponent:g}|V| = {report.decay_sup:.6g}")
    print(f"repulsive_ok = {report.repulsive_ok} | max r V'(r) = {report.repulsive_max:.6g}")
    print(f"derivative_bound_ok = {report.derivative_bound_ok} | C0 = {report.c0:.6g} | C1 = {report.c1:.6g}")
    print(f"nonneg_ok = {report.nonneg_ok} | min V = {report.min_value:.6g}")
    print(f"weak_norm_ok = {report.weak_norm_ok} | value = {report.weak_norm_value:.6g} | delta_n = {report.delta_n:g}")
    print(f"fourier_condition = {report.fourier_condition}")
    return 0


def _cmd_emit(args) -> int:
    path = emit_plot_data(args.report, args.series, args.out)
    print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nls4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_chk = sub.add_parser("check-potential", help="print the hypothesis compliance report")
    p_chk.add_argument("config")
    p_chk.set_defaults(fn=_cmd_check_potential)

    p_emit = sub.add_parser("emit", help="re-emit a named series from a report")
    p_emit.add_argument("report")
    p_emit.add_argument("series")
    p_emit.add_argument("--out", default=None)
    p_emit.set_defaults(fn=_cmd_emit)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
