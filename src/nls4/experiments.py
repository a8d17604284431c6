"""Experiment drivers: one function per registered experiment kind.

Each driver measures the quantities its experiment is about, emits one
CheckResult per verdict (always carrying the measured number and the
threshold), and returns named CSV series for plotting.  All randomness
flows through the seeded generator in the RunContext, in a fixed draw
order, so identical config + seed reproduces the report body byte for byte.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, analysis, potentials, radial, scattering, solver, spectral, states
from .config import ExperimentConfig
from .perturbation import perturbation_experiment
from .radial import RadialField
from .reporting import (
    CheckResult,
    ExperimentReport,
    check_flag,
    check_geq,
    check_leq,
    check_range,
    skipped,
    write_csv,
    write_monitor_csv,
)


@dataclass
class RunContext:
    cfg: ExperimentConfig
    rng: np.random.Generator
    out_dir: Path
    _grid: radial.RadialGrid | None = None
    _ops: dict = dc_field(default_factory=dict)

    @property
    def grid(self) -> radial.RadialGrid:
        if self._grid is None:
            g = self.cfg.grid
            self._grid = radial.make_grid(g.dimension, g.r_max, g.num_points)
        return self._grid

    def op_free(self) -> spectral.SpectralOperator:
        if "free" not in self._ops:
            self._ops["free"] = spectral.build_operator("free", self.grid)
        return self._ops["free"]

    def op_full(self, spec: potentials.PotentialSpec | None = None):
        spec = spec if spec is not None else self.cfg.potential
        key = ("full", spec)
        if key not in self._ops:
            self._ops[key] = spectral.build_operator("full", self.grid, spec)
        return self._ops[key]


def _smooth_data(ctx: RunContext, op, amplitude: float, width: float, xi_cut: float):
    raw = RadialField(
        ctx.grid, amplitude * np.exp(-((ctx.grid.nodes / width) ** 2)).astype(complex)
    )
    return states.soft_lowpass(op, raw, xi_cut)


# ---------------------------------------------------------------------------

def run_conservation(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op = ctx.op_full()
    u0 = _smooth_data(ctx, op, knobs["amplitude"], knobs["width"], knobs["xi_cut"])

    sim = cfg.sim
    rec = solver.run_trajectory(u0, op, sim)
    half = dataclasses.replace(
        sim, dt=sim.dt / 2.0, monitor_stride=sim.monitor_stride * 2, snapshot_stride=0
    )
    rec_half = solver.run_trajectory(u0, op, half)

    checks = [
        check_leq("mass_drift", rec.mass_drift(), knobs["mass_tol"]),
        check_leq("energy_drift", rec.energy_drift(), knobs["energy_tol"]),
    ]
    band = knobs["ratio_band"]
    if rec_half.energy_drift() > 1e-11:
        ratio = rec.energy_drift() / rec_half.energy_drift()
        checks.append(
            check_range("energy_drift_halving_ratio", ratio, 4 * (1 - band), 4 * (1 + band))
        )
    else:
        checks.append(skipped(
            "energy_drift_halving_ratio",
            "drift at roundoff; the dt^2 law is not measurable",
        ))
    checks.append(check_flag("run_completed", rec.status == "ok", rec.times[-1],
                             note=f"status={rec.status}"))

    write_monitor_csv(ctx.out_dir / "conservation_monitors.csv", rec)
    return checks, {"monitors": "conservation_monitors.csv"}


def run_decay(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    n = ctx.grid.dimension
    op_free = ctx.op_free()
    window = (knobs["t_lo"], knobs["t_hi"])

    cases: list[tuple[str, spectral.SpectralOperator]] = []
    if knobs["include_zero_potential"]:
        cases.append(("v0", op_free))
    if cfg.potential.family != "zero":
        cases.append(("v", ctx.op_full()))

    # the unnormalised datum is the same for every case and p
    base = _smooth_data(ctx, op_free, 1.0, knobs["data_width"], knobs["xi_cut"])
    checks = []
    series = {}
    for label, op in cases:
        for p in knobs["lp_exponents"]:
            dual = p / (p - 1.0)
            u0 = (1.0 / radial.lp_norm(base, dual)) * base
            fit = analysis.fit_decay(
                op, u0, p, window, num_samples=knobs["num_samples"],
                boundary_threshold=cfg.sim.boundary_threshold,
            )
            predicted = analysis.predicted_decay_exponent(n, p)
            name = f"slope_{label}_p{p:g}"
            if predicted == 0.0:
                checks.append(
                    check_leq(name, abs(fit.exponent), knobs["control_tol"],
                              note="expected slope 0")
                )
            else:
                checks.append(
                    check_leq(
                        name,
                        abs(fit.exponent - predicted) / abs(predicted),
                        knobs["slope_tol"],
                        note=f"fitted {fit.exponent:.4f} vs predicted {predicted:.4f}",
                    )
                )
                checks.append(check_leq(f"residual_{label}_p{p:g}", fit.residual,
                                        knobs["residual_cap"]))
            fname = f"decay_{label}_p{p:g}.csv"
            fit_line = fit.amplitude * fit.times**fit.exponent
            write_csv(
                ctx.out_dir / fname,
                ["log_t", "log_norm", "fit_line"],
                zip(np.log(fit.times), np.log(fit.norms), np.log(fit_line)),
            )
            series[f"decay_{label}_p{p:g}"] = fname
    return checks, series


def run_sobolev_equiv(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op_free = ctx.op_free()
    op_full = ctx.op_full()
    fields = [
        states.random_low_mode_field(op_free, ctx.rng) for _ in range(knobs["num_fields"])
    ]
    p_values = knobs["p_values"]
    ratios = np.concatenate([
        analysis.sobolev_equiv_ratio(op_full, op_free, u, s, p_values)
        for u in fields
        for s in knobs["s_values"]
    ])
    checks = [
        check_geq("ratio_min", float(ratios.min()), knobs["ratio_lo"]),
        check_leq("ratio_max", float(ratios.max()), knobs["ratio_hi"]),
    ]
    if knobs["include_zero_control"]:
        op_zero = ctx.op_full(potentials.zero_potential(ctx.grid.dimension))
        devs = np.concatenate([
            np.abs(analysis.sobolev_equiv_ratio(op_zero, op_free, u, s, p_values) - 1.0)
            for u in fields[:10]
            for s in knobs["s_values"]
        ])
        checks.append(check_leq("zero_potential_ratio_dev", float(np.max(devs)),
                                knobs["exact_tol"]))
    write_csv(ctx.out_dir / "sobolev_ratios.csv", ["ratio"], [(r,) for r in ratios])
    return checks, {"ratios": "sobolev_ratios.csv"}


def _stock_pairs(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    qs = (Fraction(2 * (n + 4), n - 4), Fraction(12), Fraction(24))
    out = []
    for q in qs:
        r = Fraction(1) / (Fraction(n, 2) - Fraction(4) / q) * n
        out.append((q, r))
    return tuple(out)


def run_strichartz(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    n = ctx.grid.dimension
    op_free = ctx.op_free()
    op_full = ctx.op_full()
    pairs = knobs["pairs"] or _stock_pairs(n)
    interval = (0.0, knobs["t_end"])
    draws = []
    for _ in range(knobs["num_draws"]):
        u0 = states.random_low_mode_field(op_free, ctx.rng)
        omegas = ctx.rng.uniform(-8.0, 8.0, size=knobs["forcing_modes"])
        gs = [
            states.random_low_mode_field(op_free, ctx.rng, norm=0.5)
            for _ in range(knobs["forcing_modes"])
        ]
        draws.append((u0, analysis.ModalForcing(omegas, gs)))

    quotients = np.concatenate([
        analysis.strichartz_quotient(
            op_full, op_free, u0, forcing, pairs, interval, num_samples=knobs["num_samples"]
        )
        for u0, forcing in draws
    ])
    spread = float(quotients.max() / quotients.min())
    checks = [check_leq("quotient_spread", spread, knobs["spread_cap"],
                        note=f"max={quotients.max():.4g} min={quotients.min():.4g}")]

    # single-eigenmode closed form: |I|^{1/q} * ||Delta e_k||_r / ||Delta e_k||_2
    k = knobs["eigenmode_index"]
    mode = op_full.eigenfield(k)
    q0, r0 = pairs[0]
    measured = analysis.strichartz_quotient(
        op_full, op_free, mode, None, [(q0, r0)], interval, num_samples=knobs["num_samples"]
    )[0]
    lap = RadialField(ctx.grid, spectral.laplacian_values(ctx.grid, mode.values))
    expected = (
        (interval[1] - interval[0]) ** (1.0 / float(q0))
        * radial.lp_norm(lap, float(r0))
        / spectral.hdot2_norm(mode)
    )
    checks.append(
        check_leq("eigenmode_closed_form_dev", abs(measured - expected) / expected,
                  knobs["eigenmode_tol"])
    )

    try:
        analysis.require_b_admissible(Fraction(3), Fraction(3), n)
        rejected = False
    except analysis.AdmissibilityError:
        rejected = True
    checks.append(check_flag("non_admissible_rejected", rejected, float(rejected)))

    write_csv(ctx.out_dir / "strichartz_quotients.csv", ["quotient"],
              [(v,) for v in quotients])
    return checks, {"quotients": "strichartz_quotients.csv"}


def run_localized_mass(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op = ctx.op_full()
    sim = cfg.sim
    packet = states.gaussian_packet(
        ctx.grid,
        amplitude=knobs["amplitude"],
        width=knobs["packet_width"],
        center=knobs["packet_center"],
        carrier=knobs["packet_carrier"],
    )
    packet = states.soft_lowpass(op, packet, knobs["xi_cut"])
    sample = solver.run_trajectory(packet, op, sim).snapshots
    dt_snap = float(np.min(np.diff(sample.times)))

    radii = knobs["radii"]
    # the configured radii and the saturating one, where the localized mass
    # equals the conserved total mass: one pass over the rows for all of them
    *reports, rep_sat = analysis.localized_mass_rate_check(
        sample, [*radii, 1.05 * ctx.grid.r_max]
    )
    checks = []
    constants = []
    for rep in reports:
        constants.append(rep.empirical_constant)
        checks.append(
            check_flag(
                f"constant_R{rep.radius:g}", np.isfinite(rep.empirical_constant),
                rep.empirical_constant,
            )
        )
    for a, b, r_ball in zip(constants, constants[1:], radii[1:]):
        if a > 0 and b > 0:
            ratio = b / a
            checks.append(
                check_range(
                    f"stability_R{r_ball:g}", ratio, 1.0 / knobs["ratio_band"],
                    knobs["ratio_band"],
                )
            )

    total = solver.mass(packet)
    checks.append(
        check_leq("saturating_radius_rate", rep_sat.max_abs_rate,
                  knobs["zero_tol"] * total / dt_snap)
    )

    # stationary eigenmode under the linear flow: |u| is time-independent
    mode = op.eigenfield(knobs["eigenmode_index"])
    lin = dataclasses.replace(sim, lam=0.0, boundary_threshold=1.0)
    rec_mode = solver.run_trajectory(mode, op, lin)
    (rep_mode,) = analysis.localized_mass_rate_check(rec_mode.snapshots, radii[:1])
    checks.append(
        check_leq("eigenmode_rate", rep_mode.max_abs_rate,
                  knobs["zero_tol"] * solver.mass(mode) / dt_snap)
    )

    write_csv(
        ctx.out_dir / "localized_mass.csv",
        ["t"] + [f"M_R{r:g}" for r in radii],
        zip(sample.times, *[rep.masses for rep in reports]),
    )
    return checks, {"localized_mass": "localized_mass.csv"}


def run_morawetz(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op = ctx.op_full()
    sim = cfg.sim
    u0 = _smooth_data(ctx, op, knobs["amplitude"], knobs["width"], knobs["xi_cut"])
    u0 = (np.sqrt(knobs["target_h2dot"]) / spectral.hdot2_norm(u0)) * u0
    rec = solver.run_trajectory(u0, op, sim)
    sample = rec.snapshots

    t0, k_values = knobs["interval_start"], knobs["k_values"]
    constants = {}
    for length in knobs["interval_lengths"]:
        reports = analysis.morawetz_check(sample.restricted(t0, t0 + length), k_values, sim)
        for k, rep in zip(k_values, reports):
            constants[(k, length)] = rep.empirical_constant
    values = np.array(list(constants.values()))
    positive = values[values > 0]
    checks = []
    if positive.size:
        spread = float(positive.max() / positive.min())
        checks.append(check_leq("c_emp_spread", spread, knobs["spread_cap"]))
        checks.append(check_leq("c_emp_max", float(values.max()), knobs["c_cap"]))
    else:
        checks.append(skipped("c_emp_spread", "all constants vanished"))
    checks.append(check_flag("run_status", rec.status == "ok", rec.times[-1],
                             note=f"status={rec.status}"))
    write_csv(
        ctx.out_dir / "morawetz_constants.csv",
        ["K", "interval_length", "c_emp"],
        [(k, length, c) for (k, length), c in sorted(constants.items())],
    )
    return checks, {"constants": "morawetz_constants.csv"}


def run_small_data_global(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op = ctx.op_full()
    u0 = _smooth_data(ctx, op, 1.0, knobs["width"], knobs["xi_cut"])
    scale = np.sqrt(knobs["target_h2dot"]) / spectral.hdot2_norm(u0)
    u0 = scale * u0
    rec = solver.run_trajectory(u0, op, cfg.sim)
    growth = float(np.sqrt(np.max(rec.h2dot_series) / rec.h2dot_series[0]))
    checks = [
        check_leq("h2dot_growth", growth, knobs["growth_cap"]),
        check_flag("run_status", rec.status == "ok", rec.times[-1],
                   note=f"status={rec.status}"),
    ]
    write_monitor_csv(ctx.out_dir / "small_data_monitors.csv", rec)
    return checks, {"monitors": "small_data_monitors.csv"}


def run_subcritical_global_cases(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op = ctx.op_full()
    sim = cfg.sim
    n = ctx.grid.dimension
    p_mass_crit = 1.0 + 8.0 / n

    def shaped(amp):
        return _smooth_data(ctx, op, amp, knobs["width"], knobs["xi_cut"])

    def run_case(lam, p, amp):
        case_sim = dataclasses.replace(
            sim, lam=lam, p=p, snapshot_stride=0, boundary_threshold=1.0
        )
        return solver.run_trajectory(shaped(amp), op, case_sim)

    checks = []
    # (a) defocusing: energy conservation bounds ||Delta u|| by sqrt(2E)
    rec_a = run_case(1.0, 3.0, knobs["moderate_amplitude"])
    e0 = rec_a.energy_series[0]
    bound = 2.0 * np.sqrt(2.0 * max(e0, 0.0)) + knobs["bound_slack"]
    checks.append(check_leq("case_a_sup_hdot2", float(np.sqrt(np.max(rec_a.h2dot_series))),
                            bound))
    # (b) focusing, mass-subcritical power
    rec_b = run_case(-1.0, 0.5 * (1 + p_mass_crit), knobs["moderate_amplitude"])
    checks.append(check_leq(
        "case_b_growth", float(np.max(rec_b.h2dot_series) / rec_b.h2dot_series[0]),
        knobs["growth_cap"],
    ))
    # (c) focusing at the mass-critical power, small mass
    rec_c = run_case(-1.0, p_mass_crit, knobs["small_amplitude"])
    checks.append(check_leq(
        "case_c_growth", float(np.max(rec_c.h2dot_series) / rec_c.h2dot_series[0]),
        knobs["growth_cap"],
    ))
    # (d) focusing, mass-supercritical: small data global ...
    p_super = 0.5 * (p_mass_crit + solver.critical_exponent(n))
    rec_d = run_case(-1.0, p_super, knobs["small_amplitude"])
    checks.append(check_leq(
        "case_d_small_growth", float(np.max(rec_d.h2dot_series) / rec_d.h2dot_series[0]),
        knobs["growth_cap"],
    ))
    # ... and large data beyond the smallness hypotheses: blow-up flag fires
    rec_blow = run_case(-1.0, p_super, knobs["blowup_amplitude"])
    ratio = float(np.max(rec_blow.h2dot_series) / rec_blow.h2dot_series[0])
    checks.append(check_flag(
        "case_d_blowup_flagged", rec_blow.status == "blowup_suspected", ratio,
        note=f"status={rec_blow.status}",
    ))
    return checks, {}


def run_perturbation(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op_full = ctx.op_full()
    op_free = ctx.op_free()
    sim = dataclasses.replace(cfg.sim, snapshot_stride=max(cfg.sim.snapshot_stride, 1))
    u_tilde0 = _smooth_data(ctx, op_full, knobs["amplitude"], knobs["width"], knobs["xi_cut"])
    direction = states.random_low_mode_field(op_free, ctx.rng)
    direction = (1.0 / spectral.h2_norm(direction)) * direction

    checks = []
    # the unforced run from u_tilde0 is shared by the zero case and the gap sweep
    rec_tilde = solver.run_trajectory(u_tilde0, op_full, sim)
    # exact-zero case: no forcing, identical data; the exact run stays a fresh
    # one, so the check compares two runs and not one record with itself
    rep0 = perturbation_experiment(
        u_tilde0, None, u_tilde0.copy(), sim, op_full, op_free, rec_tilde=rec_tilde
    )
    checks.append(check_leq("zero_case_w_distance", rep0.w_distance, knobs["zero_case_tol"]))

    # data-gap sweep: W-distance should vanish linearly with the gap
    gaps = sorted(knobs["data_gaps"], reverse=True)
    w_dists, eps_list = [], []
    for gap in gaps:
        u0 = u_tilde0 + gap * direction
        rec_exact = solver.run_trajectory(u0, op_full, sim)
        rep = perturbation_experiment(
            u_tilde0, None, u0, sim, op_full, op_free, rec_tilde=rec_tilde, rec_exact=rec_exact
        )
        w_dists.append(rep.w_distance)
        eps_list.append(rep.eps_data)
    slope = float(np.polyfit(np.log(eps_list), np.log(w_dists), 1)[0])
    band = knobs["slope_band"]
    exponent = 15.0 / (ctx.grid.dimension - 4.0) ** 3
    checks.append(check_range(
        "gap_slope", slope, 1.0 - band, 1.0 + band,
        note=f"reference bound exponent 15/(n-4)^3={exponent:g}, reported, not asserted",
    ))

    # forcing monotonicity: halving e must not increase the distance
    forcing_field = states.random_low_mode_field(op_free, ctx.rng, norm=knobs["forcing_amplitude"])
    # the smallest-gap exact run, the last of the sweep, is shared by the pair
    dists = []
    for scale in (1.0, 0.5):
        forcing = analysis.ModalForcing(np.array([1.7]), [scale * forcing_field])
        rep = perturbation_experiment(
            u_tilde0, forcing, u0, sim, op_full, op_free, rec_exact=rec_exact
        )
        dists.append(rep.w_distance)
    checks.append(check_leq("forcing_halving_monotone", dists[1], dists[0] * 1.05,
                            note=f"full={dists[0]:.4g} half={dists[1]:.4g}"))
    write_csv(ctx.out_dir / "perturbation_sweep.csv", ["eps_data", "w_distance"],
              zip(eps_list, w_dists))
    return checks, {"sweep": "perturbation_sweep.csv"}


def run_wave_operator(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op_free = ctx.op_free()
    op_full = ctx.op_full()
    test_state = states.fast_escape_state(
        op_free, knobs["data_width"], knobs["xi_cut"], knobs["mu_power"]
    )
    probe = scattering.probe_wave_operator(
        op_full, op_free, test_state, knobs["times"],
        boundary_threshold=cfg.sim.boundary_threshold,
    )
    gaps = probe.convergence_gaps
    checks = [
        check_flag("gaps_decreasing", probe.convergent, float(gaps[-1]),
                   note="H2 Cauchy gaps " + ", ".join(f"{g:.3e}" for g in gaps)),
        check_leq("final_gap_fraction", float(gaps[-1] / gaps[0]),
                  knobs["final_gap_fraction"]),
    ]
    write_csv(ctx.out_dir / "wave_operator_gaps.csv", ["t_left", "gap"],
              zip(knobs["times"][:-1], gaps))
    return checks, {"gaps": "wave_operator_gaps.csv"}


def _scattering_run(ctx: RunContext, lam: float, t_end: float | None = None):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op_full = ctx.op_full()
    op_free = ctx.op_free()
    sim = cfg.sim
    run_sim = dataclasses.replace(
        sim, lam=lam, t_end=t_end or sim.t_end, snapshot_stride=max(sim.snapshot_stride, 1)
    )
    base = _smooth_data(ctx, op_free, 1.0, knobs["data_width"], knobs["xi_cut"])
    u0 = (knobs["amplitude"] / spectral.l2_norm(base)) * base
    rec = solver.run_trajectory(u0, op_full, run_sim)
    report = scattering.extract_scattering_state(rec.snapshots, op_full, op_free, run_sim)
    return u0, rec, report


def run_scattering(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    u0, rec, report = _scattering_run(ctx, cfg.sim.lam)
    gaps = np.array([g for _, g in report.cauchy_series])
    checks = [
        check_flag("cauchy_gaps_decreasing",
                   scattering.gaps_converging(gaps, spectral.h2_norm(u0)),
                   float(gaps[-1]),
                   note="last gaps " + ", ".join(f"{g:.3e}" for g in gaps[-3:])),
        check_leq("mass_identity_gap", report.mass_identity_gap, knobs["mass_tol"]),
    ]
    if report.energy_identity_gap is not None:
        checks.append(check_leq("energy_identity_gap", report.energy_identity_gap,
                                knobs["energy_tol"],
                                note=f"trigger at t={report.trigger_time:g}"))
    else:
        checks.append(CheckResult(
            "energy_identity_gap", "fail", None, knobs["energy_tol"], "<=",
            note="critical-norm trigger never fired; run longer",
        ))
    checks.append(check_flag("scattered_verdict", report.status == "scattered",
                             report.z_tail, note=f"z_tail={report.z_tail:.3e}"))
    if knobs["include_linear_control"]:
        snap_steps = cfg.sim.monitor_stride * max(cfg.sim.snapshot_stride, 1)
        control_t = min(6.0 * cfg.sim.dt * snap_steps, cfg.sim.t_end)
        _, _, rep_lin = _scattering_run(ctx, 0.0, t_end=control_t)
        lin_gaps = np.array([g for _, g in rep_lin.cauchy_series])
        worst = max(float(np.max(lin_gaps)), rep_lin.mass_identity_gap)
        checks.append(check_leq("linear_degenerate_case", worst,
                                knobs["linear_control_tol"]))
    write_csv(ctx.out_dir / "scattering_cauchy.csv", ["t_left", "t_right", "gap"],
              [(a, b, g) for (a, b), g in report.cauchy_series])
    spectral.save_field(ctx.out_dir / "u_plus.fld", report.u_plus)
    series = {"cauchy": "scattering_cauchy.csv"}
    if report.free_comparison_series:
        write_csv(ctx.out_dir / "free_comparison.csv", ["t", "h2_distance"],
                  report.free_comparison_series)
        series["free_comparison"] = "free_comparison.csv"
    return checks, series


def run_final_state(ctx: RunContext):
    cfg, knobs = ctx.cfg, ctx.cfg.knobs
    op_full = ctx.op_full()
    u0, rec, report = _scattering_run(ctx, cfg.sim.lam)
    sim = cfg.sim
    t_max = float(rec.snapshots.times[-1])
    t_start = t_max * (1.0 - knobs["window_fraction"])
    u_plus = report.u_plus

    sol = solver.duhamel_window(u_plus, op_full, sim, t_start, t_max, backward=True)
    u_end = solver.duhamel_window(sol.final_field, op_full, sim, t_start, t_max).final_field
    u_plus_new = spectral.apply_function(op_full, "exp_it", -t_max, u_end)
    roundtrip = spectral.h2_norm(u_plus_new - u_plus)
    checks = [
        check_leq("roundtrip_h2", roundtrip, knobs["roundtrip_factor"] * sim.picard_tol,
                  note=f"backward sweeps={sol.iterations}"),
    ]

    # linear case: the backward map is exactly the linear flow
    lin = dataclasses.replace(sim, lam=0.0)
    sol_lin = solver.duhamel_window(u_plus, op_full, lin, t_start, t_max, backward=True)
    exact = spectral.apply_function(op_full, "exp_it", t_start, u_plus)
    checks.append(check_leq("linear_case_exact", spectral.h2_norm(sol_lin.final_field - exact),
                            1e-9 * max(spectral.h2_norm(exact), 1.0)))

    # shrinking the datum shrinks the first Picard step relative to the datum
    small_datum = knobs["shrink_factor"] * u_plus
    sol_small = solver.duhamel_window(small_datum, op_full, sim, t_start, t_max, backward=True)
    full = sol.diffs[0] / spectral.h2_norm(u_plus)
    small = sol_small.diffs[0] / spectral.h2_norm(small_datum)
    checks.append(check_leq("smallness_contraction", small, full,
                            note="first-sweep distance over the datum's H2 norm"))
    return checks, {}


EXPERIMENTS = {
    "conservation": run_conservation,
    "decay": run_decay,
    "sobolev_equiv": run_sobolev_equiv,
    "strichartz": run_strichartz,
    "localized_mass": run_localized_mass,
    "morawetz": run_morawetz,
    "small_data_global": run_small_data_global,
    "subcritical_global_cases": run_subcritical_global_cases,
    "perturbation": run_perturbation,
    "wave_operator": run_wave_operator,
    "scattering": run_scattering,
    "final_state": run_final_state,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the configured experiment; module errors become failed checks."""
    t_start = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(cfg=cfg, rng=np.random.default_rng(cfg.seed), out_dir=out_dir)
    provenance = {"code_version": __version__}
    try:
        checks, series = EXPERIMENTS[cfg.experiment](ctx)
    except Exception as exc:  # noqa: BLE001 - captured into the report by contract
        # note and traceback stay one line each, so read_report parses them;
        # codecs.decode(..., "unicode_escape") restores them
        note = f"{type(exc).__name__}: {exc}".encode("unicode_escape").decode("ascii")
        checks = [CheckResult("experiment_error", "fail", None, None, "-", note=note)]
        series = {}
        provenance["experiment_traceback"] = (
            traceback.format_exc().rstrip().encode("unicode_escape").decode("ascii")
        )
    provenance["runtime_seconds"] = f"{time.perf_counter() - t_start:.3f}"
    report = ExperimentReport(
        experiment=cfg.experiment,
        config_items=cfg.canonical_items(),
        checks=checks,
        series=series,
        provenance=provenance,
    )
    from .reporting import write_report

    write_report(report, out_dir / f"report-{cfg.experiment}.txt")
    return report
