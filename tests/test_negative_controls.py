"""Negative controls: each injects one defect and asserts that a named check fails.

A check that cannot fail measures nothing.  Each case monkeypatches one
defect into the code a check exercises, runs the canonical config
(scripts/configs/) at its canonical seed, and asserts that the named check
turns to fail.  The same checks pass on the unpatched code in
test_acceptance.py.
"""

from pathlib import Path

import numpy as np
import pytest

from nls4 import analysis, solver, spectral
from nls4.config import load_config
from nls4.experiments import run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
DEFECT = 1.0 + 1e-6


def power_s_on_full(monkeypatch):
    # mu^{s/4} scaled on full operators only: the free calculus stays exact,
    # else both sides of the ratio move together
    original = spectral._power_factors

    def scaled(op, s):
        factors = original(op, s)
        return factors * DEFECT if op.kind == "full" else factors

    monkeypatch.setattr(spectral, "_power_factors", scaled)


def growing_duhamel_rows(monkeypatch):
    original = analysis.duhamel_solution

    def grown(op, u0, forcing, times):
        return original(op, u0, forcing, times) * (1.0 + np.asarray(times, dtype=float))[:, None]

    monkeypatch.setattr(analysis, "duhamel_solution", grown)


def non_unitary_exp_it(monkeypatch):
    # the phases scaled on apply_function's path only, the exact side of
    # final_state.linear_case_exact; the Picard windows keep theirs
    apply, table = spectral.apply_function, spectral.phase_table

    def scaled_table(op, times):
        return table(op, times) * DEFECT

    def scaled_apply(op, func, parameter, u):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "phase_table", scaled_table)
            return apply(op, func, parameter, u)

    monkeypatch.setattr(spectral, "apply_function", scaled_apply)


def flipped_nonlinear_sign(monkeypatch):
    # the rotation solves the equation with -lambda; the monitor keeps +lambda
    original = solver._nonlinear_phase

    def flipped(values, lam, p, tau):
        return original(values, -lam, p, tau)

    monkeypatch.setattr(solver, "_nonlinear_phase", flipped)


def non_unitary_rotation(monkeypatch):
    original = solver._nonlinear_phase

    def scaled(values, lam, p, tau):
        return original(values, lam, p, tau) * DEFECT

    monkeypatch.setattr(solver, "_nonlinear_phase", scaled)


def lie_splitting(monkeypatch):
    # u -> P R(dt) u, first order: the opening half rotation of each stretch
    # between monitors becomes a whole one and the flush of the owed half
    # before the monitor is dropped.  In an unforced run the half rotations
    # alternate between the two, and run_trajectory tells the rotation its dt.
    phase, run = solver._nonlinear_phase, solver.run_trajectory
    state = {}

    def run_lie(u0, op, cfg, **kwargs):
        state.update(dt=cfg.dt, opening=True)
        return run(u0, op, cfg, **kwargs)

    def lie(values, lam, p, tau):
        if tau == state["dt"]:
            return phase(values, lam, p, tau)
        opening = state["opening"]
        state["opening"] = not opening
        return phase(values, lam, p, 2.0 * tau) if opening else values.copy()

    monkeypatch.setattr(solver, "run_trajectory", run_lie)
    monkeypatch.setattr(solver, "_nonlinear_phase", lie)


def non_unitary_step_propagator(monkeypatch):
    original = solver.step_propagator
    monkeypatch.setattr(solver, "step_propagator", lambda op, tau: original(op, tau) * DEFECT)


@pytest.mark.parametrize(
    "kind, check, defect",
    [
        ("sobolev_equiv", "zero_potential_ratio_dev", power_s_on_full),
        ("strichartz", "eigenmode_closed_form_dev", growing_duhamel_rows),
        ("final_state", "linear_case_exact", non_unitary_exp_it),
        ("conservation", "energy_drift", flipped_nonlinear_sign),
        ("conservation", "mass_drift", non_unitary_step_propagator),
        ("conservation", "mass_drift", non_unitary_rotation),
        ("conservation", "energy_drift_halving_ratio", lie_splitting),
    ],
    ids=lambda v: v.__name__ if callable(v) else v,
)
def test_defect_fails_named_check(kind, check, defect, monkeypatch, tmp_path):
    defect(monkeypatch)
    cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
    cfg.output_dir = tmp_path / kind
    report = run_experiment(cfg)
    verdicts = {c.name: c.verdict for c in report.checks}
    assert "experiment_error" not in verdicts, report.checks
    assert verdicts[check] == "fail"
