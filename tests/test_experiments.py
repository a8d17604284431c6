"""Registry-level smoke runs of the remaining experiment kinds."""

import copy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nls4 import analysis, spectral
from nls4.config import load_config
from nls4.experiments import EXPERIMENTS, RunContext, run_experiment
from nls4.potentials import zero_potential

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_every_kind_has_a_driver_and_config():
    assert set(EXPERIMENTS) == {
        "conservation", "decay", "sobolev_equiv", "strichartz", "localized_mass",
        "morawetz", "small_data_global", "subcritical_global_cases", "perturbation",
        "wave_operator", "scattering", "final_state",
    }
    for kind in EXPERIMENTS:
        assert (CONFIG_DIR / f"{kind}.cfg").exists()


@pytest.mark.parametrize("kind", ["subcritical_global_cases", "perturbation"])
def test_auxiliary_experiments_pass(kind, tmp_path):
    cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
    cfg.output_dir = tmp_path
    report = run_experiment(cfg)
    failing = [c.line() for c in report.checks if c.verdict == "fail"]
    assert not failing, failing


def test_trivial_conservation_case_passes(tmp_path):
    # lambda = 0, V = 0: exact linear flow, every check passes and the
    # unmeasurable dt^2 ratio is reported as skipped, not failed
    text = """
[experiment]
kind = conservation
[grid]
dimension = 5
r_max = 32.0
num_points = 256
[potential]
family = zero
[simulation]
lambda = 0.0
p = 9.0
dt = 1e-3
t_end = 0.5
monitor_stride = 25
"""
    path = tmp_path / "trivial.cfg"
    path.write_text(text)
    cfg = load_config(path)
    cfg.output_dir = tmp_path / "out"
    report = run_experiment(cfg)
    assert report.worst_verdict == "pass"


def test_experiment_does_not_mutate_config(tmp_path):
    # perturbation needs snapshots and runs on a copy with snapshot_stride >= 1;
    # the report still echoes the configured value
    cfg = load_config(CONFIG_DIR / "perturbation.cfg")
    cfg.grid.num_points = 128
    cfg.sim.snapshot_stride = 0
    cfg.output_dir = tmp_path
    before = copy.deepcopy(cfg)
    report = run_experiment(cfg)
    assert ("simulation.snapshot_stride", "0") in report.config_items
    assert cfg == before


def test_cache_dir_variable_is_ignored(tmp_path, monkeypatch):
    # operators are always built: the old cache variable writes nothing and moves no digit
    def body(run):
        cfg = load_config(CONFIG_DIR / "conservation.cfg")
        cfg.output_dir = tmp_path / run
        return run_experiment(cfg).body_text()

    monkeypatch.delenv("NLS4_CACHE_DIR", raising=False)
    unset = body("unset")
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("NLS4_CACHE_DIR", str(cache))
    assert body("set") == unset
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("shrink, verdict", [(0.1, "pass"), (2.0, "fail")])
def test_smallness_contraction_measures_the_first_sweep(shrink, verdict, tmp_path):
    # the check compares first Picard steps relative to the datum, both
    # nonzero; a "shrink" factor above 1 grows the datum and must fail it
    cfg = load_config(CONFIG_DIR / "final_state.cfg")
    cfg.knobs["shrink_factor"] = shrink
    cfg.output_dir = tmp_path
    checks = {c.name: c for c in run_experiment(cfg).checks}
    check = checks["smallness_contraction"]
    assert check.verdict == verdict
    assert check.measured > 0 and check.threshold > 0


def test_morawetz_reads_the_monitored_h2dot(tmp_path, monkeypatch):
    # the config's body and CSV keep their bytes when morawetz_check computes
    # ||Delta u||^2 of every row itself, and with the monitors' values it
    # computes none
    cfg = load_config(CONFIG_DIR / "morawetz.cfg")
    outputs = []
    for computed in (True, False):
        calls = []
        hdot2_norm, check = analysis.hdot2_norm, analysis.morawetz_check
        monkeypatch.setattr(analysis, "hdot2_norm", lambda u: calls.append(1) or hdot2_norm(u))
        if computed:
            monkeypatch.setattr(analysis, "morawetz_check",
                                lambda sample, ks, sim, h2dot: check(sample, ks, sim))
        run = copy.deepcopy(cfg)
        run.output_dir = tmp_path / str(computed)
        report = run_experiment(run)
        monkeypatch.undo()
        csv = (run.output_dir / "morawetz_constants.csv").read_bytes()
        outputs.append((report.body_text(), csv))
        assert (len(calls) > 0) if computed else not calls
    assert outputs[0] == outputs[1]



def test_localized_mass_reads_the_monitored_h2dot(tmp_path, monkeypatch):
    # the config's body and CSV keep their bytes when the rate check computes
    # ||Delta u||^2 of every row itself, and with the monitors' values it
    # computes none
    cfg = load_config(CONFIG_DIR / "localized_mass.cfg")
    outputs = []
    for computed in (True, False):
        calls = []
        hdot2_norm, check = analysis.hdot2_norm, analysis.localized_mass_rate_check
        monkeypatch.setattr(analysis, "hdot2_norm", lambda u: calls.append(1) or hdot2_norm(u))
        if computed:
            monkeypatch.setattr(analysis, "localized_mass_rate_check",
                                lambda sample, radii, h2dot: check(sample, radii))
        run = copy.deepcopy(cfg)
        run.output_dir = tmp_path / str(computed)
        report = run_experiment(run)
        monkeypatch.undo()
        csv = (run.output_dir / "localized_mass.csv").read_bytes()
        outputs.append((report.body_text(), csv))
        assert (len(calls) > 0) if computed else not calls
    assert outputs[0] == outputs[1]

def context(name, tmp_path, num_points=None):
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    if num_points is not None:
        cfg.grid.num_points = num_points
    return RunContext(cfg=cfg, rng=np.random.default_rng(0), out_dir=tmp_path)


def test_operator_pair_peaks_at_three_matrices(tmp_path):
    # the full operator's dense solve (H and syevd's 2N^2 workspace) must not
    # overlap a resident free eigenbasis: 4.02 N^2 doubles when free goes first
    n = 1024
    ctx = context("wave_operator", tmp_path, num_points=n)
    ctx.grid
    tracemalloc.start()
    try:
        op_full, op_free = ctx.operators()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (op_full.kind, op_free.kind) == ("full", "free")
    assert peak <= 3.25 * 8 * n * n


def test_zero_potential_operator_shares_the_free_arrays(tmp_path):
    ctx = context("sobolev_equiv", tmp_path)
    op_zero = ctx.op_full(zero_potential(ctx.grid.dimension))
    op_free = ctx.op_free()
    assert op_zero.kind == "full"
    assert op_zero.eigenvalues is op_free.eigenvalues
    assert op_zero.eigenvectors is op_free.eigenvectors
    for array in (op_zero.eigenvalues, op_zero.eigenvectors):
        with pytest.raises(ValueError):
            array[0] = 1.0
    # the arrays build_operator's full route computes for V == 0, bit for bit
    built = spectral.build_operator("full", ctx.grid, zero_potential(ctx.grid.dimension))
    assert built.eigenvalues.tobytes() == op_zero.eigenvalues.tobytes()
    assert built.eigenvectors.tobytes() == op_zero.eigenvectors.tobytes()


def test_sobolev_zero_control_runs_no_second_solve(tmp_path, monkeypatch):
    calls = []
    build = spectral.build_operator
    monkeypatch.setattr(spectral, "build_operator",
                        lambda *args: calls.append(args[0]) or build(*args))
    cfg = load_config(CONFIG_DIR / "sobolev_equiv.cfg")
    cfg.output_dir = tmp_path
    checks = {c.name: c for c in run_experiment(cfg).checks}
    assert sorted(calls) == ["free", "full"]
    assert checks["zero_potential_ratio_dev"].measured == 0.0
