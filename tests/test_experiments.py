"""Registry-level smoke runs of the remaining experiment kinds."""

import copy
from pathlib import Path

import pytest

from nls4.config import load_config
from nls4.experiments import EXPERIMENTS, run_experiment

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
