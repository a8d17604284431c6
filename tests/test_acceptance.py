"""Acceptance suite: every headline criterion at its stated tolerance.

Each test runs one canonical experiment config (scripts/configs/), asserts
its checks at the thresholds fixed there, and prints one pass/fail line.
Runtime caps from the criteria are enforced with wall clocks around the
calls.  Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from nls4 import spectral
from nls4.config import load_config
from nls4.experiments import run_experiment

from conftest import load_run_all

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "scripts" / "configs"

_reports = {}
_output_dirs = {}

# (body digest, file digest) of each pinned config, as scripts/run_all.py
# prints them, keyed on what fixes their bits: the numpy and scipy versions
# and the config strings of the OpenBLAS each wheel ships
PINNED_DIGESTS = {
    (
        "2.4.6",
        "1.17.1",
        "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
        "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
    ): {
        "conservation": ("4d3fe035ec213cd7", "e2372fafcf388915"),
        "decay": ("4ef183de2ac9fe03", "d66ae12eadb33d37"),
        "sobolev_equiv": ("c90f6e94accb8ee3", "4c1904910c50b7a9"),
        "strichartz": ("dee09c41aba8db8f", "3fad10a7fd5c2e19"),
        "localized_mass": ("9af334efb26c23e1", "2c27762d34867043"),
        "morawetz": ("1d5d9a73649c38e3", "33e6b244381fbf78"),
        "small_data_global": ("2c123efe7555ceea", "5afee5f5851494a0"),
        "subcritical_global_cases": ("b8aa43c9e832af77", "e3b0c44298fc1c14"),
        "perturbation": ("784beba002102307", "399b1dcd9cc89a18"),
        "scattering": ("072d544d4951bd59", "8f3661effc09d3db"),
        "final_state": ("373adca079ff66ca", "e3b0c44298fc1c14"),
        "wave_operator": ("783975c611d6a7f0", "31db72dab2761689"),
    },
}


def run_config(name, tmp_path, seed=None):
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    if seed is not None:
        cfg.seed = seed
    cfg.output_dir = tmp_path / name
    started = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - started
    return report, elapsed


def cached_report(name, tmp_path_factory):
    if name not in _reports:
        base = tmp_path_factory.mktemp(name)
        _reports[name] = run_config(name, base)
        _output_dirs[name] = base / name
    return _reports[name]


def emit(criterion, name, report, elapsed=None):
    verdict = report.worst_verdict.upper()
    extra = f" ({elapsed:.0f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion:>2} {name}: {verdict}{extra}")
    for check in report.checks:
        print(f"    {check.line()}")
    return verdict


def checkmap(report):
    return {c.name: c for c in report.checks}


def test_criterion_01_conservation(tmp_path_factory):
    report, elapsed = cached_report("conservation", tmp_path_factory)
    emit(1, "conservation", report, elapsed)
    checks = checkmap(report)
    assert checks["mass_drift"].verdict == "pass"
    assert checks["mass_drift"].measured <= 1e-8
    assert checks["energy_drift"].measured <= 1e-6
    assert 4.0 * 0.7 <= checks["energy_drift_halving_ratio"].measured <= 4.0 * 1.3
    assert elapsed <= 120.0
    assert report.worst_verdict == "pass"


def test_criterion_02_decay_exponent(tmp_path_factory):
    report, elapsed = cached_report("decay", tmp_path_factory)
    emit(2, "decay", report, elapsed)
    checks = checkmap(report)
    # fitted slope within 15% of -1 for p = 10, with and without the potential
    assert checks["slope_v0_p10"].measured <= 0.15
    assert checks["slope_v_p10"].measured <= 0.15
    # p = 2 control slope within +-0.05 of 0
    assert checks["slope_v_p2"].measured <= 0.05
    assert elapsed <= 300.0
    assert report.worst_verdict == "pass"


def test_criterion_03_sobolev_equivalence(tmp_path_factory):
    report, elapsed = cached_report("sobolev_equiv", tmp_path_factory)
    emit(3, "sobolev_equiv", report, elapsed)
    checks = checkmap(report)
    assert checks["ratio_min"].measured >= 0.5
    assert checks["ratio_max"].measured <= 2.0
    assert checks["zero_potential_ratio_dev"].measured <= 1e-9
    assert report.worst_verdict == "pass"


def test_criterion_04_strichartz_quotient(tmp_path_factory):
    report, elapsed = cached_report("strichartz", tmp_path_factory)
    emit(4, "strichartz", report, elapsed)
    checks = checkmap(report)
    assert checks["quotient_spread"].measured <= 10.0
    assert checks["eigenmode_closed_form_dev"].measured <= 1e-6
    assert report.worst_verdict == "pass"


def test_criterion_05_localized_mass_rate(tmp_path_factory):
    report, elapsed = cached_report("localized_mass", tmp_path_factory)
    emit(5, "localized_mass", report, elapsed)
    checks = checkmap(report)
    for name in ("stability_R4", "stability_R8"):
        assert 1.0 / 3.0 <= checks[name].measured <= 3.0
    assert checks["saturating_radius_rate"].verdict == "pass"
    assert checks["eigenmode_rate"].verdict == "pass"
    assert report.worst_verdict == "pass"


def test_criterion_06_morawetz(tmp_path_factory):
    report, elapsed = cached_report("morawetz", tmp_path_factory)
    emit(6, "morawetz", report, elapsed)
    checks = checkmap(report)
    assert checks["c_emp_spread"].measured <= 10.0
    assert report.worst_verdict == "pass"


def test_criterion_07_small_data_global(tmp_path_factory):
    report, elapsed = cached_report("small_data_global", tmp_path_factory)
    emit(7, "small_data_global", report, elapsed)
    checks = checkmap(report)
    assert checks["h2dot_growth"].measured <= 2.0
    assert checks["run_status"].verdict == "pass"
    assert report.worst_verdict == "pass"


def test_criterion_08_oracle_equivalence(op_full):
    # Picard fixed point vs splitting: error <= C dt^2 with stable C
    from nls4.radial import RadialField
    from nls4.solver import SimulationConfig, duhamel_window, run_trajectory
    from nls4.spectral import l2_norm
    from nls4.states import soft_lowpass

    grid = op_full.grid
    raw = RadialField(grid, 1.3 * np.exp(-((grid.nodes / 3.0) ** 2)).astype(complex))
    u0 = soft_lowpass(op_full, raw, 1.4)
    horizon = 0.04
    oracle_cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-3, t_end=horizon)
    reference = duhamel_window(u0, op_full, oracle_cfg, 0.0, horizon).final_field
    constants = {}
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=dt, t_end=horizon, snapshot_stride=1,
                               boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        assert rec.status == "ok"
        constants[dt] = l2_norm(RadialField(grid, rec.snapshots.values[-1]) - reference) / dt**2
    spread = max(constants.values()) / min(constants.values())
    verdict = "PASS" if spread <= 1.5 else "FAIL"
    print(f"\nACCEPTANCE  8 oracle_equivalence: {verdict}")
    print(f"    C(dt)={ {k: round(v, 4) for k, v in constants.items()} } spread={spread:.3f}")
    assert spread <= 1.5


def test_criterion_09_scattering(tmp_path_factory):
    report, elapsed = cached_report("scattering", tmp_path_factory)
    emit(9, "scattering", report, elapsed)
    checks = checkmap(report)
    assert checks["cauchy_gaps_decreasing"].verdict == "pass"
    assert checks["mass_identity_gap"].measured <= 1e-6
    assert checks["energy_identity_gap"].measured <= 0.05
    assert checks["linear_degenerate_case"].measured <= 1e-9
    assert report.worst_verdict == "pass"


def test_criterion_10_final_state_round_trip(tmp_path_factory):
    report, elapsed = cached_report("final_state", tmp_path_factory)
    emit(10, "final_state", report, elapsed)
    checks = checkmap(report)
    # threshold is 10 x picard_tol, pinned in the config at 1e-10
    assert checks["roundtrip_h2"].measured <= 10.0 * 1e-10
    assert checks["linear_case_exact"].verdict == "pass"
    assert report.worst_verdict == "pass"


def test_criterion_11_wave_operator(tmp_path_factory):
    report, elapsed = cached_report("wave_operator", tmp_path_factory)
    emit(11, "wave_operator", report, elapsed)
    checks = checkmap(report)
    assert checks["gaps_decreasing"].verdict == "pass"
    assert checks["final_gap_fraction"].measured < 0.1
    assert report.worst_verdict == "pass"


def test_criterion_12_pinned_bytes(tmp_path_factory):
    # every config the criteria above ran, so none runs twice, and the two
    # no criterion runs: subcritical_global_cases and perturbation
    pools = spectral._blas_pools()
    key = (np.__version__, scipy.__version__,
           *(pools[package].config() if package in pools else None
             for package in ("numpy", "scipy")))
    pins = PINNED_DIGESTS.get(key)
    if pins is None:
        pytest.skip(f"no pinned digests for numpy, scipy and their OpenBLAS builds {key}")
    run_all = load_run_all()
    measured = {}
    for name in pins:
        report, _ = cached_report(name, tmp_path_factory)
        measured[name] = (report.body_sha256[:16],
                          run_all.files_digest(_output_dirs[name], report.file_name))
    assert measured == pins


def test_criterion_12_determinism(tmp_path):
    first, _ = run_config("sobolev_equiv", tmp_path / "a", seed=21)
    second, _ = run_config("sobolev_equiv", tmp_path / "b", seed=21)
    identical = first.body_text() == second.body_text()
    changed = run_config("sobolev_equiv", tmp_path / "c", seed=22)[0]
    print(f"\nACCEPTANCE 12 determinism: {'PASS' if identical else 'FAIL'}")
    assert identical
    assert changed.body_text() != first.body_text()
