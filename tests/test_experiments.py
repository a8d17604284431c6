"""Registry-level smoke runs of the remaining experiment kinds."""

import ast
import copy
import inspect
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from nls4 import analysis, solver, spectral
from nls4.config import EXPERIMENT_KINDS, KNOB_SCHEMAS, load_config
from nls4.experiments import EXPERIMENTS, RunContext, _scattering_run, run_experiment
from nls4.potentials import example_potential, zero_potential
from nls4.radial import RadialField

from conftest import load_run_all, row_h2dot

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_every_kind_has_a_driver_and_config():
    assert set(EXPERIMENTS) == {
        "conservation", "decay", "sobolev_equiv", "strichartz", "localized_mass",
        "morawetz", "small_data_global", "subcritical_global_cases", "perturbation",
        "wave_operator", "scattering", "final_state",
    }
    for kind in EXPERIMENTS:
        assert (CONFIG_DIR / f"{kind}.cfg").exists()
    # a kind missing from either list would load nowhere or be skipped by run_all.py
    run_all = load_run_all()
    assert sorted(EXPERIMENT_KINDS) == sorted(run_all.ORDER) == sorted(EXPERIMENTS)


def knob_reads(func) -> set[str]:
    """The key of every knobs["..."] in func's source, nested defs included."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "knobs" and isinstance(node.slice, ast.Constant)}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_knob_is_read_by_its_runner(kind):
    # a knob that nothing reads is deleted from its schema, not kept
    runners = [EXPERIMENTS[kind]]
    if kind in ("scattering", "final_state"):
        runners.append(_scattering_run)
    assert set().union(*map(knob_reads, runners)) == set(KNOB_SCHEMAS[kind])


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_non_admissible_control_is_rejected_in_every_dimension(n, tmp_path):
    # a fixed pair would not do: (3, 3) lies on the line at n = 8, where 4/3 + 8/3 = 4
    path = tmp_path / "strichartz.cfg"
    path.write_text(f"[experiment]\nkind = strichartz\n[grid]\ndimension = {n}\n"
                    "num_points = 64\n[strichartz]\nnum_draws = 1\nnum_samples = 4\n")
    cfg = load_config(path)
    cfg.output_dir = tmp_path / "out"
    checks = {c.name: c for c in run_experiment(cfg).checks}
    assert checks["non_admissible_rejected"].verdict == "pass"
    assert checks["non_admissible_rejected"].measured == 1.0


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
    # the config's body and CSV keep their bytes when morawetz_check is
    # handed ||Delta u||^2 of every row from hdot2_norm in place of the
    # monitors' values
    cfg = load_config(CONFIG_DIR / "morawetz.cfg")
    outputs = []
    for computed in (True, False):
        check = analysis.morawetz_check
        if computed:
            monkeypatch.setattr(analysis, "morawetz_check",
                                lambda sample, ks, sim, h2dot: check(sample, ks, sim,
                                                                     row_h2dot(sample)))
        run = copy.deepcopy(cfg)
        run.output_dir = tmp_path / str(computed)
        report = run_experiment(run)
        monkeypatch.undo()
        csv = (run.output_dir / "morawetz_constants.csv").read_bytes()
        outputs.append((report.body_text(), csv))
    assert outputs[0] == outputs[1]


def test_localized_mass_reads_the_monitored_h2dot(tmp_path, monkeypatch):
    # the config's body and CSV keep their bytes when the rate check is
    # handed ||Delta u||^2 of every row from hdot2_norm in place of the
    # monitors' values
    cfg = load_config(CONFIG_DIR / "localized_mass.cfg")
    outputs = []
    for computed in (True, False):
        check = analysis.localized_mass_rate_check
        if computed:
            monkeypatch.setattr(analysis, "localized_mass_rate_check",
                                lambda sample, radii, h2dot: check(sample, radii,
                                                                   row_h2dot(sample)))
        run = copy.deepcopy(cfg)
        run.output_dir = tmp_path / str(computed)
        report = run_experiment(run)
        monkeypatch.undo()
        csv = (run.output_dir / "localized_mass.csv").read_bytes()
        outputs.append((report.body_text(), csv))
    assert outputs[0] == outputs[1]


def test_localized_mass_frees_the_packet_run_before_the_eigenmode_run(tmp_path, monkeypatch):
    # no reference to the packet run's snapshots (the view the record holds,
    # or the array under it) survives into the eigenmode run
    cfg = load_config(CONFIG_DIR / "localized_mass.cfg")
    cfg.output_dir = tmp_path
    original = solver.run_trajectory
    refs, alive_at_start = [], []

    def run(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in refs])
        rec = original(*args, **kwargs)
        refs.extend((weakref.ref(rec.snapshots.values), weakref.ref(rec.snapshots.values.base)))
        return rec

    monkeypatch.setattr(solver, "run_trajectory", run)
    report = run_experiment(cfg)
    assert report.worst_verdict == "pass"
    assert alive_at_start == [[], [False, False]]



def test_final_state_frees_the_free_operator_before_its_windows(tmp_path, monkeypatch):
    # final_state builds its two operators once each, and the free one's
    # eigenbasis is gone when the first Picard window starts, while the full
    # one's, which the windows read, is alive
    cfg = load_config(CONFIG_DIR / "final_state.cfg")
    cfg.output_dir = tmp_path
    build, window = spectral.build_operator, solver.duhamel_window
    built, alive_at_start = [], []

    def counted_build(*args, **kwargs):
        op = build(*args, **kwargs)
        built.append((op.kind, weakref.ref(op.eigenvectors)))
        return op

    def checked_window(*args, **kwargs):
        alive_at_start.append([(kind, ref() is not None) for kind, ref in built])
        return window(*args, **kwargs)

    monkeypatch.setattr(spectral, "build_operator", counted_build)
    monkeypatch.setattr(solver, "duhamel_window", checked_window)
    report = run_experiment(cfg)
    assert report.worst_verdict == "pass"
    assert [kind for kind, _ in built] == ["full", "free"]
    assert alive_at_start[0] == [("full", True), ("free", False)]

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


@pytest.fixture()
def numpy_blas_at_two():
    """numpy's OpenBLAS count set to 2 for the test, whatever the environment asks; its getter."""
    lib = spectral._blas_pools().get("numpy")
    if lib is None:
        pytest.skip("numpy's OpenBLAS wheel library is not loaded")
    get_threads, set_threads = spectral._thread_count_calls(lib)
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def spy_threads(monkeypatch, get_threads):
    """The sets of numpy's counts seen in _advance, strichartz_quotient and to_modal.

    to_modal counts only under duhamel_window: "sweep" for the sweeps' buffered
    transforms, "anchor" for the window's first transform, before its loop.
    """
    seen = {"advance": set(), "sweep": set(), "anchor": set(), "strichartz": set()}

    def wrap(owner, name, key=None):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            where = key
            if where is None and sys._getframe(1).f_code.co_name == "duhamel_window":
                where = "sweep" if kwargs.get("out") is not None else "anchor"
            if where is not None:
                seen[where].add(get_threads())
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    wrap(solver, "_advance", "advance")
    wrap(spectral.SpectralOperator, "to_modal")
    wrap(analysis, "strichartz_quotient", "strichartz")
    return seen


def run_config(kind, out_dir):
    cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
    cfg.output_dir = out_dir / kind
    return run_experiment(cfg)


class TestBlasThreadScopes:
    """numpy's OpenBLAS threads in a run's time loops only, and its count comes back."""

    def test_threads_only_in_the_time_loops(self, numpy_blas_at_two, monkeypatch, tmp_path):
        seen = spy_threads(monkeypatch, numpy_blas_at_two)
        for kind in ("final_state", "strichartz"):
            assert run_config(kind, tmp_path).worst_verdict == "pass"
            assert numpy_blas_at_two() == 2
        assert seen == {"advance": {2}, "sweep": {2}, "anchor": {1}, "strichartz": {1}}
        assert spectral._loop_threads is None

    @pytest.mark.parametrize("where", ["experiment", "time loop"])
    def test_count_comes_back_when_the_run_raises(self, numpy_blas_at_two, monkeypatch,
                                                  tmp_path, where):
        def fail(*args, **kwargs):
            raise RuntimeError(f"raised at {numpy_blas_at_two()} threads")

        if where == "experiment":
            monkeypatch.setitem(EXPERIMENTS, "final_state", fail)
        else:
            monkeypatch.setattr(solver, "_advance", fail)
            monkeypatch.setattr(solver.GaussPanels, "cumulative", fail)
        report = run_config("final_state", tmp_path)
        assert [c.name for c in report.checks] == ["experiment_error"]
        threads = 1 if where == "experiment" else 2
        assert f"raised at {threads} threads" in report.checks[0].note
        assert numpy_blas_at_two() == 2
        assert spectral._loop_threads is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_loops_outside_a_run_keep_the_count(self, numpy_blas_at_two, monkeypatch,
                                                grid, threads):
        spectral._thread_count_calls(spectral._blas_pools()["numpy"])[1](threads)
        seen = spy_threads(monkeypatch, numpy_blas_at_two)
        op = spectral.build_operator("full", grid, example_potential(5))
        u = RadialField(grid, 0.3 * np.exp(-((grid.nodes / 3.0) ** 2)).astype(complex))
        cfg = solver.SimulationConfig(lam=1.0, p=9.0, dt=1e-2, t_end=0.1, monitor_stride=5)
        assert solver.run_trajectory(u, op, cfg).status == "ok"
        solver.duhamel_window(u, op, cfg, 0.0, 0.1)
        assert seen["advance"] == seen["sweep"] == seen["anchor"] == {threads}
        assert numpy_blas_at_two() == threads

    def test_no_wheel_library_touches_nothing(self, numpy_blas_at_two, monkeypatch, tmp_path):
        kept = run_config("final_state", tmp_path / "kept")
        monkeypatch.setattr(spectral, "_blas_pools", lambda: {})
        seen = spy_threads(monkeypatch, numpy_blas_at_two)
        report = run_config("final_state", tmp_path / "none")
        assert report.body_text() == kept.body_text()
        assert seen == {"advance": {2}, "sweep": {2}, "anchor": {2}, "strichartz": set()}
        assert report.provenance["blas_pools"] == (
            "numpy library not found, no count set, not stopped; "
            "scipy library not found, no count set, not stopped"
        )
