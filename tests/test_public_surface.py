"""Names the benchmark in perfbench/ imports, wraps or reads from outside the package.

Nothing in src/ calls some of them (spectral.load_operator,
reporting.report_body_from_file), so only this test notices their loss.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from nls4 import analysis, experiments, radial, reporting, scattering, solver, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_and_cli_import():
    tracer = load_tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"nls4.{layer}")
    importlib.import_module("nls4.cli")


def test_wrapped_methods_are_defined_on_their_class():
    for layer, cls_name, meth in load_tracer().METHODS:
        cls = getattr(importlib.import_module(f"nls4.{layer}"), cls_name)
        assert callable(cls.__dict__[meth])


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    original = solver.run_trajectory
    with tracer.Tracer():
        assert solver.run_trajectory is not original
    assert solver.run_trajectory is original


def test_names_the_benchmark_calls():
    assert callable(spectral.load_operator)
    assert isinstance(experiments.EXPERIMENTS, dict)
    assert callable(experiments.run_experiment)
    # perfbench's COUNTED table counts calls to these two by name
    assert callable(analysis.strichartz_quotient)
    assert callable(analysis.sobolev_equiv_ratio)
    for name in ("atomic_write_text", "read_report", "report_body_from_file"):
        assert callable(getattr(reporting, name))
    # the step counter reads cfg by keyword or as the third positional argument
    assert list(inspect.signature(solver.run_trajectory).parameters)[2] == "cfg"
    # perfbench's alias test builds, aliases and applies operators in these forms
    assert analysis.apply_function is spectral.apply_function
    assert scattering.apply_function is spectral.apply_function
    grid = radial.make_grid(5, 16.0, 64)
    op = spectral.build_operator("free", grid)
    u = radial.RadialField(grid, np.exp(-grid.nodes**2).astype(complex))
    assert analysis.apply_function(op, "exp_it", 0.1, u).values.shape == (64,)


def test_trajectory_record_has_times():
    # the step counter adds round(record.times[-1] / cfg.dt) per run
    grid = radial.make_grid(5, 16.0, 64)
    op = spectral.build_operator("free", grid)
    u0 = radial.RadialField(grid, np.exp(-grid.nodes**2).astype(complex))
    cfg = solver.SimulationConfig(lam=1.0, p=9.0, dt=1e-2, t_end=0.1, boundary_threshold=1.0)
    record = solver.run_trajectory(u0, op, cfg)
    assert round(record.times[-1] / cfg.dt) == 10
