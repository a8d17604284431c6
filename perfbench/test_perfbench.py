"""Tests for the benchmark's own tracer and result assembly.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from nls4 import analysis, radial, scattering, spectral  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONFIGS = ROOT / "scripts" / "configs"
# Two cheap canonical configs: modal calculus, stepping, perturbation and reports.
SMALL = [CONFIGS / "sobolev_equiv.cfg", CONFIGS / "perturbation.cfg"]


@pytest.fixture(scope="module")
def small_op():
    grid = radial.make_grid(5, 16.0, 64)
    return spectral.build_operator("free", grid)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """An untraced pass, then two traced passes, of the small configs."""
    out = tmp_path_factory.mktemp("bench")
    plain = worker.checked_pass(SMALL, None, out / "plain")
    traced = [worker.traced_pass(SMALL, None, out / f"traced{i}")[0]
              for i in range(2)]
    return plain, traced


def test_alias_calls_are_counted_and_originals_restored(small_op):
    original = spectral.apply_function
    original_method = spectral.SpectralOperator.__dict__["to_modal"]
    u = radial.RadialField(small_op.grid, np.exp(-small_op.grid.nodes**2).astype(complex))
    with Tracer() as tracer:
        assert analysis.apply_function is spectral.apply_function
        assert scattering.apply_function is spectral.apply_function
        analysis.apply_function(small_op, "exp_it", 0.1, u)
        scattering.apply_function(small_op, "exp_it", 0.2, u)
    calls = tracer.summary()
    assert calls["spectral.apply_function"]["calls"] == 2
    assert calls["spectral.to_modal"]["calls"] == 2
    assert spectral.apply_function is original
    assert analysis.apply_function is original
    assert spectral.SpectralOperator.__dict__["to_modal"] is original_method


def test_self_time_within_inclusive_and_covers_the_pass(passes):
    _, traced = passes
    for result in traced:
        for name, row in result["functions"].items():
            assert 0.0 <= row["self_s"] <= row["incl_s"] + 1e-9, name
        covered = sum(result["layers"].values()) / result["wall_s"]
        assert 0.9 <= covered <= 1.0 + 1e-6


def test_tracing_leaves_report_bodies_unchanged(passes):
    plain, traced = passes
    assert plain["failed"] == 0 and not plain["problems"]
    for result in traced:
        assert result["digests"] == plain["digests"]
        assert not result["problems"]


def test_counts_repeat_exactly(passes):
    _, (first, second) = passes
    assert first["counts"] == second["counts"]
    calls = {name: row["calls"] for name, row in first["functions"].items()}
    assert calls == {name: row["calls"] for name, row in second["functions"].items()}
    assert first["counts"]["strang_steps"] > 0
    assert first["counts"]["modal_rows"] > 0


def test_emitted_metrics_match_benchmark_json(passes):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (name, w["why"]) for name, w in WORKLOADS.items()]

    plain, traced = passes
    e2e, samples = run.end_to_end_metrics([plain, plain], [0.5, 0.6, 0.7], 80.0)
    assert {k: m["unit"] for k, m in e2e.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert set(samples) == set(e2e)

    layer = run.layer_metrics(plain, traced[0], traced[1])
    assert {k: m["unit"] for k, m in layer.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}


def test_checkout_without_program_is_refused(tmp_path):
    with pytest.raises(run.BenchError):
        run.find_checkout(tmp_path)
