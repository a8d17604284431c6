"""Potential families and the hypothesis compliance report."""

import dataclasses

import numpy as np
import pytest

from nls4.potentials import (
    PotentialError,
    PotentialSpec,
    check_assumptions,
    evaluate_potential,
    example_potential,
    zero_potential,
)


def all_ok(report):
    """Every hypothesis the report measures holds."""
    return (
        report.decay_ok
        and report.repulsive_ok
        and report.derivative_bound_ok
        and report.nonneg_ok
        and report.weak_norm_ok
    )


class TestEvaluate:
    def test_zero_family(self, grid):
        v = evaluate_potential(zero_potential(5), grid)
        assert np.all(v.values == 0)

    def test_bracket_value_at_origin_scale(self, grid):
        # <0> = 1 so V(0) = c; first node sits at h > 0
        spec = PotentialSpec("inverse_bracket", 5, c=0.01, beta=10.0)
        assert spec.value(np.array([0.0]))[0] == pytest.approx(0.01)

    def test_bracket_value_at_three(self):
        spec = PotentialSpec("inverse_bracket", 5, c=0.01, beta=10.0)
        assert spec.value(np.array([3.0]))[0] == pytest.approx(0.01 * 10.0**-5, rel=1e-12)

    def test_dimension_mismatch_rejected(self, grid):
        with pytest.raises(PotentialError):
            evaluate_potential(PotentialSpec("zero", 6), grid)

    def test_unknown_family_rejected(self):
        with pytest.raises(PotentialError):
            PotentialSpec("coulomb", 5)

    def test_bracket_requires_beta(self):
        with pytest.raises(PotentialError):
            PotentialSpec("inverse_bracket", 5, c=0.1)

    def test_gaussian_requires_positive_a(self):
        with pytest.raises(PotentialError):
            PotentialSpec("gaussian_bump", 5, c=0.1, a=-1.0)


class TestAssumptions:
    def test_zero_passes_everything_with_zero_constants(self, grid):
        report = check_assumptions(zero_potential(5), grid)
        assert all_ok(report)
        assert report.decay_sup == 0.0
        assert report.repulsive_max == 0.0
        assert report.c0 == 0.0 and report.c1 == 0.0
        assert report.weak_norm_value == 0.0
        assert report.fourier_condition == "unchecked"

    def test_example_family_compliant(self, grid):
        spec = dataclasses.replace(example_potential(5), delta_n=0.1)
        report = check_assumptions(spec, grid)
        assert all_ok(report)
        assert report.decay_sup == pytest.approx(0.01, rel=1e-9)
        assert report.repulsive_max <= 0.0
        assert report.weak_norm_value < 0.1

    def test_weak_norm_against_dense_oracle(self, grid):
        from nls4.radial import RadialField, weak_lp_norm

        spec = dataclasses.replace(example_potential(5, c=0.01, beta=10.0), delta_n=0.1)
        report = check_assumptions(spec, grid)
        field = evaluate_potential(spec, grid)
        a = np.abs(field.values)
        levels = np.geomspace(a.max() * 1e-12, a.max(), 10_000)
        order = np.argsort(a)
        tail = np.concatenate([np.cumsum(grid.metric[order][::-1])[::-1], [0.0]])
        idx = np.searchsorted(a[order], levels, side="right")
        brute = float(np.max(levels * tail[idx] ** 0.8))
        assert report.weak_norm_value == pytest.approx(brute, rel=0.01)

    @pytest.mark.parametrize("c", [0.0, 0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("beta", [0.5, 2.0, 5.0, 10.0, 20.0])
    def test_repulsive_for_all_bracket_parameters(self, grid, c, beta):
        spec = PotentialSpec("inverse_bracket", 5, c=c, beta=beta)
        report = check_assumptions(spec, grid)
        assert report.repulsive_ok

    def test_weak_norm_doubles_with_c(self, grid):
        r1 = check_assumptions(example_potential(5, c=0.01), grid)
        r2 = check_assumptions(example_potential(5, c=0.02), grid)
        assert r2.weak_norm_value == pytest.approx(2.0 * r1.weak_norm_value, rel=1e-13)

    def test_negative_c_fails_nonnegativity(self, grid):
        spec = PotentialSpec("inverse_bracket", 5, c=-0.01, beta=10.0)
        report = check_assumptions(spec, grid)
        assert not report.nonneg_ok
        assert report.min_value < 0

    def test_decay_exponent_requirement(self, grid):
        # beta must exceed n + 3 for odd n; beta = 7 < 8 fails for n = 5
        spec = PotentialSpec("inverse_bracket", 5, c=0.01, beta=7.0)
        report = check_assumptions(spec, grid)
        assert not report.decay_ok

    def test_gaussian_family_compliant(self, grid):
        spec = PotentialSpec("gaussian_bump", 5, c=0.01, a=1.0, delta_n=0.1)
        report = check_assumptions(spec, grid)
        assert all_ok(report)

    def test_smallness_verdict_respects_delta_n(self, grid):
        spec = dataclasses.replace(example_potential(5, c=10.0), delta_n=0.05)
        report = check_assumptions(spec, grid)
        assert not report.weak_norm_ok
        assert report.weak_norm_value > 0.05 == report.delta_n
        # the bound is no part of V: specs that differ only in it are one key
        loose = dataclasses.replace(spec, delta_n=1e6)
        assert loose == spec and hash(loose) == hash(spec)
        assert check_assumptions(loose, grid).weak_norm_ok
