"""Space-time norms, equivalence ratios, decay fits, Strichartz quotients,
localized-mass rates, and the Morawetz functional."""

import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nls4 import analysis, radial, spectral
from nls4.analysis import (
    SPACETIME_NORMS,
    AdmissibilityError,
    ModalForcing,
    ResolutionError,
    SpaceTimeSample,
    duhamel_solution,
    fit_decay,
    is_b_admissible,
    localized_mass_rate_check,
    morawetz_check,
    predicted_decay_exponent,
    require_b_admissible,
    sobolev_equiv_ratio,
    spacetime_exponents,
    spacetime_norm,
    strichartz_quotient,
)
from nls4.experiments import _stock_pairs
from nls4.radial import RadialField, localized_mass, lp_norm, lp_norm_values
from nls4.config import load_config
from nls4.solver import SimulationConfig, critical_exponent, mass, phase_table, run_trajectory
from nls4.spectral import (
    apply_function,
    fractional_gradient_values,
    hdot2_norm,
    laplacian_values,
    power_values,
)
from nls4.states import random_low_mode_field, soft_lowpass

from conftest import random_smooth_field, row_h2dot


def sample_of(times, fields, interval):
    """The sample whose rows are the values of the given fields."""
    return SpaceTimeSample(fields[0].grid, times, np.array([f.values for f in fields]), interval)


def linear_sample(op, u0, t_grid):
    fields = [apply_function(op, "exp_it", t, u0) for t in t_grid]
    return sample_of(t_grid, fields, (t_grid[0], t_grid[-1]))


class TestAdmissibility:
    def test_stock_pair_is_admissible(self):
        # q = 2(n+4)/(n-4), r = 2n(n+4)/(n^2+16) for n = 5
        assert is_b_admissible(Fraction(18), Fraction(90, 41), 5)

    def test_endpoint_pair(self):
        assert is_b_admissible(Fraction(2), Fraction(10), 5)

    def test_violations_rejected_with_identity(self):
        with pytest.raises(AdmissibilityError):
            require_b_admissible(Fraction(3), Fraction(3), 5)
        with pytest.raises(AdmissibilityError):
            require_b_admissible(Fraction(18), Fraction(90, 41), 5 + 2)

    @pytest.mark.parametrize("q, r", [(0, 3), (18, 0), (0, 0)])
    def test_zero_exponent_rejected_by_name(self, q, r):
        # the message must not divide by the exponent it rejects
        with pytest.raises(AdmissibilityError, match=rf"\(q, r\) = \({q}, {r}\)"):
            require_b_admissible(Fraction(q), Fraction(r), 5)

    def test_r_below_half_n_gate(self):
        with pytest.raises(AdmissibilityError):
            require_b_admissible(Fraction(2), Fraction(10), 5, r_below_half_n=True)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_stock_pairs_are_admissible_below_half_n(self, n):
        for q, r in _stock_pairs(n):
            require_b_admissible(q, r, n, r_below_half_n=True)

    def test_stock_pairs_at_n5(self):
        assert _stock_pairs(5) == (
            (Fraction(18), Fraction(90, 41)),
            (Fraction(12), Fraction(30, 13)),
            (Fraction(24), Fraction(15, 7)),
        )


class TestSpaceTimeNorms:
    def test_exponent_table(self):
        assert spacetime_exponents("M", 5) == (Fraction(18), Fraction(90, 41))
        assert spacetime_exponents("W", 5) == (Fraction(18), Fraction(90, 23))
        assert spacetime_exponents("Z", 5) == (Fraction(18), Fraction(18))
        assert spacetime_exponents("N", 5) == (Fraction(2), Fraction(10, 7))

    def test_zero_sample_vanishes(self, grid, op_free):
        ts = np.linspace(0, 1, 6)
        zero = RadialField(grid, np.zeros(grid.num_points))
        sample = sample_of(ts, [zero for _ in ts], (0.0, 1.0))
        for which in ("M", "W", "Z", "N"):
            assert spacetime_norm(sample, which, op_free) == 0.0

    def test_time_constant_field_separates(self, grid, op_free, rng):
        u = random_smooth_field(grid, rng)
        ts = np.linspace(0, 2, 9)
        sample = sample_of(ts, [RadialField(u.grid, u.values.copy()) for _ in ts], (0.0, 2.0))
        q, r = spacetime_exponents("Z", 5)
        expected = 2.0 ** (1.0 / float(q)) * lp_norm(u, float(r))
        assert spacetime_norm(sample, "Z") == pytest.approx(expected, rel=1e-12)

    def test_homogeneity_and_positivity(self, grid, op_free, rng):
        u = random_smooth_field(grid, rng)
        ts = np.linspace(0, 1, 6)
        sample = sample_of(ts, [RadialField(u.grid, u.values.copy()) for _ in ts], (0.0, 1.0))
        double = sample_of(ts, [2.0 * u for _ in ts], (0.0, 1.0))
        for which in ("M", "W", "Z", "N"):
            base = spacetime_norm(sample, which, op_free)
            assert base > 0
            assert spacetime_norm(double, which, op_free) == pytest.approx(
                2.0 * base, rel=1e-12
            )

    def test_too_few_samples_rejected(self, grid, rng):
        ts = np.array([0.0, 0.5, 1.0])
        sample = sample_of(ts, [random_smooth_field(grid, rng) for _ in ts], (0, 1))
        with pytest.raises(ResolutionError):
            spacetime_norm(sample, "Z")

    def test_w_controlled_by_m_on_linear_runs(self, op_full, op_free):
        # Sobolev-embedding surrogate: one constant controls W/M over many runs
        rng = np.random.default_rng(0)
        ts = np.linspace(0, 0.5, 9)
        ratios = []
        for _ in range(20):
            u0 = random_low_mode_field(op_full, rng)
            sample = linear_sample(op_full, u0, ts)
            w = spacetime_norm(sample, "W", op_free)
            m = spacetime_norm(sample, "M", op_free)
            ratios.append(w / m)
        assert max(ratios) <= 3.0


class TestSobolevRatio:
    def test_zero_potential_ratio_one(self, op_free, op_zero, grid, rng):
        u = random_smooth_field(grid, rng)
        for s in (0.5, 1.0, 1.5, 2.0):
            for p in (1.5, 2.0, 2.2):
                assert abs(sobolev_equiv_ratio(op_zero, op_free, [u], s, [p])[0, 0] - 1.0) <= 1e-9

    def test_s_zero_exactly_one(self, op_full, op_free, grid, rng):
        u = random_smooth_field(grid, rng)
        assert sobolev_equiv_ratio(op_full, op_free, [u], 0.0, [2.0])[0, 0] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_small_potential_band(self, op_full, op_free):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_low_mode_field(op_free, rng)
            for s in (0.5, 2.0):
                for p in (1.5, 2.2):
                    assert 0.5 <= sobolev_equiv_ratio(op_full, op_free, [u], s, [p])[0, 0] <= 2.0

    def test_scaling_invariance(self, op_full, op_free, grid, rng):
        u = random_smooth_field(grid, rng)
        a = sobolev_equiv_ratio(op_full, op_free, [u], 1.5, [2.0])[0, 0]
        b = sobolev_equiv_ratio(op_full, op_free, [5.0 * u], 1.5, [2.0])[0, 0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_parameter_validation(self, op_full, op_free, grid, rng):
        u = random_smooth_field(grid, rng)
        with pytest.raises(ValueError):
            sobolev_equiv_ratio(op_full, op_free, [u], 2.5, [2.0])
        with pytest.raises(ValueError):
            sobolev_equiv_ratio(op_full, op_free, [u], 1.0, [2.6])  # p >= n/2

    def test_zero_field_rejected(self, op_full, op_free, grid):
        zero = RadialField(grid, np.zeros(grid.num_points))
        with pytest.raises(ZeroDivisionError):
            sobolev_equiv_ratio(op_full, op_free, [zero], 1.0, [2.0])

    def test_many_p_equal_one_p_calls(self, op_full, op_free, rng):
        u = random_low_mode_field(op_free, rng)
        ps = [1.5, 2.0, 2.2]
        for s in (0.5, 1.0, 1.5, 2.0):
            together = sobolev_equiv_ratio(op_full, op_free, [u], s, ps)
            apart = [sobolev_equiv_ratio(op_full, op_free, [u], s, [p])[0, 0] for p in ps]
            assert together.shape == (1, 3)
            assert list(together[0]) == apart

    def test_batched_fields_equal_one_field_calls(self, op_full, op_free, grid, rng):
        # every row of a batched call equals that field alone, and the
        # per-field lp_norm form the ratios had before, bit for bit
        fields = [random_low_mode_field(op_free, rng) for _ in range(5)]
        fields.append(random_smooth_field(grid, rng))
        ps = [1.5, 2.0, 2.2]
        for s in (0.5, 1.0, 2.0):
            together = sobolev_equiv_ratio(op_full, op_free, fields, s, ps)
            assert together.shape == (len(fields), len(ps))
            for row, u in zip(together, fields):
                alone = sobolev_equiv_ratio(op_full, op_free, [u], s, ps)[0]
                h_s = RadialField(grid, power_values(op_full, s, u.values))
                grad_s = RadialField(grid, fractional_gradient_values(op_free, s, u.values))
                frozen = [lp_norm(h_s, p) / lp_norm(grad_s, p) for p in ps]
                assert row.tobytes() == alone.tobytes() == np.array(frozen).tobytes()

    def test_zero_field_in_a_batch_rejected(self, op_full, op_free, grid, rng):
        zero = RadialField(grid, np.zeros(grid.num_points))
        with pytest.raises(ZeroDivisionError):
            sobolev_equiv_ratio(op_full, op_free,
                                [random_smooth_field(grid, rng), zero], 1.0, [2.0])

    def test_bad_p_anywhere_raises_before_any_transform(self, op_full, op_free, grid, rng,
                                                        monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("transform reached before p was checked")

        monkeypatch.setattr(analysis, "power_values", unreachable)
        monkeypatch.setattr(analysis, "fractional_gradient_values", unreachable)
        u = random_smooth_field(grid, rng)
        for ps in ([2.6, 1.5], [1.5, 2.0, 2.6], [1.5, 1.0]):
            with pytest.raises(ValueError, match="p must lie"):
                sobolev_equiv_ratio(op_full, op_free, [u], 1.0, ps)


class TestDecayFit:
    def test_p2_slope_vanishes(self, op_full, op_free):
        # L^2 is conserved exactly, reflections included, so no clean-window gate
        u0 = soft_lowpass(op_free, RadialField(
            op_free.grid, np.exp(-(op_free.grid.nodes / 2.0) ** 2).astype(complex)), 1.4)
        fit = fit_decay(op_full, u0, 2.0, (0.05, 0.5), num_samples=10,
                        boundary_threshold=1.0)
        assert abs(fit.exponent) <= 0.05

    def test_predicted_exponent_formula(self):
        assert predicted_decay_exponent(5, 10.0) == pytest.approx(-1.0)
        assert predicted_decay_exponent(5, 2.0) == 0.0

    def test_contaminated_window_rejected(self, op_full):
        u0 = RadialField(op_full.grid, np.exp(-op_full.grid.nodes**2).astype(complex))
        with pytest.raises(analysis.WindowError):
            fit_decay(op_full, u0, 10.0, (0.5, 5.0), num_samples=8)

    def test_bad_window_rejected(self, op_full, grid, rng):
        with pytest.raises(ValueError):
            fit_decay(op_full, random_smooth_field(grid, rng), 10.0, (0.0, 1.0))

    def test_window_error_names_the_first_contaminated_time(self, op_full):
        # clean at the first two of twelve log-spaced times, past 1e-6 from the third
        u0 = RadialField(op_full.grid, np.exp(-op_full.grid.nodes**2).astype(complex))
        times = np.geomspace(0.01, 5.0, 12)
        rows = spectral.evolve(op_full, u0.values, times)
        dirty = [t for t, row in zip(times, rows)
                 if radial.boundary_mass(RadialField(op_full.grid, row)) > 1e-6 * mass(u0)]
        assert dirty[0] > times[1]
        with pytest.raises(analysis.WindowError, match=f"at t = {dirty[0]:.4g}$"):
            fit_decay(op_full, u0, 10.0, (0.01, 5.0), num_samples=12)

    @pytest.mark.parametrize("num_samples", [0, 1])
    def test_fewer_than_two_samples_rejected_before_any_evolution(
            self, op_full, grid, rng, monkeypatch, num_samples):
        # one sample fitted a line through one point; none failed inside numpy
        monkeypatch.setattr(analysis, "evolve", lambda *a: pytest.fail("evolve reached"))
        with pytest.raises(ValueError, match=f"num_samples must be at least 2, got {num_samples}"):
            fit_decay(op_full, random_smooth_field(grid, rng), 10.0, (0.05, 0.5),
                      num_samples=num_samples)


class TestStrichartzQuotient:
    def test_single_eigenmode_closed_form(self, op_full, op_free):
        mode = op_full.eigenfield(4)
        pair = (Fraction(18), Fraction(90, 41))
        measured = strichartz_quotient(op_full, op_free, mode, None, [pair], (0.0, 1.0))[0]
        lap = RadialField(op_full.grid, laplacian_values(op_full.grid, mode.values))
        expected = lp_norm(lap, 90.0 / 41.0) / hdot2_norm(mode)
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_linear_scaling_invariance(self, op_full, op_free, rng):
        u0 = random_low_mode_field(op_free, rng)
        pair = (Fraction(18), Fraction(90, 41))
        a = strichartz_quotient(op_full, op_free, u0, None, [pair], (0.0, 1.0))[0]
        b = strichartz_quotient(op_full, op_free, 3.0 * u0, None, [pair], (0.0, 1.0))[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_non_admissible_pair_rejected(self, op_full, op_free, rng):
        u0 = random_low_mode_field(op_free, rng)
        with pytest.raises(AdmissibilityError):
            strichartz_quotient(op_full, op_free, u0, None, [(Fraction(3), Fraction(3))])

    @pytest.mark.parametrize("forced", [False, True])
    def test_stock_pairs_in_one_call_equal_one_pair_calls(self, op_full, op_free, forced):
        rng = np.random.default_rng(23)
        u0 = random_low_mode_field(op_free, rng)
        forcing = ModalForcing(
            rng.uniform(-8, 8, 2),
            [random_low_mode_field(op_free, rng, norm=0.5) for _ in range(2)],
        ) if forced else None
        pairs = _stock_pairs(5)
        together = strichartz_quotient(op_full, op_free, u0, forcing, pairs, (0.0, 1.0))
        apart = [
            strichartz_quotient(op_full, op_free, u0, forcing, [pair], (0.0, 1.0))[0]
            for pair in pairs
        ]
        assert together.shape == (3,)
        assert list(together) == apart

    @pytest.mark.parametrize("case", ["none_small", "some_small", "all_small", "zero_delta"])
    def test_phase_integral_matches_where_form(self, op_full, case):
        # The series entries keep their bits.  The closed-form entries take
        # e^{i delta t} as e^{i omega t} conj(e^{i mu t}): each exponential's
        # argument carries eps (|omega| t or |mu| t) of rounding, so they
        # agree with exp(i delta t) to a few eps (1 + |mu| t + |omega| t),
        # and after the division by delta to that over |delta|.
        def where_form(delta, t):
            small = np.abs(delta * t) < 1e-8
            with np.errstate(divide="ignore", invalid="ignore"):
                closed = (np.exp(1j * delta * t) - 1.0) / (1j * delta)
            return np.where(small, t * (1.0 + 0.5j * delta * t - (delta * t) ** 2 / 6.0),
                            closed)

        omega = 3.7
        mu = op_full.eigenvalues.copy()
        times = np.linspace(0.0, 1.0, 129)[:, None]
        if case == "none_small":
            times = times[1:]
        elif case == "some_small":  # the t = 0 row and two whole columns
            mu[7] = omega
            mu[9] = omega - 1e-9
        elif case == "all_small":
            times = times * 1e-15
        else:
            mu = np.full_like(mu, omega)
        delta = omega - mu
        small = np.abs(delta * times) < 1e-8
        assert {"none_small": not small.any(), "some_small": 0 < small.mean() < 0.1}.get(
            case, small.all())
        conj_phases = np.conjugate(np.exp(1j * mu * times))
        new = analysis._phase_integral(omega, mu, times, conj_phases)
        old = where_form(delta, times)
        assert new.shape == old.shape
        assert new[small].tobytes() == old[small].tobytes()
        bound = 4 * np.finfo(float).eps * (1 + np.abs(mu) * times + abs(omega) * times)
        with np.errstate(divide="ignore"):
            bound = bound / np.abs(delta)
        assert np.all(np.abs(new - old)[~small] <= np.broadcast_to(bound, small.shape)[~small])

    def test_inadmissible_pair_anywhere_raises_before_solve(self, op_full, op_free, rng,
                                                            monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("Duhamel solve reached before the pairs were checked")

        monkeypatch.setattr(analysis, "duhamel_solution", unreachable)
        u0 = random_low_mode_field(op_free, rng)
        first, *rest = _stock_pairs(5)
        for pairs in ([first, (Fraction(3), Fraction(3))], [(Fraction(3), Fraction(3)), first],
                      [first, *rest, (Fraction(8), Fraction(5, 2))]):
            with pytest.raises(AdmissibilityError):
                strichartz_quotient(op_full, op_free, u0, None, pairs, (0.0, 1.0))

    @pytest.mark.parametrize("num_samples, interval, error", [
        (1, (0.0, 1.0), ResolutionError),
        (3, (0.0, 1.0), ResolutionError),
        (129, (0.5, 0.5), ValueError),
        (129, (0.0, -1.0), ValueError),
    ], ids=["one_sample", "three_samples", "empty_interval", "reversed_interval"])
    def test_degenerate_sampling_raises_before_solve(self, op_full, op_free, rng, monkeypatch,
                                                     num_samples, interval, error):
        def unreachable(*args, **kwargs):
            raise AssertionError("Duhamel solve reached before the sampling was checked")

        monkeypatch.setattr(analysis, "duhamel_solution", unreachable)
        u0 = random_low_mode_field(op_free, rng)
        with pytest.raises(error, match="time samples|t0 < t1"):
            strichartz_quotient(op_full, op_free, u0, None, _stock_pairs(5), interval,
                                num_samples)

    def test_duhamel_solution_linear_part(self, op_full, op_free, rng):
        u0 = random_low_mode_field(op_free, rng)
        out = duhamel_solution(op_full, u0, None, [0.7])
        exact = apply_function(op_full, "exp_it", 0.7, u0)
        assert np.allclose(out[0], exact.values, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("ops", [("small_op_full", "small_op_free"), ("op_full", "op_free")])
    def test_forced_duhamel_matches_per_time_reference(self, request, ops):
        op, op_free = (request.getfixturevalue(name) for name in ops)
        rng = np.random.default_rng(19)
        u0 = random_low_mode_field(op_free, rng)
        forcing = ModalForcing(
            rng.uniform(-8, 8, 2),
            [random_low_mode_field(op_free, rng, norm=0.5) for _ in range(2)],
        )
        times = np.linspace(0.0, 1.0, 9)
        mu = op.eigenvalues
        ref = []
        for t in times:
            coeffs = op.to_modal(u0.values) * np.exp(1j * mu * t)
            for w, g in zip(forcing.omegas, forcing.fields):
                # int_0^t e^{i(t-s)mu} e^{i w s} ds in closed form
                d = w - mu
                coeffs = coeffs + 1j * np.exp(1j * mu * t) * op.to_modal(g.values) * (
                    (np.exp(1j * d * t) - 1.0) / (1j * d)
                )
            ref.append(op.from_modal(coeffs))
        ref = np.array(ref)
        out = duhamel_solution(op, u0, forcing, times)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(out[0] - u0.values)) <= 1e-10 * np.max(np.abs(u0.values))

    def test_forced_solve_same_bits_at_one_and_two_blas_threads(self):
        # the strichartz solve at N = 256: operator build, phase table, forced
        # Duhamel solve; a digest that moved with the thread count would make
        # the quotients depend on the machine
        script = (
            "import hashlib, numpy as np\n"
            "from nls4 import analysis, potentials, radial, spectral, states\n"
            "grid = radial.make_grid(5, 20.0, 256)\n"
            "op = spectral.build_operator('full', grid, potentials.example_potential(5))\n"
            "op_free = spectral.build_operator('free', grid)\n"
            "rng = np.random.default_rng(23)\n"
            "u0 = states.random_low_mode_field(op_free, rng)\n"
            "forcing = analysis.ModalForcing(rng.uniform(-8, 8, 2),\n"
            "    [states.random_low_mode_field(op_free, rng, norm=0.5) for _ in range(2)])\n"
            "out = analysis.duhamel_solution(op, u0, forcing, np.linspace(0.0, 1.0, 129))\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = str(Path(analysis.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_forced_quotients_bounded(self, op_full, op_free):
        rng = np.random.default_rng(17)
        pair = (Fraction(12), Fraction(30, 13))
        values = []
        for _ in range(5):
            u0 = random_low_mode_field(op_free, rng)
            forcing = ModalForcing(
                rng.uniform(-8, 8, 2),
                [random_low_mode_field(op_free, rng, norm=0.5) for _ in range(2)],
            )
            values.append(
                strichartz_quotient(op_full, op_free, u0, forcing, [pair], (0.0, 1.0))[0]
            )
        assert max(values) / min(values) <= 10.0


# the whole-array forms of ModalForcing.values_at, _phase_integral,
# duhamel_solution and strichartz_quotient before their row-local stages ran
# by row blocks, and of spacetime_norm: the references the code must equal
# byte for byte
def frozen_values_at(forcing, t):
    t = np.asarray(t, dtype=float)[..., None]
    out = np.zeros_like(forcing.fields[0].values)
    for w, g in zip(forcing.omegas, forcing.fields):
        out = out + np.exp(1j * w * t) * g.values
    return out


def frozen_phase_integral(omega, mu, t, conj_phases):
    delta = omega - mu
    delta_t = delta * t
    small = np.abs(delta_t) < 1e-8
    out = np.multiply(np.exp(1j * omega * t), conj_phases)
    out -= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= 1j * delta
    if small.any():
        d_s = np.broadcast_to(delta, small.shape)[small]
        t_s = np.broadcast_to(t, small.shape)[small]
        out[small] = t_s * (1.0 + 0.5j * d_s * t_s - delta_t[small] ** 2 / 6.0)
    return out


def frozen_duhamel_solution(op, u0, forcing, times):
    mu = op.eigenvalues
    times = np.asarray(times, dtype=float)
    phases = phase_table(op, times)
    coeffs = op.to_modal(u0.values) * phases
    if forcing is not None:
        g_modal = op.to_modal(np.array([g.values for g in forcing.fields]))
        i_phases = 1j * phases
        conj_phases = np.conjugate(phases)
        for w, g_m in zip(forcing.omegas, g_modal):
            coeffs += i_phases * g_m * frozen_phase_integral(w, mu, times[:, None], conj_phases)
    return op.from_modal(coeffs)


def frozen_time_lq(times, values, q):
    peak = values.max() if values.size else 0.0
    if peak == 0.0:
        return 0.0
    return float(peak * np.trapezoid((values / peak) ** q, times) ** (1.0 / q))


def frozen_strichartz_quotient(op_full, op_free, u0, forcing, pairs, interval, num_samples):
    n = op_full.grid.dimension
    pairs = [(Fraction(q), Fraction(r)) for q, r in pairs]
    times = np.linspace(*interval, num_samples)
    grid = op_full.grid
    lap_u = laplacian_values(grid, frozen_duhamel_solution(op_full, u0, forcing, times))
    dual = 0.0
    if forcing is not None:
        _, r_dual = spacetime_exponents("N", n)
        grad_h = fractional_gradient_values(op_free, 1.0, frozen_values_at(forcing, times))
        dual = frozen_time_lq(times, lp_norm_values(grid, grad_h, float(r_dual)), 2.0)
    denom = hdot2_norm(u0) + dual
    return np.array([
        frozen_time_lq(times, lp_norm_values(grid, lap_u, float(r)), float(q)) / denom
        for q, r in pairs
    ])


def frozen_spacetime_norm(sample, which, op_free):
    grid = sample.grid
    q, r = spacetime_exponents(which, grid.dimension)
    values = sample.values
    if which == "M":
        values = laplacian_values(grid, values)
    elif which in ("W", "N"):
        values = fractional_gradient_values(op_free, 1.0, values)
    return frozen_time_lq(sample.times, lp_norm_values(grid, values, float(r)), float(q))


def forced_draw(op_free, seed, forced=True):
    rng = np.random.default_rng(seed)
    u0 = random_low_mode_field(op_free, rng)
    if not forced:
        return u0, None
    return u0, ModalForcing(
        rng.uniform(-8, 8, 2),
        [random_low_mode_field(op_free, rng, norm=0.5) for _ in range(2)],
    )


OPS = {96: ("small_op_full", "small_op_free"), 256: ("op_full", "op_free")}

# at most this many minor page faults per forced quotient at N = 256, T = 129
# under a fixed 128 KiB mmap threshold: about 4,600 when each (T, N)
# temporary was a fresh mapping, about 430 with the row-blocked stages
QUOTIENT_FAULT_BOUND = 1500


class TestRowBlockedStages:
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("num_times", [1, 4, 15, 16, 17, 129])
    @pytest.mark.parametrize("n_points", sorted(OPS))
    def test_duhamel_equals_whole_array_form(self, request, n_points, num_times, forced):
        op, op_free = (request.getfixturevalue(name) for name in OPS[n_points])
        u0, forcing = forced_draw(op_free, 31, forced)
        times = np.linspace(0.0, 1.0, num_times)
        out = duhamel_solution(op, u0, forcing, times)
        ref = frozen_duhamel_solution(op, u0, forcing, times)
        assert out.shape == ref.shape == (num_times, n_points)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("num_samples", [4, 15, 16, 17, 129])
    @pytest.mark.parametrize("n_points", sorted(OPS))
    def test_quotient_equals_whole_array_form(self, request, n_points, num_samples, forced):
        op, op_free = (request.getfixturevalue(name) for name in OPS[n_points])
        u0, forcing = forced_draw(op_free, 37, forced)
        pairs = _stock_pairs(5)
        out = strichartz_quotient(op, op_free, u0, forcing, pairs, (0.0, 1.0), num_samples)
        ref = frozen_strichartz_quotient(op, op_free, u0, forcing, pairs, (0.0, 1.0),
                                         num_samples)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("which", SPACETIME_NORMS)
    @pytest.mark.parametrize("num_times", [4, 17, 129])
    @pytest.mark.parametrize("n_points", sorted(OPS))
    def test_spacetime_norm_equals_whole_array_form(self, request, n_points, num_times, which):
        op, op_free = (request.getfixturevalue(name) for name in OPS[n_points])
        u0, forcing = forced_draw(op_free, 41)
        times = np.linspace(0.0, 1.0, num_times)
        sample = SpaceTimeSample(op.grid, times, duhamel_solution(op, u0, forcing, times),
                                 (0.0, 1.0))
        before = sample.values.tobytes()
        norm = spacetime_norm(sample, which, op_free)
        assert norm > 0 and norm == frozen_spacetime_norm(sample, which, op_free)
        assert sample.values.tobytes() == before

    @pytest.mark.parametrize("t", [0.3, np.linspace(0.0, 1.0, 129)], ids=["scalar", "times"])
    def test_values_at_equals_whole_array_form(self, op_free, t):
        _, forcing = forced_draw(op_free, 43)
        ref = frozen_values_at(forcing, t)
        assert forcing.values_at(t).tobytes() == ref.tobytes()
        out = np.full(ref.shape, np.nan, complex)
        assert forcing.values_at(t, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_blocks_call_no_public_stage(self, op_full, op_free, monkeypatch):
        # a profiler wraps the public stencil and norm: one row block (T = 4)
        # and nine (T = 129) must make the same public calls, and the quotient
        # takes its Delta u and L^r norms through neither public name
        calls = []
        for module in (analysis, radial, spectral):
            for name in ("lp_norm_values", "laplacian_values", "apply_tridiag"):
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(module, name,
                                        lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        u0, forcing = forced_draw(op_free, 47)
        seen = []
        for num_samples in (4, 129):
            calls.clear()
            strichartz_quotient(op_full, op_free, u0, forcing, _stock_pairs(5), (0.0, 1.0),
                                num_samples)
            seen.append(sorted(calls))
        assert seen[0] == seen[1]
        assert "lp_norm_values" not in seen[1] and "laplacian_values" not in seen[1]

    def test_quotient_page_faults_bounded(self):
        # a fresh mapping for every (T, N) temporary is what this bounds: a
        # child with glibc's mmap threshold fixed at 128 KiB, as perfbench runs
        if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
            pytest.skip("page-fault bound needs glibc's malloc tunables")
        pytest.importorskip("resource", reason="page-fault bound needs the resource module")
        script = (
            "import resource, numpy as np\n"
            "from nls4 import analysis, experiments, potentials, radial, spectral, states\n"
            "grid = radial.make_grid(5, 20.0, 256)\n"
            "op = spectral.build_operator('full', grid, potentials.example_potential(5))\n"
            "op_free = spectral.build_operator('free', grid)\n"
            "rng = np.random.default_rng(5)\n"
            "pairs = experiments._stock_pairs(5)\n"
            "def quotient():\n"
            "    u0 = states.random_low_mode_field(op_free, rng)\n"
            "    forcing = analysis.ModalForcing(rng.uniform(-8, 8, 2),\n"
            "        [states.random_low_mode_field(op_free, rng, norm=0.5) for _ in range(2)])\n"
            "    analysis.strichartz_quotient(op, op_free, u0, forcing, pairs)\n"
            "quotient()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(5):\n"
            "    quotient()\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n"
        )
        src = str(Path(analysis.__file__).resolve().parents[1])
        env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        assert float(out.stdout) <= QUOTIENT_FAULT_BOUND


class TestLocalizedMassRate:
    def _moving_packet_sample(self, op):
        from nls4.states import gaussian_packet, soft_lowpass

        packet = soft_lowpass(op, gaussian_packet(op.grid, 1.0, 2.0, 3.0, 1.0), 2.0)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=2e-3, t_end=0.6, monitor_stride=10,
                               snapshot_stride=1, boundary_threshold=1.0)
        rec = run_trajectory(packet, op, cfg)
        return rec.snapshots

    def test_stationary_eigenmode_rate_vanishes(self, op_full):
        mode = op_full.eigenfield(2)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=1e-2, t_end=0.5, monitor_stride=5,
                               snapshot_stride=1, boundary_threshold=1.0)
        rec = run_trajectory(mode, op_full, cfg)
        sample = rec.snapshots
        rep = localized_mass_rate_check(sample, [2.0], row_h2dot(sample))[0]
        assert rep.max_abs_rate <= 1e-8 * mass(mode) / 0.05

    def test_saturating_radius_rate_vanishes(self, op_full):
        sample = self._moving_packet_sample(op_full)
        rep = localized_mass_rate_check(sample, [1.2 * op_full.grid.r_max], row_h2dot(sample))[0]
        dt_snap = float(np.min(np.diff(sample.times)))
        total = mass(RadialField(sample.grid, sample.values[0]))
        assert rep.max_abs_rate <= 1e-8 * total / dt_snap

    def test_constant_stable_across_radius_doubling(self, op_full):
        sample = self._moving_packet_sample(op_full)
        constants = [
            localized_mass_rate_check(sample, [radius], row_h2dot(sample))[0].empirical_constant
            for radius in (2.0, 4.0, 8.0)
        ]
        assert all(np.isfinite(constants))
        for a, b in zip(constants, constants[1:]):
            assert 1.0 / 3.0 <= b / a <= 3.0

    def test_many_radii_equal_one_radius_calls(self, op_full):
        sample = self._moving_packet_sample(op_full)
        radii = (2.0, 4.0, 8.0, 1.2 * op_full.grid.r_max)
        reports = localized_mass_rate_check(sample, radii, row_h2dot(sample))
        assert [rep.radius for rep in reports] == list(radii)
        for radius, rep in zip(radii, reports):
            (single,) = localized_mass_rate_check(sample, [radius], row_h2dot(sample))
            assert rep.empirical_constant == single.empirical_constant
            assert rep.max_abs_rate == single.max_abs_rate
            assert np.array_equal(rep.masses, single.masses)
            rows = [localized_mass(RadialField(sample.grid, row), radius) for row in sample.values]
            assert np.array_equal(rep.masses, rows)

    def test_nonpositive_radius_rejected(self, op_full):
        sample = self._moving_packet_sample(op_full)
        with pytest.raises(ValueError):
            localized_mass_rate_check(sample, [2.0, 0.0], row_h2dot(sample))

    def test_under_resolved_beat_rejected(self, op_full):
        # two-mode beat sampled at a quarter period aliases the rate estimate
        u = op_full.eigenfield(0) + op_full.eigenfield(6)
        beat = op_full.eigenvalues[6] - op_full.eigenvalues[0]
        times = np.arange(12) * (0.25 * 2 * np.pi / beat)
        fields = [apply_function(op_full, "exp_it", t, u) for t in times]
        sample = sample_of(times, fields, (times[0], times[-1]))
        with pytest.raises(ResolutionError):
            localized_mass_rate_check(sample, [2.0], row_h2dot(sample))

    def test_roundoff_noise_on_stationary_sample_not_rejected(self, op_full):
        # the stride-halving guard must not compare two rates made of roundoff
        rng = np.random.default_rng(3)
        mode = op_full.eigenfield(2)
        times = np.arange(12) * 0.05
        fields = [
            RadialField(mode.grid, mode.values * (1.0 + 1e-16 * rng.standard_normal()))
            for _ in times
        ]
        sample = sample_of(times, fields, (times[0], times[-1]))
        rep = localized_mass_rate_check(sample, [2.0], row_h2dot(sample))[0]
        assert rep.empirical_constant == 0.0

    def test_under_resolved_rate_above_floor_rejected(self, op_full):
        # the same guard still bites when the aliased rate is far above roundoff
        u = op_full.eigenfield(0) + op_full.eigenfield(6)
        beat = op_full.eigenvalues[6] - op_full.eigenvalues[0]
        times = np.arange(12) * (0.3 * 2 * np.pi / beat)
        sample = linear_sample(op_full, u, times)
        masses = [localized_mass(RadialField(sample.grid, row), 2.0) for row in sample.values]
        floor = 1e-12 * mass(u) / (times[1] - times[0])
        assert np.ptp(masses) / (times[2] - times[0]) > 1e6 * floor
        with pytest.raises(ResolutionError):
            localized_mass_rate_check(sample, [2.0], row_h2dot(sample))

    def test_time_reversal_does_not_increase_constant(self, op_full):
        # linear flow from real data: |u| of the reversed run mirrors forward
        sample = self._moving_packet_sample(op_full)
        fwd = localized_mass_rate_check(sample, [4.0], row_h2dot(sample))[0].empirical_constant
        rev = SpaceTimeSample(
            sample.grid, sample.times, np.conj(sample.values[::-1]), sample.interval
        )
        bwd = localized_mass_rate_check(rev, [4.0], row_h2dot(rev))[0].empirical_constant
        assert bwd <= fwd * 1.001


class TestMorawetz:
    def _critical_sample(self, op, lam=1.0, t_end=1.0):
        u0 = soft_lowpass(op, RadialField(
            op.grid, 1.2 * np.exp(-(op.grid.nodes / 2.0) ** 2).astype(complex)), 1.3)
        cfg = SimulationConfig(lam=lam, p=9.0, dt=2e-3, t_end=t_end, monitor_stride=5,
                               snapshot_stride=1, boundary_threshold=1.0)
        rec = run_trajectory(u0, op, cfg)
        return rec.snapshots

    def test_zero_solution_trivial(self, grid):
        ts = np.linspace(0, 1, 8)
        zero = RadialField(grid, np.zeros(grid.num_points))
        sample = sample_of(ts, [zero for _ in ts], (0.0, 1.0))
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-3, t_end=1.0)
        (rep,) = morawetz_check(sample, [1.0], cfg, row_h2dot(sample))
        assert rep.lhs == 0.0

    def test_non_critical_power_rejected(self, grid, rng):
        ts = np.linspace(0, 1, 8)
        sample = sample_of(ts, [random_smooth_field(grid, rng) for _ in ts], (0, 1))
        cfg = SimulationConfig(lam=1.0, p=3.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            morawetz_check(sample, [1.0], cfg, row_h2dot(sample))

    @pytest.mark.parametrize("offset", [-5e-10, 0.0, 5e-10])
    def test_echo_and_check_agree_on_the_critical_power(self, grid, tmp_path, offset):
        # the report's simulation.critical and the check's acceptance are one rule
        p = critical_exponent(5) + offset
        path = tmp_path / "exp.cfg"
        path.write_text(f"[experiment]\nkind = morawetz\n[simulation]\np = {p!r}\n")
        cfg = load_config(path)
        assert dict(cfg.canonical_items())["simulation.critical"] == repr(offset == 0.0)
        ts = np.linspace(0, 1, 8)
        zero = RadialField(grid, np.zeros(grid.num_points))
        sample = sample_of(ts, [zero for _ in ts], (0.0, 1.0))
        if offset == 0.0:
            morawetz_check(sample, [1.0], cfg.sim, row_h2dot(sample))
        else:
            with pytest.raises(ValueError, match="critical power"):
                morawetz_check(sample, [1.0], cfg.sim, row_h2dot(sample))

    def test_lhs_monotone_in_k(self, op_full):
        sample = self._critical_sample(op_full)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=1.0)
        reports = morawetz_check(sample, [1.0, 2.0, 4.0], cfg, row_h2dot(sample))
        lhs = [rep.lhs for rep in reports]
        assert np.all(np.diff(lhs) >= -1e-15)

    def test_linear_run_stable_under_interval_doubling(self, op_full):
        sample = self._critical_sample(op_full, lam=0.0)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=2e-3, t_end=1.0)
        short_sample = sample.restricted(0.0, 0.5)
        (short,) = morawetz_check(short_sample, [2.0], cfg, row_h2dot(short_sample))
        (long,) = morawetz_check(sample, [2.0], cfg, row_h2dot(sample))
        c_short, c_long = short.empirical_constant, long.empirical_constant
        assert 0.5 <= c_long / c_short <= 2.0

    def test_defocusing_constants_bounded_across_k(self, op_full):
        sample = self._critical_sample(op_full)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=1.0)
        reports = morawetz_check(sample, [1.0, 2.0, 4.0], cfg, row_h2dot(sample))
        values = [rep.empirical_constant for rep in reports]
        assert max(values) / min(values) <= 10.0

    def test_k_list_equals_one_k_calls(self, op_full):
        sample = self._critical_sample(op_full)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=1.0)
        ks = [0.5, 1.0, 2.0, 4.0]
        h2dot = row_h2dot(sample)
        together = morawetz_check(sample, ks, cfg, h2dot)
        alone = [morawetz_check(sample, [k], cfg, h2dot)[0] for k in ks]
        assert together == alone
