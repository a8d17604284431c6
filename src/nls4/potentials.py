"""Parametric potential families and hypothesis compliance checks.

Three families are supported:

  inverse_bracket   V(r) = c <r>^{-beta},   <r> = (1 + r^2)^{1/2}
  gaussian_bump     V(r) = c exp(-a r^2)
  zero              V = 0

The compliance report measures, node-wise on a grid, the quantities behind
the standing hypotheses on V: polynomial decay, repulsiveness r V'(r) <= 0,
first-derivative decay bounds, nonnegativity, and smallness of the weak
L^{n/4} size.  Derivatives are evaluated analytically per family so the
verdicts carry no discretization error.  The Fourier-weighted integrability
condition is not checkable on a radial grid and is always reported as
"unchecked".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import RadialField, RadialGrid, weak_lp_norm

FAMILIES = ("inverse_bracket", "gaussian_bump", "zero")
DEFAULT_DELTA_N = 0.05


class PotentialError(ValueError):
    """Invalid potential specification."""


@dataclass(frozen=True)
class PotentialSpec:
    """Family name plus coefficients; beta for inverse_bracket, a for gaussian."""

    family: str
    dimension: int
    c: float = 0.0
    beta: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PotentialError(
                f"unknown potential family {self.family!r}; choose from {FAMILIES}"
            )
        if self.family == "inverse_bracket":
            if self.beta is None or self.beta <= 0:
                raise PotentialError("inverse_bracket requires beta > 0")
        if self.family == "gaussian_bump":
            if self.a is None or self.a <= 0:
                raise PotentialError("gaussian_bump requires a > 0")

    def value(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.family == "zero":
            return np.zeros_like(r)
        if self.family == "inverse_bracket":
            return self.c * (1.0 + r**2) ** (-self.beta / 2.0)
        return self.c * np.exp(-self.a * r**2)

    def derivative(self, r: np.ndarray) -> np.ndarray:
        """Analytic V'(r)."""
        r = np.asarray(r, dtype=float)
        if self.family == "zero":
            return np.zeros_like(r)
        if self.family == "inverse_bracket":
            return -self.c * self.beta * r * (1.0 + r**2) ** (-self.beta / 2.0 - 1.0)
        return -2.0 * self.a * self.c * r * np.exp(-self.a * r**2)


def zero_potential(n: int) -> PotentialSpec:
    return PotentialSpec(family="zero", dimension=n)


def example_potential(n: int, c: float = 0.01, beta: float | None = None) -> PotentialSpec:
    """The compliant worked-example family c <r>^{-beta} with beta > n + 4."""
    if beta is None:
        beta = n + 5.0
    return PotentialSpec(family="inverse_bracket", dimension=n, c=c, beta=beta)


def evaluate_potential(spec: PotentialSpec, grid: RadialGrid) -> RadialField:
    if spec.dimension != grid.dimension:
        raise PotentialError(
            f"potential is for dimension {spec.dimension}, grid has {grid.dimension}"
        )
    values = spec.value(grid.nodes)
    if not np.all(np.isfinite(values)):
        raise PotentialError("potential evaluates to non-finite values")
    return RadialField(grid, values.astype(complex))


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts plus the measured quantities that produced them."""

    decay_ok: bool
    decay_sup: float          # sup <r>^beta_probe |V|
    decay_exponent: float     # beta_probe used in the sup
    repulsive_ok: bool
    repulsive_max: float      # max r V'(r)
    derivative_bound_ok: bool
    c0: float                 # sup <r>^beta_d |V|
    c1: float                 # sup <r>^{beta_d + 1} |V'|
    nonneg_ok: bool
    min_value: float
    weak_norm_value: float    # ||V||_{L^{n/4, inf}}
    weak_norm_ok: bool
    delta_n: float
    fourier_condition: str = "unchecked"

    @property
    def all_ok(self) -> bool:
        return (
            self.decay_ok
            and self.repulsive_ok
            and self.derivative_bound_ok
            and self.nonneg_ok
            and self.weak_norm_ok
        )


def check_assumptions(
    spec: PotentialSpec, grid: RadialGrid, delta_n: float = DEFAULT_DELTA_N
) -> AssumptionReport:
    """Grid-wise compliance measurement; always returns a report."""
    n = grid.dimension
    r = grid.nodes
    bracket = np.sqrt(1.0 + r**2)
    v = spec.value(r)
    dv = spec.derivative(r)

    decay_required = n + 3.0 if n % 2 == 1 else n + 4.0
    if spec.family == "inverse_bracket":
        beta_probe = float(spec.beta)
        decay_ok = spec.beta > decay_required
    elif spec.family == "gaussian_bump":
        beta_probe = decay_required + 1.0
        decay_ok = True
    else:
        beta_probe = decay_required + 1.0
        decay_ok = True
    decay_sup = float(np.max(bracket**beta_probe * np.abs(v))) if v.size else 0.0
    decay_ok = decay_ok and np.isfinite(decay_sup)

    repulsive_max = float(np.max(r * dv)) if v.size else 0.0
    repulsive_ok = repulsive_max <= 1e-14 * max(1.0, float(np.max(np.abs(v), initial=0.0)))

    # first-derivative decay: need some beta_d >= 4 with <r>^{beta_d+|a|} bounds
    if spec.family == "inverse_bracket":
        beta_d = min(float(spec.beta), beta_probe)
        derivative_bound_ok = spec.beta >= 4.0
    else:
        beta_d = 4.0
        derivative_bound_ok = True
    c0 = float(np.max(bracket**beta_d * np.abs(v)))
    c1 = float(np.max(bracket ** (beta_d + 1.0) * np.abs(dv)))
    derivative_bound_ok = derivative_bound_ok and np.isfinite(c0) and np.isfinite(c1)

    min_value = float(np.min(v))
    nonneg_ok = min_value >= 0.0 and spec.c >= 0.0

    weak_norm_value = weak_lp_norm(RadialField(grid, v.astype(complex)), n / 4.0)
    weak_norm_ok = weak_norm_value <= delta_n

    return AssumptionReport(
        decay_ok=bool(decay_ok),
        decay_sup=decay_sup,
        decay_exponent=beta_probe,
        repulsive_ok=bool(repulsive_ok),
        repulsive_max=repulsive_max,
        derivative_bound_ok=bool(derivative_bound_ok),
        c0=c0,
        c1=c1,
        nonneg_ok=bool(nonneg_ok),
        min_value=min_value,
        weak_norm_value=weak_norm_value,
        weak_norm_ok=bool(weak_norm_ok),
        delta_n=delta_n,
    )
