"""Experiment configuration: flat INI-style key-value text with typed validation.

Grammar (configparser syntax):

    [experiment]            required: kind; optional: seed, output_dir
    [grid]                  dimension, r_max, num_points
    [potential]             family, c, beta / a, delta_n
    [simulation]            lambda, p, dt, t_end, monitor_stride,
                            snapshot_stride, picard_tol, picard_max_iter,
                            boundary_threshold, blowup_factor
    [<experiment kind>]     experiment-specific knobs (see KNOB_SCHEMAS)

Every key is validated against a schema: unknown sections or keys are
rejected by name (typo safety).  Each section is then passed to its
dataclass, so a key left out takes that field's default; only
potential.family (zero) and simulation.p (critical) have defaults here,
their fields having none.  The fully resolved configuration is echoed into
reports, its [grid] and [simulation] lines walking the fields of GridParams
and SimulationConfig (field ``lam`` is key ``lambda``); a new field is
echoed with no further edit once its key is in _GRID_KEYS or
_SIMULATION_KEYS.  The literal value ``critical`` for ``p`` resolves to the
energy-critical power 2n/(n-4) - 1 in exact arithmetic for the configured
dimension.  Every bound on a knob's value is one row of _KNOB_BOUNDS, but
Strichartz pair admissibility.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .analysis import _MIN_FIT_SAMPLES, MIN_TIME_SAMPLES, AdmissibilityError, require_b_admissible
from .potentials import DEFAULT_DELTA_N, PotentialSpec
from .radial import GridError, _check_grid
from .solver import SimulationConfig, critical_exponent


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    """A non-empty list of floats separated by commas or semicolons."""
    values = tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    if not values:
        raise ValueError("needs at least one value")
    return values


def _parse_pairs(text: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exponent pairs like '18:90/41; 12:30/13' as exact positive fractions."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, _, right = chunk.partition(":")
        try:
            pair = (Fraction(left.strip()), Fraction(right.strip()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {chunk!r}") from None
        if min(pair) <= 0:
            raise ValueError(f"exponents must be positive, got {chunk!r}")
        pairs.append(pair)
    return tuple(pairs)


# knob name -> (parser, default); one schema per experiment kind
KNOB_SCHEMAS: dict[str, dict[str, tuple]] = {
    "conservation": {
        "amplitude": (float, 1.15),
        "width": (float, 4.0),
        "xi_cut": (float, 1.3),
        "mass_tol": (float, 1e-8),
        "energy_tol": (float, 1e-6),
        "ratio_band": (float, 0.3),
    },
    "decay": {
        "lp_exponents": (_parse_floats, (10.0, 2.0)),
        "xi_cut": (float, 1.6),
        "data_width": (float, 2.0),
        "t_lo": (float, 1.2),
        "t_hi": (float, 12.0),
        "num_samples": (int, 24),
        "slope_tol": (float, 0.15),
        "control_tol": (float, 0.05),
        "residual_cap": (float, 0.1),
        "include_zero_potential": (_parse_bool, True),
    },
    "sobolev_equiv": {
        "num_fields": (int, 50),
        "s_values": (_parse_floats, (0.5, 1.0, 1.5, 2.0)),
        "p_values": (_parse_floats, (1.5, 2.0, 2.2)),
        "ratio_lo": (float, 0.5),
        "ratio_hi": (float, 2.0),
        "exact_tol": (float, 1e-9),
        "include_zero_control": (_parse_bool, True),
    },
    "strichartz": {
        "num_draws": (int, 30),
        "pairs": (_parse_pairs, ()),  # empty means the three stock pairs for n
        "t_end": (float, 1.0),
        "num_samples": (int, 129),
        "spread_cap": (float, 10.0),
        "eigenmode_tol": (float, 1e-6),
        "eigenmode_index": (int, 4),
        "forcing_modes": (int, 2),
    },
    "localized_mass": {
        "radii": (_parse_floats, (2.0, 4.0, 8.0)),
        "packet_center": (float, 3.0),
        "packet_width": (float, 2.0),
        "packet_carrier": (float, 1.0),
        "xi_cut": (float, 2.0),
        "amplitude": (float, 1.0),
        "ratio_band": (float, 3.0),
        "zero_tol": (float, 1e-8),
        "eigenmode_index": (int, 2),
    },
    "morawetz": {
        "k_values": (_parse_floats, (1.0, 2.0, 4.0)),
        "interval_lengths": (_parse_floats, (0.5, 1.0, 2.0)),
        "interval_start": (float, 0.1),
        "amplitude": (float, 1.2),
        "width": (float, 2.0),
        "xi_cut": (float, 1.3),
        "target_h2dot": (float, 1.0),
        "spread_cap": (float, 10.0),
        "c_cap": (float, 100.0),
    },
    "small_data_global": {
        "target_h2dot": (float, 1e-4),
        "width": (float, 4.0),
        "xi_cut": (float, 1.3),
        "growth_cap": (float, 2.0),
    },
    "subcritical_global_cases": {
        "moderate_amplitude": (float, 0.8),
        "small_amplitude": (float, 0.05),
        "blowup_amplitude": (float, 6.0),
        "width": (float, 2.5),
        "xi_cut": (float, 1.6),
        "bound_slack": (float, 1e-6),
        "growth_cap": (float, 10.0),
    },
    "perturbation": {
        "data_gaps": (_parse_floats, (1e-3, 1e-4, 1e-5)),
        "slope_band": (float, 0.3),
        "forcing_amplitude": (float, 1e-3),
        "amplitude": (float, 0.8),
        "width": (float, 2.5),
        "xi_cut": (float, 1.6),
        "zero_case_tol": (float, 1e-10),
    },
    "wave_operator": {
        "times": (_parse_floats, (5.0, 10.0, 20.0, 40.0)),
        "data_width": (float, 3.0),
        "xi_cut": (float, 1.0),
        "mu_power": (int, 2),
        "final_gap_fraction": (float, 0.1),
    },
    "scattering": {
        "amplitude": (float, 0.45),
        "data_width": (float, 2.0),
        "xi_cut": (float, 1.2),
        "mass_tol": (float, 1e-6),
        "energy_tol": (float, 0.05),
        "linear_control_tol": (float, 1e-9),
        "include_linear_control": (_parse_bool, True),
    },
    "final_state": {
        "amplitude": (float, 5.0),
        "data_width": (float, 2.0),
        "xi_cut": (float, 1.4),
        "window_fraction": (float, 0.25),
        "roundtrip_factor": (float, 10.0),
        "shrink_factor": (float, 0.1),
    },
}

EXPERIMENT_KINDS = tuple(KNOB_SCHEMAS)


def _at_least(least: int) -> tuple:
    return f"must be at least {least}", lambda value, grid: value >= least


_IN_EIGENBASIS = ("must lie in [0, {grid.num_points})",
                  lambda value, grid: 0 <= value < grid.num_points)

# (kind, knob) -> (rule, holds(value, grid)), checked in this order by load_config
_KNOB_BOUNDS = {
    ("decay", "num_samples"): _at_least(_MIN_FIT_SAMPLES),
    ("sobolev_equiv", "num_fields"): _at_least(1),
    ("strichartz", "num_draws"): _at_least(1),
    ("perturbation", "data_gaps"): (
        f"needs {_MIN_FIT_SAMPLES} distinct gaps",
        lambda value, grid: len(set(value)) >= _MIN_FIT_SAMPLES,
    ),
    ("strichartz", "eigenmode_index"): _IN_EIGENBASIS,
    ("localized_mass", "eigenmode_index"): _IN_EIGENBASIS,
    ("strichartz", "num_samples"): _at_least(MIN_TIME_SAMPLES),
    ("strichartz", "t_end"): ("must be positive", lambda value, grid: value > 0),
    ("strichartz", "forcing_modes"): _at_least(1),
    ("morawetz", "k_values"): ("must all be positive", lambda value, grid: min(value) > 0),
    ("decay", "lp_exponents"): ("must all exceed 1", lambda value, grid: min(value) > 1),
    ("final_state", "window_fraction"): ("must lie in (0, 1]", lambda value, grid: 0 < value <= 1),
    ("final_state", "shrink_factor"): ("must be positive", lambda value, grid: value > 0),
}

_EXPERIMENT_KEYS = {"kind": str.strip, "seed": int, "output_dir": lambda text: Path(text.strip())}
_GRID_KEYS = {"dimension": int, "r_max": float, "num_points": int}
_POTENTIAL_KEYS = {
    "family": str.strip,
    "c": float,
    "beta": float,
    "a": float,
    "delta_n": float,
}
_SIMULATION_KEYS = {
    "lambda": float,
    "p": str.strip,  # number or the literal 'critical'
    "dt": float,
    "t_end": float,
    "monitor_stride": int,
    "snapshot_stride": int,
    "picard_tol": float,
    "picard_max_iter": int,
    "boundary_threshold": float,
    "blowup_factor": float,
}


@dataclass
class GridParams:
    dimension: int = 5
    r_max: float = 20.0
    num_points: int = 256


@dataclass
class ExperimentConfig:
    experiment: str
    grid: GridParams
    potential: PotentialSpec
    sim: SimulationConfig
    seed: int = 0
    output_dir: Path = Path("nls4-out")
    delta_n: float = DEFAULT_DELTA_N
    knobs: dict = field(default_factory=dict)

    def canonical_items(self) -> list[tuple[str, str]]:
        """Deterministic, fully resolved (key, value) echo for reports."""
        items = [("experiment.kind", self.experiment), ("experiment.seed", repr(self.seed))]
        items += [(f"grid.{f.name}", repr(getattr(self.grid, f.name))) for f in fields(GridParams)]
        items += [
            ("potential.family", self.potential.family),
            ("potential.c", repr(self.potential.c)),
            ("potential.beta", repr(self.potential.beta)),
            ("potential.a", repr(self.potential.a)),
            ("potential.delta_n", repr(self.delta_n)),
        ]
        for f in fields(SimulationConfig):
            key = "lambda" if f.name == "lam" else f.name
            items.append((f"simulation.{key}", repr(getattr(self.sim, f.name))))
            if f.name == "p":
                critical = abs(self.sim.p - critical_exponent(self.grid.dimension)) < 1e-12
                items.append(("simulation.critical", repr(critical)))
        for key in sorted(self.knobs):
            items.append((f"{self.experiment}.{key}", repr(self.knobs[key])))
        return items


def _section_dict(parser: configparser.ConfigParser, name: str) -> dict[str, str]:
    return dict(parser[name]) if parser.has_section(name) else {}


def _typed_section(raw: dict[str, str], schema: dict, section: str) -> dict:
    out = {}
    for key, text in raw.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"unknown key {key!r} in [{section}] (known: {known})")
        parse = schema[key][0] if isinstance(schema[key], tuple) else schema[key]
        try:
            out[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate; returns a config with every default resolved."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    if not parser.has_section("experiment"):
        raise ConfigError("missing required section [experiment]")
    exp_raw = _typed_section(_section_dict(parser, "experiment"), _EXPERIMENT_KEYS, "experiment")
    if "kind" not in exp_raw:
        raise ConfigError("missing experiment.kind")
    kind = exp_raw.pop("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")

    known_sections = {"experiment", "grid", "potential", "simulation", kind}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(
                f"unknown section [{section}] (known: {sorted(known_sections)})"
            )

    grid_raw = _typed_section(_section_dict(parser, "grid"), _GRID_KEYS, "grid")
    grid = GridParams(**grid_raw)
    try:
        _check_grid(grid.dimension, grid.r_max, grid.num_points)
    except GridError as exc:
        raise ConfigError(str(exc)) from exc

    pot_raw = _typed_section(_section_dict(parser, "potential"), _POTENTIAL_KEYS, "potential")
    if "delta_n" in pot_raw:  # an ExperimentConfig field set in [potential]
        exp_raw["delta_n"] = pot_raw.pop("delta_n")
    try:
        potential = PotentialSpec(
            family=pot_raw.pop("family", "zero"), dimension=grid.dimension, **pot_raw
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [potential]: {exc}") from exc

    sim_raw = _typed_section(_section_dict(parser, "simulation"), _SIMULATION_KEYS, "simulation")
    if "lambda" in sim_raw:
        sim_raw["lam"] = sim_raw.pop("lambda")
    p_text = sim_raw.pop("p", "critical")
    try:
        if p_text.lower() == "critical":
            p_value = critical_exponent(grid.dimension)
        else:
            p_value = float(p_text)
        sim = SimulationConfig(p=p_value, **sim_raw)
    except ValueError as exc:
        raise ConfigError(f"invalid [simulation]: {exc}") from exc

    schema = KNOB_SCHEMAS[kind]
    knobs = {key: default for key, (_, default) in schema.items()}
    knobs.update(_typed_section(_section_dict(parser, kind), schema, kind))
    for (section, key), (rule, holds) in _KNOB_BOUNDS.items():
        if section == kind and not holds(knobs[key], grid):
            raise ConfigError(f"{kind}.{key} {rule.format(grid=grid)}, got {knobs[key]}")
    if kind == "strichartz":  # the one bound outside the table: its message names the pair
        for q, r in knobs["pairs"]:
            try:
                require_b_admissible(q, r, grid.dimension, r_below_half_n=True)
            except AdmissibilityError as exc:
                raise ConfigError(f"invalid strichartz pair: {exc}") from exc

    return ExperimentConfig(
        experiment=kind, grid=grid, potential=potential, sim=sim, knobs=knobs, **exp_raw
    )
