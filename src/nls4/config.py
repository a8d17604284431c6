"""Experiment configuration: flat INI-style key-value text with typed validation.

Grammar (configparser syntax):

    [experiment]            required: kind; optional: seed, output_dir
    [grid]                  the fields of GridParams
    [potential]             the fields of PotentialSpec but dimension ([grid]'s)
    [simulation]            the fields of SimulationConfig, lam as key lambda
    [<experiment kind>]     experiment-specific knobs (see KNOB_SCHEMAS)

Unknown sections or keys are rejected by name (typo safety).  The parsers
and the [config] echo in reports walk the fields of those three dataclasses,
a field's annotation naming its parser, so a new field is a key with no
further edit.  A key left out takes its field's default; only
potential.family (zero) and simulation.p (critical) are defaulted here.  The
literal ``critical`` for ``p`` resolves to the energy-critical power
2n/(n-4) - 1 for the configured dimension.  Each knob's bound sits in its
KNOB_SCHEMAS row; the bounds on analysis inputs are analysis's own rules.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import analysis
from .analysis import _MIN_FIT_SAMPLES, MIN_TIME_SAMPLES
from .potentials import PotentialSpec
from .radial import GridError, _check_grid
from .solver import SimulationConfig, _is_critical, critical_exponent


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


# a knob's bound: (rule, holds(value, grid, knobs)); the message is
# "kind.knob {rule}, got {value}", rule formatted with grid and knobs.  _each
# bounds every entry of a list knob by holds(entry, n), n the dimension
def _at_least(least: int) -> tuple:
    return f"must be at least {least}", lambda value, grid, knobs: value >= least


def _each(rule: str, holds) -> tuple:
    return rule, lambda values, grid, knobs: all(holds(v, grid.dimension) for v in values)


def _admissible(pair, n: int) -> bool:
    try:
        analysis.require_b_admissible(*pair, n, r_below_half_n=True)
    except analysis.AdmissibilityError:
        return False
    return True


_POSITIVE = ("must be positive", lambda value, grid, knobs: value > 0)
_IN_EIGENBASIS = ("must lie in [0, {grid.num_points})",
                  lambda value, grid, knobs: 0 <= value < grid.num_points)

# knob name -> (parser, default) or (parser, default, bound); one schema per
# experiment kind, its bounds checked in row order by load_config
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
        "lp_exponents": (_parse_floats, (10.0, 2.0),
                         _each("must all exceed 1", lambda p, n: p > 1)),
        "xi_cut": (float, 1.6),
        "data_width": (float, 2.0),
        "t_lo": (float, 1.2),
        "t_hi": (float, 12.0, (
            "needs 0 < decay.t_lo = {knobs[t_lo]} < decay.t_hi",
            lambda value, grid, knobs: analysis._window_ok(knobs["t_lo"], value))),
        "num_samples": (int, 24, _at_least(_MIN_FIT_SAMPLES)),
        "slope_tol": (float, 0.15),
        "control_tol": (float, 0.05),
        "residual_cap": (float, 0.1),
        "include_zero_potential": (_parse_bool, True),
    },
    "sobolev_equiv": {
        "num_fields": (int, 50, _at_least(1)),
        "s_values": (_parse_floats, (0.5, 1.0, 1.5, 2.0),
                     _each("must all lie in [0, 2]", lambda s, n: analysis._sobolev_order_ok(s))),
        "p_values": (_parse_floats, (1.5, 2.0, 2.2),
                     _each("must all lie in (1, n/2)", analysis._lebesgue_ok)),
        "ratio_lo": (float, 0.5),
        "ratio_hi": (float, 2.0),
        "exact_tol": (float, 1e-9),
        "include_zero_control": (_parse_bool, True),
    },
    "strichartz": {
        "num_draws": (int, 30, _at_least(1)),
        "pairs": (_parse_pairs, (),  # empty means the three stock pairs for n
                  _each("must each lie on 4/q + n/r = n/2 with q, r >= 2 and r < n/2 "
                        "for n = {grid.dimension}", _admissible)),
        "t_end": (float, 1.0, _POSITIVE),
        "num_samples": (int, 129, _at_least(MIN_TIME_SAMPLES)),
        "spread_cap": (float, 10.0),
        "eigenmode_tol": (float, 1e-6),
        "eigenmode_index": (int, 4, _IN_EIGENBASIS),
        "forcing_modes": (int, 2, _at_least(1)),
    },
    "localized_mass": {
        "radii": (_parse_floats, (2.0, 4.0, 8.0),
                  _each("must all be positive", lambda r, n: analysis._radius_ok(r))),
        "packet_center": (float, 3.0),
        "packet_width": (float, 2.0),
        "packet_carrier": (float, 1.0),
        "xi_cut": (float, 2.0),
        "amplitude": (float, 1.0),
        "ratio_band": (float, 3.0),
        "zero_tol": (float, 1e-8),
        "eigenmode_index": (int, 2, _IN_EIGENBASIS),
    },
    "morawetz": {
        "k_values": (_parse_floats, (1.0, 2.0, 4.0),
                     _each("must all be positive", lambda k, n: k > 0)),
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
        "data_gaps": (_parse_floats, (1e-3, 1e-4, 1e-5), (
            f"needs {_MIN_FIT_SAMPLES} distinct gaps",
            lambda value, grid, knobs: len(set(value)) >= _MIN_FIT_SAMPLES)),
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
        "window_fraction": (float, 0.25, ("must lie in (0, 1]",
                                          lambda value, grid, knobs: 0 < value <= 1)),
        "roundtrip_factor": (float, 10.0),
        "shrink_factor": (float, 0.1, _POSITIVE),
    },
}

EXPERIMENT_KINDS = tuple(KNOB_SCHEMAS)

_EXPERIMENT_KEYS = {"kind": str.strip, "seed": int, "output_dir": lambda text: Path(text.strip())}
# a field's annotation (a string: annotations are postponed) -> its key's parser
_PARSERS = {"int": int, "float": float, "float | None": float, "str": str.strip}
_RENAMED = {"lam": "lambda"}  # field -> key, where they differ


@dataclass
class GridParams:
    dimension: int = 5
    r_max: float = 20.0
    num_points: int = 256


def _field_keys(cls) -> dict[str, tuple]:
    """key -> (parser, field name) for each field of a section's dataclass, in field order."""
    return {_RENAMED.get(f.name, f.name): (_PARSERS[f.type], f.name)
            for f in fields(cls) if (cls, f.name) != (PotentialSpec, "dimension")}


_SECTION_KEYS = {section: _field_keys(cls) for section, cls in (
    ("grid", GridParams), ("potential", PotentialSpec), ("simulation", SimulationConfig))}


@dataclass
class ExperimentConfig:
    experiment: str
    grid: GridParams
    potential: PotentialSpec
    sim: SimulationConfig
    seed: int = 0
    output_dir: Path = Path("nls4-out")
    knobs: dict = field(default_factory=dict)

    def canonical_items(self) -> list[tuple[str, str]]:
        """Deterministic, fully resolved (key, value) echo for reports."""
        items = [("experiment.kind", self.experiment), ("experiment.seed", repr(self.seed))]
        for section, spec in zip(_SECTION_KEYS, (self.grid, self.potential, self.sim)):
            for key, (_, name) in _SECTION_KEYS[section].items():
                value = getattr(spec, name)
                items.append((f"{section}.{key}", value if isinstance(value, str) else repr(value)))
                if name == "p":
                    critical = _is_critical(value, self.grid.dimension)
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


def _typed_fields(parser: configparser.ConfigParser, section: str) -> dict:
    """[section]'s keys, typed and renamed to the fields of its dataclass."""
    typed = _typed_section(_section_dict(parser, section), _SECTION_KEYS[section], section)
    return {_SECTION_KEYS[section][key][1]: value for key, value in typed.items()}


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

    known_sections = {"experiment", *_SECTION_KEYS, kind}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(
                f"unknown section [{section}] (known: {sorted(known_sections)})"
            )

    grid = GridParams(**_typed_fields(parser, "grid"))
    try:
        _check_grid(grid.dimension, grid.r_max, grid.num_points)
    except GridError as exc:
        raise ConfigError(str(exc)) from exc

    pot_fields = _typed_fields(parser, "potential")
    try:
        potential = PotentialSpec(**{"family": "zero", **pot_fields}, dimension=grid.dimension)
    except ValueError as exc:
        raise ConfigError(f"invalid [potential]: {exc}") from exc

    if parser.get("simulation", "p", fallback="critical").lower() == "critical":  # repr round-trips
        parser.read_dict({"simulation": {"p": repr(critical_exponent(grid.dimension))}})
    sim_fields = _typed_fields(parser, "simulation")
    try:
        sim = SimulationConfig(**sim_fields)
    except ValueError as exc:
        raise ConfigError(f"invalid [simulation]: {exc}") from exc

    schema = KNOB_SCHEMAS[kind]
    knobs = {key: row[1] for key, row in schema.items()}
    knobs.update(_typed_section(_section_dict(parser, kind), schema, kind))
    for key, (_, _, *bound) in schema.items():
        for rule, holds in bound:
            if not holds(knobs[key], grid, knobs):
                rule = rule.format(grid=grid, knobs=knobs)
                raise ConfigError(f"{kind}.{key} {rule}, got {knobs[key]}")

    return ExperimentConfig(
        experiment=kind, grid=grid, potential=potential, sim=sim, knobs=knobs, **exp_raw
    )
