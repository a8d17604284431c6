"""Configuration parsing, validation, and typo safety."""

from pathlib import Path

import pytest

from nls4.config import (
    _SECTION_KEYS,
    EXPERIMENT_KINDS,
    KNOB_SCHEMAS,
    ConfigError,
    _parse_floats,
    load_config,
)
from nls4.solver import critical_exponent

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

MINIMAL = """
[experiment]
kind = conservation
[grid]
dimension = 5
"""


# (kind, knob) -> (least value that loads, one step past it) for each edge of
# the bound in its KNOB_SCHEMAS row, on a grid of n = 5 and 64 points, the
# other knobs at their defaults; in schema order
BOUND_EDGES = {
    ("decay", "lp_exponents"): [("10, 1.0000000000000002", "10, 1")],
    ("decay", "t_hi"): [("1.2000000000000002", "1.2")],  # t_lo = 1.2
    ("decay", "num_samples"): [("2", "1")],
    ("sobolev_equiv", "num_fields"): [("1", "0")],
    ("sobolev_equiv", "s_values"): [("1, 0", "1, -5e-324"), ("2, 1", "2.0000000000000004, 1")],
    ("sobolev_equiv", "p_values"): [("1.0000000000000002, 2", "1, 2"),
                                    ("2, 2.4999999999999996", "2, 2.5")],
    ("strichartz", "num_draws"): [("1", "0")],
    # r = 90/37 < n/2 at q = 9; q = 8 gives r = n/2
    ("strichartz", "pairs"): [("9:90/37", "8:5/2")],
    ("strichartz", "t_end"): [("5e-324", "0.0")],
    ("strichartz", "num_samples"): [("4", "3")],
    ("strichartz", "eigenmode_index"): [("0", "-1"), ("63", "64")],
    ("strichartz", "forcing_modes"): [("1", "0")],
    ("localized_mass", "radii"): [("5e-324, 4", "0, 4")],
    ("localized_mass", "eigenmode_index"): [("0", "-1"), ("63", "64")],
    ("morawetz", "k_values"): [("1, 5e-324", "1, 0")],
    ("perturbation", "data_gaps"): [("1e-3, 1e-4", "1e-3, 1e-3")],
    ("final_state", "window_fraction"): [("5e-324", "0"), ("1", "1.0000000000000002")],
    ("final_state", "shrink_factor"): [("5e-324", "0")],
}
BOUNDED = [(kind, knob) for kind, schema in KNOB_SCHEMAS.items()
           for knob, row in schema.items() if len(row) == 3]


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.experiment == "conservation"
        assert cfg.grid.r_max == 20.0
        assert cfg.sim.dt == 1e-3
        assert (cfg.sim.lam, cfg.sim.t_end, cfg.sim.monitor_stride) == (1.0, 1.0, 10)
        assert cfg.sim.picard_tol == 1e-10
        assert cfg.knobs["mass_tol"] == 1e-8
        # every resolved key appears in the echo
        keys = dict(cfg.canonical_items())
        assert keys["simulation.picard_tol"] == "1e-10"
        assert "conservation.mass_tol" in keys

    def test_unknown_key_named(self, tmp_path):
        bad = MINIMAL + "\n[simulation]\nlamda = 1.0\n"
        with pytest.raises(ConfigError, match="lamda"):
            load_config(write(tmp_path, bad))

    def test_unknown_section_named(self, tmp_path):
        bad = MINIMAL + "\n[misc]\nx = 1\n"
        with pytest.raises(ConfigError, match="misc"):
            load_config(write(tmp_path, bad))

    def test_unknown_experiment_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="warp"):
            load_config(write(tmp_path, "[experiment]\nkind = warp\n"))

    def test_critical_power_resolved_exactly(self, tmp_path):
        text = MINIMAL + "\n[simulation]\np = critical\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.sim.p == 9.0  # 2*5/(5-4) - 1
        assert ("simulation.critical", "True") in cfg.canonical_items()

    def test_numeric_critical_power_detected(self, tmp_path):
        text = MINIMAL + "\n[simulation]\np = 9.0\n"
        cfg = load_config(write(tmp_path, text))
        assert ("simulation.critical", "True") in cfg.canonical_items()

    def test_non_critical_power_echoed(self, tmp_path):
        text = MINIMAL + "\n[simulation]\np = 8.9\n"
        cfg = load_config(write(tmp_path, text))
        assert ("simulation.critical", "False") in cfg.canonical_items()

    def test_non_numeric_power_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="simulation"):
            load_config(write(tmp_path, MINIMAL + "\n[simulation]\np = nine\n"))

    def test_invalid_simulation_rejected_with_rule(self, tmp_path):
        text = MINIMAL + "\n[simulation]\ndt = 5.0\nt_end = 1.0\n"
        with pytest.raises(ConfigError, match="dt"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("dt", ["0.4", "0.3"])
    def test_t_end_off_the_step_grid_rejected(self, tmp_path, dt):
        # the run would stop at 0.8 or 0.9 and still report status ok
        text = MINIMAL + f"\n[simulation]\ndt = {dt}\nt_end = 1.0\n"
        with pytest.raises(ConfigError, match=f"t_end=1.0, dt={dt}"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("picard_max_iter", "0"),
            ("picard_tol", "0.0"),
            ("snapshot_stride", "-1"),
            ("blowup_factor", "0.5"),
            ("boundary_threshold", "0.0"),
        ],
    )
    def test_out_of_range_simulation_key_named(self, tmp_path, key, value):
        text = MINIMAL + f"\n[simulation]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, text))

    def test_potential_validation(self, tmp_path):
        text = MINIMAL + "\n[potential]\nfamily = inverse_bracket\nc = 0.01\n"
        with pytest.raises(ConfigError, match="beta"):
            load_config(write(tmp_path, text))

    def test_non_admissible_strichartz_pair_rejected(self, tmp_path):
        text = """
[experiment]
kind = strichartz
[grid]
dimension = 5
[strichartz]
pairs = 3:3
"""
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("knob, value", [
        ("num_samples", "3"), ("num_samples", "0"), ("t_end", "0.0"), ("t_end", "-1.0"),
    ])
    def test_degenerate_strichartz_sampling_rejected(self, tmp_path, knob, value):
        text = f"""
[experiment]
kind = strichartz
[grid]
dimension = 5
[strichartz]
{knob} = {value}
"""
        with pytest.raises(ConfigError, match=f"strichartz.{knob}"):
            load_config(write(tmp_path, text))

    def test_admissible_pairs_parse(self, tmp_path):
        text = """
[experiment]
kind = strichartz
[grid]
dimension = 5
[strichartz]
pairs = 18:90/41; 12:30/13
"""
        cfg = load_config(write(tmp_path, text))
        assert len(cfg.knobs["pairs"]) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_parse_error_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="parse"):
            load_config(write(tmp_path, "not an ini file at all\n"))

    @pytest.mark.parametrize("grid, p, key", [
        ("dimension = 4", "critical", "grid.dimension"),
        ("dimension = 4", "3.0", "grid.dimension"),
        ("num_points = 8", "critical", "grid.num_points"),
        ("r_max = 0.0", "critical", "grid.r_max"),
        ("r_max = -1.0", "critical", "grid.r_max"),
        ("r_max = nan", "critical", "grid.r_max"),
    ])
    def test_bad_grid_named_before_the_power_resolves(self, tmp_path, grid, p, key):
        # the bounds are make_grid's, checked before p = critical divides by n - 4
        text = f"[experiment]\nkind = conservation\n[grid]\n{grid}\n[simulation]\np = {p}\n"
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("pairs", ["18:90/0", "18/0:90/41", "18:0", "0:90/41; 18:90/41"])
    def test_zero_exponent_pair_named(self, tmp_path, pairs):
        text = f"[experiment]\nkind = strichartz\n[grid]\ndimension = 5\n[strichartz]\npairs = {pairs}\n"
        with pytest.raises(ConfigError, match="strichartz.pairs"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("kind, knob", [
        (kind, knob) for kind, schema in KNOB_SCHEMAS.items()
        for knob, (parse, *_) in schema.items() if parse is _parse_floats
    ])
    @pytest.mark.parametrize("value", ["", " , ;"])
    def test_empty_list_knob_named(self, tmp_path, kind, knob, value):
        # an empty list would leave its checks unattempted
        text = f"[experiment]\nkind = {kind}\n[grid]\ndimension = 5\n[{kind}]\n{knob} = {value}\n"
        with pytest.raises(ConfigError, match=f"{kind}.{knob}"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("kind, knob, value", [
        ("decay", "num_samples", "1"),
        ("decay", "num_samples", "0"),
        ("decay", "t_lo", "0"),  # named in the message of the t_hi row's window bound
        ("perturbation", "data_gaps", "1e-3"),
        ("perturbation", "data_gaps", "1e-3, 1e-3"),
        ("strichartz", "num_draws", "0"),
        ("sobolev_equiv", "num_fields", "0"),
        ("strichartz", "eigenmode_index", "999"),
        ("strichartz", "eigenmode_index", "64"),
        ("strichartz", "eigenmode_index", "-1"),
        ("localized_mass", "eigenmode_index", "64"),
        ("localized_mass", "eigenmode_index", "-1"),
    ])
    def test_degenerate_fit_or_loop_named(self, tmp_path, kind, knob, value):
        # a one-point fit passes vacuously; an empty loop or a missing mode
        # would end in experiment_error after the run had started
        text = (f"[experiment]\nkind = {kind}\n[grid]\ndimension = 5\nnum_points = 64\n"
                f"[{kind}]\n{knob} = {value}\n")
        with pytest.raises(ConfigError, match=f"{kind}.{knob}"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("kind, knob, value", [
        ("decay", "num_samples", "2"),
        ("decay", "t_lo", "5e-324"),
        ("perturbation", "data_gaps", "1e-3, 1e-4"),
        ("strichartz", "num_draws", "1"),
        ("sobolev_equiv", "num_fields", "1"),
        ("strichartz", "eigenmode_index", "63"),
        ("localized_mass", "eigenmode_index", "0"),
    ])
    def test_least_fit_or_loop_loads(self, tmp_path, kind, knob, value):
        text = (f"[experiment]\nkind = {kind}\n[grid]\ndimension = 5\nnum_points = 64\n"
                f"[{kind}]\n{knob} = {value}\n")
        parse = KNOB_SCHEMAS[kind][knob][0]
        assert load_config(write(tmp_path, text)).knobs[knob] == parse(value)


def test_every_bound_has_its_edges():
    assert list(BOUND_EDGES) == BOUNDED


@pytest.mark.parametrize("kind, knob, least, past", [
    (kind, knob, least, past) for kind, knob in BOUNDED
    for least, past in BOUND_EDGES.get((kind, knob), [])
])
def test_bound_edge_loads_and_one_step_past_fails(tmp_path, kind, knob, least, past):
    def text(value):
        return (f"[experiment]\nkind = {kind}\n[grid]\ndimension = 5\nnum_points = 64\n"
                f"[{kind}]\n{knob} = {value}\n")

    parse = KNOB_SCHEMAS[kind][knob][0]
    assert load_config(write(tmp_path, text(least))).knobs[knob] == parse(least)
    with pytest.raises(ConfigError, match=rf"^{kind}\.{knob} "):
        load_config(write(tmp_path, text(past)))


def hand_listed_items(cfg):
    """The reference [config] echo: every field named by hand, in report order."""
    items = [
        ("experiment.kind", cfg.experiment),
        ("experiment.seed", repr(cfg.seed)),
        ("grid.dimension", repr(cfg.grid.dimension)),
        ("grid.r_max", repr(cfg.grid.r_max)),
        ("grid.num_points", repr(cfg.grid.num_points)),
        ("potential.family", cfg.potential.family),
        ("potential.c", repr(cfg.potential.c)),
        ("potential.beta", repr(cfg.potential.beta)),
        ("potential.a", repr(cfg.potential.a)),
        ("potential.delta_n", repr(cfg.potential.delta_n)),
        ("simulation.lambda", repr(cfg.sim.lam)),
        ("simulation.p", repr(cfg.sim.p)),
        ("simulation.critical",
         repr(abs(cfg.sim.p - critical_exponent(cfg.grid.dimension)) < 1e-12)),
        ("simulation.dt", repr(cfg.sim.dt)),
        ("simulation.t_end", repr(cfg.sim.t_end)),
        ("simulation.monitor_stride", repr(cfg.sim.monitor_stride)),
        ("simulation.snapshot_stride", repr(cfg.sim.snapshot_stride)),
        ("simulation.picard_tol", repr(cfg.sim.picard_tol)),
        ("simulation.picard_max_iter", repr(cfg.sim.picard_max_iter)),
        ("simulation.boundary_threshold", repr(cfg.sim.boundary_threshold)),
        ("simulation.blowup_factor", repr(cfg.sim.blowup_factor)),
    ]
    for key in sorted(cfg.knobs):
        items.append((f"{cfg.experiment}.{key}", repr(cfg.knobs[key])))
    return items


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_derived_echo_is_the_hand_listed_one(kind):
    cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
    assert cfg.canonical_items() == hand_listed_items(cfg)


@pytest.mark.parametrize("extra", ["", "seed = 1234\n"])
def test_derived_echo_of_the_minimal_config(tmp_path, extra):
    cfg = load_config(write(tmp_path, MINIMAL.replace("[grid]", extra + "[grid]")))
    assert cfg.seed == (1234 if extra else 0)
    assert (cfg.output_dir, cfg.potential.beta, cfg.potential.delta_n) == (
        Path("nls4-out"), None, 0.05)
    assert cfg.canonical_items() == hand_listed_items(cfg)


# the hand-written key maps the sections had before their keys were derived
# from the dataclass fields: the reference for the derived maps
REFERENCE_KEYS = {
    "grid": {"dimension": int, "r_max": float, "num_points": int},
    "potential": {"family": str.strip, "c": float, "beta": float, "a": float, "delta_n": float},
    "simulation": {
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
    },
}


def test_every_echoed_field_is_settable():
    # the parsers and the echo walk the same derived keys, in the reference's
    # order, with its parsers; p's literal 'critical' is resolved before p parses
    for section, reference in REFERENCE_KEYS.items():
        derived = {key: parse for key, (parse, _) in _SECTION_KEYS[section].items()}
        assert list(derived) == list(reference)
        assert {k: v for k, v in derived.items() if k != "p"} == {
            k: v for k, v in reference.items() if k != "p"}
