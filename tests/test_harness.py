"""Report writing, determinism, atomicity, series emission, and the CLI."""

import codecs
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from nls4 import spectral
from nls4.cli import main as cli_main
from nls4.config import load_config
from nls4.experiments import EXPERIMENTS, run_experiment
from nls4.reporting import (
    ExperimentReport,
    ReportError,
    atomic_write_text,
    check_leq,
    emit_plot_data,
    read_report,
    report_body_from_file,
    skipped,
    write_report,
)

from conftest import load_run_all

FAST_CONFIG = """
[experiment]
kind = sobolev_equiv
seed = 3

[grid]
dimension = 5
r_max = 16.0
num_points = 64

[potential]
family = inverse_bracket
c = 0.01
beta = 10.0

[sobolev_equiv]
num_fields = 5
include_zero_control = false
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    cfg = load_config(path)
    cfg.output_dir = tmp_path / "out"
    return cfg, path


class TestChecks:
    def test_check_carries_measured_and_threshold(self):
        c = check_leq("thing", 2.0, 1.0)
        assert c.verdict == "fail"
        assert "measured=2.0" in c.line()
        assert "threshold=1.0" in c.line()


class TestReports:
    def test_deterministic_body(self, fast_cfg):
        cfg, _ = fast_cfg
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.body_text() == b.body_text()

    def test_different_seed_changes_body(self, fast_cfg):
        cfg, _ = fast_cfg
        a = run_experiment(cfg)
        cfg.seed = 4
        b = run_experiment(cfg)
        assert a.body_text() != b.body_text()

    def test_provenance_segregated(self, fast_cfg, tmp_path):
        cfg, _ = fast_cfg
        report = run_experiment(cfg)
        path = tmp_path / "report.txt"
        write_report(report, path)
        body = report_body_from_file(path)
        assert "timestamp" not in body
        assert "runtime" not in body
        sections, provenance = read_report(path)
        assert "timestamp" in provenance
        assert "body_sha256" in provenance

    def test_blas_pools_in_provenance_not_body(self, fast_cfg):
        cfg, _ = fast_cfg
        report = run_experiment(cfg)
        path = cfg.output_dir / f"report-{cfg.experiment}.txt"
        _, provenance = read_report(path)
        assert provenance["blas_pools"] == spectral._blas_pools_note()
        assert "numpy" in provenance["blas_pools"] and "scipy" in provenance["blas_pools"]
        if spectral._blas_pools().get("numpy") is not None:
            policy = "in Strang stretches and Picard sweeps and at 1 elsewhere"
            assert policy in provenance["blas_pools"]
        assert "blas" not in report.body_text().lower()
        assert "blas" not in report_body_from_file(path).lower()

    def test_worst_verdict(self):
        rep = ExperimentReport("x", [], [check_leq("a", 0.0, 1.0), check_leq("b", 2.0, 1.0)])
        assert rep.worst_verdict == "fail"

    def test_worst_verdict_fails_when_no_check_was_attempted(self):
        assert ExperimentReport("x", [], []).worst_verdict == "fail"
        assert ExperimentReport("x", [], [skipped("a", "none")] * 2).worst_verdict == "fail"
        rep = ExperimentReport("x", [], [skipped("a", "none"), check_leq("b", 0.0, 1.0)])
        assert rep.worst_verdict == "pass"

    def test_atomic_write_leaves_no_partials(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_module_error_captured_as_failed_check(self, fast_cfg):
        cfg, _ = fast_cfg
        cfg.knobs["s_values"] = (3.7,)  # outside [0, 2]: module raises
        report = run_experiment(cfg)
        assert report.worst_verdict == "fail"
        assert report.checks[0].name == "experiment_error"

    def test_error_traceback_kept_in_provenance(self, fast_cfg, monkeypatch):
        cfg, _ = fast_cfg

        def raising_driver(ctx):
            raise RuntimeError("driver failed at 'C:\\tmp'")

        monkeypatch.setitem(EXPERIMENTS, cfg.experiment, raising_driver)
        report = run_experiment(cfg)
        path = cfg.output_dir / f"report-{cfg.experiment}.txt"
        body = report_body_from_file(path)
        _, provenance = read_report(path)
        trace = codecs.decode(provenance["experiment_traceback"], "unicode_escape")
        assert trace.startswith("Traceback (most recent call last):")
        assert "in raising_driver" in trace
        assert trace.endswith("RuntimeError: driver failed at 'C:\\tmp'")
        assert "Traceback" not in body
        assert provenance["body_sha256"] == hashlib.sha256(report.body_text().encode()).hexdigest()

    def test_multiline_error_stays_one_check(self, fast_cfg, monkeypatch):
        cfg, _ = fast_cfg

        def raising_driver(ctx):
            raise ValueError("first line\nsecond = line")

        monkeypatch.setitem(EXPERIMENTS, cfg.experiment, raising_driver)
        run_experiment(cfg)
        body, _ = read_report(cfg.output_dir / f"report-{cfg.experiment}.txt")
        assert list(body["checks"]) == ["experiment_error"]
        note = body["checks"]["experiment_error"].partition("note=")[2]
        assert codecs.decode(note, "unicode_escape") == "ValueError: first line\nsecond = line"


class TestEmit:
    def test_emit_series_and_unknown_name(self, fast_cfg, tmp_path):
        cfg, _ = fast_cfg
        report = run_experiment(cfg)
        report_path = cfg.output_dir / "report.txt"
        write_report(report, report_path)
        out = emit_plot_data(report_path, "ratios", tmp_path / "copy.csv")
        assert out.exists()
        assert out.read_text().startswith("ratio")
        with pytest.raises(ReportError, match="available"):
            emit_plot_data(report_path, "massse")


class TestCli:
    def test_run_and_emit(self, fast_cfg, tmp_path, capsys):
        _, cfg_path = fast_cfg
        out_dir = tmp_path / "cli-out"
        code = cli_main(["run", str(cfg_path), "--output-dir", str(out_dir), "--seed", "5"])
        assert code == 0
        report_path = out_dir / "report-sobolev_equiv.txt"
        assert report_path.exists()
        code = cli_main(["emit", str(report_path), "ratios"])
        assert code == 0
        code = cli_main(["emit", str(report_path), "nonsense"])
        assert code == 2

    def test_check_potential(self, fast_cfg, capsys):
        _, cfg_path = fast_cfg
        assert cli_main(["check-potential", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "weak_norm_ok = True" in out
        assert "fourier_condition = unchecked" in out

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nkind = conservation\n[simulation]\nlamda = 1\n")
        assert cli_main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("grid", ["dimension = 4", "num_points = 8"])
    @pytest.mark.parametrize("command", ["run", "check-potential"])
    def test_bad_grid_exits_two_naming_the_key(self, tmp_path, capsys, command, grid):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[experiment]\nkind = conservation\noutput_dir = {tmp_path / 'out'}\n"
                       f"[grid]\n{grid}\n[simulation]\np = 3.0\n")
        assert cli_main([command, str(bad)]) == 2
        assert f"grid.{grid.split()[0]}" in capsys.readouterr().err

    def test_one_point_decay_fit_exits_two_naming_the_key(self, tmp_path, capsys):
        # one sample time would pass its slope checks from a one-point fit
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nkind = decay\n[grid]\nr_max = 16.0\nnum_points = 64\n"
                       "[decay]\nnum_samples = 1\nlp_exponents = 2\n")
        assert cli_main(["run", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert "decay.num_samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, line", [
        ("sobolev_equiv", "s_values = 0.5, 3"),
        ("sobolev_equiv", "p_values = 1.5, 3"),
        ("localized_mass", "radii = 0, 4"),
        ("decay", "t_hi = 1.0"),  # t_lo = 1.2
    ])
    def test_analysis_input_rule_exits_two_before_any_operator(self, tmp_path, capsys,
                                                               monkeypatch, kind, line):
        # the rules analysis checks on these inputs are checked at load as well,
        # so a canonical config with one bad knob line builds no operator
        def no_build(*args, **kwargs):
            raise AssertionError("an operator was built")

        monkeypatch.setattr(spectral, "build_operator", no_build)
        canonical = Path(__file__).resolve().parents[1] / "scripts" / "configs" / f"{kind}.cfg"
        bad = tmp_path / "bad.cfg"
        bad.write_text(canonical.read_text() + f"\n[{kind}]\n{line}\n")
        assert cli_main(["run", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"error: {kind}.{line.split()[0]} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_with_no_check_attempted_exits_one(self, tmp_path):
        # decay on a zero potential without its zero-potential control: every check skipped
        cfg = tmp_path / "decay.cfg"
        cfg.write_text("[experiment]\nkind = decay\n[grid]\nr_max = 16.0\nnum_points = 64\n"
                       "[decay]\ninclude_zero_potential = false\n")
        assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1

    def test_monitor_csv_format(self, tmp_path, op_full):
        from nls4.reporting import write_monitor_csv
        from nls4.solver import SimulationConfig, run_trajectory
        from nls4.states import soft_lowpass
        from nls4.radial import RadialField

        grid = op_full.grid
        u0 = soft_lowpass(
            op_full,
            RadialField(grid, 0.5 * np.exp(-((grid.nodes / 3.0) ** 2)).astype(complex)),
            1.4,
        )
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-2, t_end=0.1, monitor_stride=2,
                               boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        path = tmp_path / "monitors.csv"
        write_monitor_csv(path, rec)
        header = path.read_text().splitlines()[0]
        assert header == "t,mass,energy,h2dot,boundary_mass"


class TestRunAll:
    def test_refuses_a_used_output_directory(self, tmp_path, monkeypatch, capsys):
        # a file a change stopped writing would still enter the digest column
        run_all = load_run_all()
        stale = tmp_path / "out" / "decay"
        stale.mkdir(parents=True)
        (stale / "decay_fits.csv").write_text("t\n")
        monkeypatch.setattr(run_all, "run_experiment", lambda cfg: pytest.fail("a config ran"))
        monkeypatch.setattr(sys, "argv", ["run_all.py", str(tmp_path / "out")])
        assert run_all.main() == 2
        assert str(stale) in capsys.readouterr().err

    def test_refuses_an_unknown_only_kind_before_any_config(self, tmp_path, monkeypatch,
                                                            capsys):
        # conservation comes first and would run before sobolev.cfg failed to load
        run_all = load_run_all()
        monkeypatch.setattr(run_all, "load_config", lambda path: pytest.fail("a config loaded"))
        monkeypatch.setattr(run_all, "run_experiment", lambda cfg: pytest.fail("a config ran"))
        monkeypatch.setattr(sys, "argv", ["run_all.py", str(tmp_path / "out"), "--only",
                                          "conservation,sobolev,strichartz,morawetz2"])
        assert run_all.main() == 2
        err = capsys.readouterr().err
        assert "--only sobolev, morawetz2 " in err
        assert "(known: " + ", ".join(run_all.ORDER) + ")" in err
        assert not (tmp_path / "out").exists()
