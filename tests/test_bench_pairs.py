"""scripts/bench_pairs.py: the paired summary and the perfbench command line."""

import datetime
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


class TestSummarize:
    def test_inclusive_quartiles_and_medians(self):
        # inclusive quartiles of 1..10 are 3.25 and 7.75; exclusive ones
        # would be 2.75 and 8.25
        parent = [float(v) for v in (7, 2, 9, 4, 1, 10, 3, 6, 8, 5)]
        change = [v - 0.5 for v in parent]
        s = bench_pairs.summarize(parent, change, "lower")
        assert s["parent_iqr"] == pytest.approx(4.5)
        assert s["parent_median"] == 5.5 and s["change_median"] == 5.0
        assert s["parent"] == parent and s["change"] == change
        assert s["pairs_won"] == 10 and s["pairs"] == 10

    @pytest.mark.parametrize("better, won", [("lower", 1), ("higher", 2)])
    def test_ties_win_nothing_and_higher_flips_the_sign(self, better, won):
        # pair 1 is lower, pairs 2 and 4 higher, pair 3 a tie
        s = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [0.0, 3.0, 3.0, 5.0], better)
        assert s["better"] == better
        assert s["pairs_won"] == won


class TestSeed:
    def test_seed_joins_the_command_line(self):
        plain = bench_pairs.perf_args("modal_small", 25.0, None)
        assert plain == ["perfbench/run.py", "--workload", "modal_small", "--seconds", "25",
                         "--trace", "0"]
        assert bench_pairs.perf_args("modal_small", 25.0, 5) == [*plain, "--seed", "5"]

    def test_every_run_gets_the_seed(self, monkeypatch, tmp_path):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            out = json.dumps({"correct": True, "metrics": {}})
            return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        bench_pairs.run_bench(tmp_path, "eig_large", 2.5, 7)
        bench_pairs.run_bench(tmp_path, "eig_large", 2.5)
        assert calls[0][1:] == bench_pairs.perf_args("eig_large", 2.5, 7)
        assert calls[1][1:] == bench_pairs.perf_args("eig_large", 2.5, None)
        assert "--seed" not in calls[1]


class TestExistingRecord:
    @pytest.mark.parametrize("explicit", [True, False])
    def test_existing_file_stops_before_any_run(self, monkeypatch, tmp_path, explicit):
        # a record already on disk is never overwritten: the script stops
        # before it resolves a commit, exports a tree or runs a pair
        monkeypatch.chdir(tmp_path)
        if explicit:
            existing = [tmp_path / "BENCH_kept.json"]
            argv = ["HEAD~1", "HEAD", "--out", str(existing[0])]
        else:
            # today's default name, and tomorrow's in case the date turns during the test
            today = datetime.datetime.now(datetime.timezone.utc).date()
            existing = [tmp_path / f"BENCH_{day.isoformat()}.json"
                        for day in (today, today + datetime.timedelta(days=1))]
            argv = ["HEAD~1", "HEAD"]
        for path in existing:
            path.write_text("{}\n")
        calls = []

        def helper(name):
            def called(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called although the record exists")
            return called

        monkeypatch.setattr(bench_pairs.subprocess, "run", helper("subprocess.run"))
        monkeypatch.setattr(bench_pairs, "export", helper("export"))
        monkeypatch.setattr(bench_pairs, "run_bench", helper("run_bench"))
        with pytest.raises(SystemExit, match="BENCH_") as stop:
            bench_pairs.main(argv)
        assert calls == []
        assert "exists" in str(stop.value)
        assert all(path.read_text() == "{}\n" for path in existing)


def summarized(parent, change, better="lower"):
    return bench_pairs.summarize([float(v) for v in parent], [float(v) for v in change], better)


# ten parent runs 90.0 .. 90.9 MB: median 90.45, inclusive IQR 0.45
PARENT_PEAKS = [90.0 + 0.1 * i for i in range(10)]
BOUNDS = {"wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.05}


class TestClaimVerdict:
    def claim(self, change, others=None):
        workloads = {"modal_small": {"peak_rss_mb": summarized(PARENT_PEAKS, change)}}
        workloads.update(others or {})
        return bench_pairs.verdict(workloads, BOUNDS, ("modal_small", "peak_rss_mb"))

    def test_nine_of_ten_wins_past_the_iqr_meet_the_claim(self):
        change = [p - 1.3 for p in PARENT_PEAKS[:9]] + [PARENT_PEAKS[9] + 0.1]
        c = self.claim(change)
        assert (c["pairs_won"], c["pairs"], c["wins_needed"]) == (9, 10, 9)
        assert c["median_gain"] > c["parent_iqr"] == pytest.approx(0.45)
        assert c["claim_met"] and c["regressions"] == []

    def test_eight_of_ten_wins_do_not(self):
        change = [p - 1.3 for p in PARENT_PEAKS[:8]] + [p + 0.1 for p in PARENT_PEAKS[8:]]
        c = self.claim(change)
        assert c["pairs_won"] == 8
        assert c["median_gain"] > c["parent_iqr"]
        assert not c["claim_met"]

    def test_a_gap_inside_the_iqr_does_not(self):
        c = self.claim([p - 0.2 for p in PARENT_PEAKS])
        assert c["pairs_won"] == 10
        assert c["median_gain"] == pytest.approx(0.2)
        assert not c["claim_met"]

    def test_ties_and_four_pairs(self):
        # a tie wins nothing, and four pairs need all four
        c = bench_pairs.verdict(
            {"w": {"wall_s": summarized([1, 2, 3, 4], [0, 1, 2, 4])}}, BOUNDS, ("w", "wall_s"))
        assert (c["pairs_won"], c["wins_needed"]) == (3, 4)
        assert not c["claim_met"]

    def test_regressions_beyond_the_bound_are_listed(self):
        # wall_s +30% and a 6% higher peak exceed their bounds of 25% and 5%;
        # cpu_s +20% does not, nor does the claimed metric itself
        others = {
            "strang_small": {
                "wall_s": summarized([1.0] * 10, [1.3] * 10),
                "cpu_s": summarized([2.0] * 10, [2.4] * 10),
                "peak_rss_mb": summarized([70.0] * 10, [74.2] * 10),
            },
        }
        c = self.claim([p - 1.3 for p in PARENT_PEAKS], others)
        assert c["claim_met"]
        assert [(r["workload"], r["metric"], r["bound"]) for r in c["regressions"]] == [
            ("strang_small", "wall_s", 0.25), ("strang_small", "peak_rss_mb", 0.05)]

    def test_higher_is_better_flips_both_directions(self):
        better = summarized([1.0] * 10, [0.5] * 10, "higher")
        c = bench_pairs.verdict({"w": {"ratio": summarized([1.0] * 10, [2.0] * 10, "higher"),
                                       "cpu_s": better}},
                                {"ratio": 0.25, "cpu_s": 0.25}, ("w", "ratio"))
        assert c["claim_met"] and c["median_gain"] == 1.0
        assert [r["metric"] for r in c["regressions"]] == ["cpu_s"]


class TestClaimInRecord:
    def fake_main(self, monkeypatch, tmp_path, argv, bench=None, during_run=None):
        """main(argv) on fake trees whose runs give fixed metrics; self.runs lists the runs.

        The trees hold `bench` as their BENCHMARK.json (default: this checkout's)
        and self.seconds the --seconds of every run; during_run() is called in every run.
        """
        bench = (ROOT / "BENCHMARK.json").read_text() if bench is None else json.dumps(bench)
        self.runs, self.seconds = [], set()

        def fake_export(commit, dest):
            dest.mkdir()
            (dest / "BENCHMARK.json").write_text(bench)
            return dest

        def fake_subprocess_run(cmd, **kwargs):
            out = "0" * 40 if cmd[0] == "git" else json.dumps({"nproc": 2})
            return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

        def fake_run_bench(tree, workload, seconds, seed=None):
            self.runs.append((tree.name, workload))
            self.seconds.add(seconds)
            if during_run is not None:
                during_run()
            peak = 91.0 if tree.name == "parent" else 89.5
            metrics = {"wall_s": 0.7, "cpu_s": 1.0, "setup_s": 0.4, "peak_rss_mb": peak}
            if workload == "strang_small" and tree.name == "change":
                metrics["wall_s"] = 1.0
            return {"correct": True, "metrics": {m: {"value": v} for m, v in metrics.items()}}

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
        monkeypatch.setattr(bench_pairs, "export", fake_export)
        monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
        bench_pairs.main(argv + ["--workdir", str(tmp_path)])

    def test_verdict_is_printed_and_stored(self, monkeypatch, tmp_path, capsys):
        plain = tmp_path / "BENCH_plain.json"
        self.fake_main(monkeypatch, tmp_path, ["A", "B", "--pairs", "2",
                                               "--workloads", "modal_small", "--out", str(plain)])
        assert "claim" not in json.loads(plain.read_text())
        assert "claim" not in capsys.readouterr().out
        out = tmp_path / "BENCH_claim.json"
        self.fake_main(monkeypatch, tmp_path, [
            "A", "B", "--pairs", "4", "--workloads", "modal_small,strang_small",
            "--claim", "modal_small:peak_rss_mb", "--out", str(out)])
        assert len(self.runs) == 4 * 2 * 2
        claim = json.loads(out.read_text())["claim"]
        assert (claim["workload"], claim["metric"]) == ("modal_small", "peak_rss_mb")
        assert claim["claim_met"] and claim["pairs_won"] == 4
        assert claim["median_gain"] == pytest.approx(1.5)
        assert [(r["workload"], r["metric"]) for r in claim["regressions"]] == [
            ("strang_small", "wall_s")]
        printed = capsys.readouterr().out
        assert "claim modal_small:peak_rss_mb: met (4/4 won" in printed
        assert "regression strang_small wall_s" in printed

    def test_regressions_are_stored_and_printed_without_a_claim(self, monkeypatch, tmp_path,
                                                                 capsys):
        # the change's strang_small wall_s is 0.7 -> 1.0 s, past its 25% bound;
        # its lower peak is a gain, and the other metrics are equal
        out = tmp_path / "BENCH_plain.json"
        self.fake_main(monkeypatch, tmp_path, [
            "A", "B", "--pairs", "2", "--workloads", "modal_small,strang_small",
            "--out", str(out)])
        record = json.loads(out.read_text())
        assert "claim" not in record
        assert record["regressions"] == [{
            "workload": "strang_small", "metric": "wall_s", "parent_median": 0.7,
            "change_median": 1.0, "bound": 0.25}]
        printed = capsys.readouterr().out
        assert "regression strang_small wall_s: 0.7 -> 1, beyond the bound 0.25" in printed
        out = tmp_path / "BENCH_clean.json"
        self.fake_main(monkeypatch, tmp_path, [
            "A", "B", "--pairs", "2", "--workloads", "modal_small", "--out", str(out)])
        assert json.loads(out.read_text())["regressions"] == []
        assert "no metric is worse than its bound" in capsys.readouterr().out

    @pytest.mark.parametrize("claim, message", [
        ("eig_large:peak_rss_mb", "WORKLOAD:METRIC"), ("modal_small", "WORKLOAD:METRIC"),
        ("modal_small:rss", "not an end-to-end metric")])
    def test_bad_claim_stops_before_any_run(self, monkeypatch, tmp_path, capsys, claim, message):
        out = tmp_path / "BENCH_bad.json"
        with pytest.raises(SystemExit) as stop:
            self.fake_main(monkeypatch, tmp_path, [
                "A", "B", "--workloads", "modal_small", "--claim", claim, "--out", str(out)])
        assert message in str(stop.value) + capsys.readouterr().err
        assert self.runs == []
        assert not out.exists()

    def test_defaults_are_the_change_trees_benchmark_json(self, monkeypatch, tmp_path):
        # a workload the file adds is run without a flag naming it
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        bench["run_seconds"] = 7
        bench["workloads"].append({"name": "scatter_large", "why": "a later workload"})
        out = tmp_path / "BENCH_defaults.json"
        self.fake_main(monkeypatch, tmp_path, ["A", "B", "--pairs", "2", "--out", str(out)],
                       bench)
        declared = [w["name"] for w in bench["workloads"]]
        assert self.runs == [(side, w) for order in (("parent", "change"), ("change", "parent"))
                             for w in declared for side in order]
        assert self.seconds == {7}
        record = json.loads(out.read_text())
        assert list(record["workloads"]) == declared
        assert "--seconds 7 " in record["command"]

    def test_flags_override_the_defaults(self, monkeypatch, tmp_path):
        out = tmp_path / "BENCH_flags.json"
        self.fake_main(monkeypatch, tmp_path, ["A", "B", "--pairs", "2", "--seconds", "3",
                                               "--workloads", "strang_small", "--out", str(out)])
        assert {w for _, w in self.runs} == {"strang_small"} and self.seconds == {3.0}
        assert "--seconds 3 " in json.loads(out.read_text())["command"]

    def test_file_made_during_the_runs_is_not_overwritten(self, monkeypatch, tmp_path):
        out = tmp_path / "BENCH_race.json"

        def make_file():
            if not out.exists():
                out.write_text("{}\n")

        with pytest.raises(SystemExit, match="BENCH_race.json appeared") as stop:
            self.fake_main(monkeypatch, tmp_path, [
                "A", "B", "--pairs", "2", "--workloads", "modal_small", "--out", str(out)],
                during_run=make_file)
        assert stop.value.code != 0
        assert len(self.runs) == 4
        assert out.read_text() == "{}\n"

    def test_undeclared_workload_stops_before_any_run(self, monkeypatch, tmp_path):
        out = tmp_path / "BENCH_undeclared.json"
        with pytest.raises(SystemExit, match="--workloads names scatter_large, not declared"):
            self.fake_main(monkeypatch, tmp_path, [
                "A", "B", "--workloads", "modal_small,scatter_large", "--out", str(out)])
        assert self.runs == []
        assert not out.exists()


class TestMachine:
    def test_probe_reads_the_lookup_of_this_checkout(self):
        # PROBE runs for real: a child process that imports nls4 from the script's own
        # checkout, so a pair of old commits is probed the same way
        from nls4 import spectral

        record = bench_pairs.probe_machine()
        pools = spectral._blas_pools()
        for package in ("numpy", "scipy"):
            pool = pools.get(package)
            expected = f"{pool.file_name}: {pool.config()}" if pool else "not found"
            assert record[f"openblas_{package}"] == expected
        assert list(record) == ["nproc", "openblas_numpy", "openblas_scipy", "python", "numpy",
                                "scipy"]
