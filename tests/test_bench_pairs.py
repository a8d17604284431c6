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
