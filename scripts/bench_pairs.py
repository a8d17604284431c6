#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench's end-to-end runs, into BENCH_<date>.json.

Usage, from the root of a git checkout:

    python3 scripts/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds S] [--seed N]
        [--workloads W1,W2,...] [--claim WORKLOAD:METRIC] [--out FILE] [--workdir DIR]

PARENT and CHANGE are git revisions.  Each is exported with `git archive`
into a fresh directory of its own, and every pair runs

    python3 perfbench/run.py --workload W --seconds S --trace 0 [--seed N]

once in each copy, for every workload in turn.  The workloads default to
every one the change's BENCHMARK.json declares, and S to its run_seconds;
a workload it does not declare stops the script before the first run.
--seed replaces every
config's seed in every run (default: the canonical seeds), so a claim made
on the canonical seeds can be checked on one not used while writing it; the
file's `command` records it.  The parent goes first in
even pairs and the change in odd ones, so a drift of the host over time
weighs on both sides alike.  The last line a run prints is perfbench's JSON
object; a run that is not `correct` stops the script.  The script never
overwrites a record: if the output file exists, it stops before the first
run, and it creates the file only once the runs are done, exclusively, so a
file that appears during the runs stops it too, untouched.

The file holds both commits, the machine (nproc, the OpenBLAS config string
of numpy's and of scipy's library, and the Python, numpy and scipy
versions) and, per workload and per end-to-end metric of BENCHMARK.json,
every run's value, both medians, the parent's interquartile range
(quartiles as numpy.percentile takes them) and the pairs the change won: a
pair counts where the change's value is better than the parent's in the
direction BENCHMARK.json gives, and a tie wins nothing.

Every (workload, metric) whose change median is worse than the parent's by
more than BENCHMARK.json's `bound`, read as a fraction of the parent's
median, is a regression.  The script always prints them and stores them in
the file under "regressions", an empty list when there are none, so a
change that claims no gain still gets a verdict.

--claim WORKLOAD:METRIC names the gain a change claims.  The script then
prints a verdict and stores it in the file under "claim".  The claim is met
when the change wins at least 9 in 10 of the pairs and its median is better
than the parent's by more than the parent's interquartile range; the
claim's own "regressions" leave the claimed metric out.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the machine record as JSON, from a child process that imports nls4.spectral from argv[1]
PROBE = r"""
import json, os, platform, sys
sys.path.insert(0, sys.argv[1])
import numpy, scipy
from nls4 import spectral
record = {"nproc": len(os.sched_getaffinity(0))}
for package in ("numpy", "scipy"):
    pool = spectral._blas_pools().get(package)
    record[f"openblas_{package}"] = f"{pool.file_name}: {pool.config()}" if pool else "not found"
record.update(python=platform.python_version(), numpy=numpy.__version__, scipy=scipy.__version__)
print(json.dumps(record))
"""


def probe_machine() -> dict:
    """PROBE's record, from a child process at one OpenBLAS thread on this checkout's nls4."""
    src = Path(__file__).resolve().parents[1] / "src"
    return json.loads(subprocess.run(
        [sys.executable, "-c", PROBE, str(src)], check=True, capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    ).stdout)


def export(commit: str, dest: Path) -> Path:
    """The tree of `commit`, written into the fresh directory dest by git archive."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return dest


def perf_args(workload: str, seconds: float, seed: int | None) -> list[str]:
    """The perfbench/run.py command line of one end-to-end run."""
    args = ["perfbench/run.py", "--workload", workload, "--seconds", f"{seconds:g}",
            "--trace", "0"]
    return args if seed is None else [*args, "--seed", str(seed)]


def run_bench(tree: Path, workload: str, seconds: float, seed: int | None = None) -> dict:
    """perfbench's JSON object for one end-to-end run of `workload` in `tree`."""
    cmd = [sys.executable, *perf_args(workload, seconds, seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} on {workload}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench run not correct in {tree} on {workload}:\n{proc.stdout}")
    return result


def _sign(better: str) -> float:
    """1 where BENCHMARK.json's `better` is "lower", -1 where it is "higher"."""
    return 1.0 if better == "lower" else -1.0


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, the parent's interquartile range and the pairs the change won."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    sign = _sign(better)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": q3 - q1,
        "pairs_won": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def regressions(workloads: dict, bounds: dict, skip: tuple[str, str] | None = None) -> list:
    """Every (workload, metric) but `skip` whose change median is worse than the
    parent's by more than its bound.

    workloads maps a workload to its metrics' summarize() tables, and bounds
    maps a metric to BENCHMARK.json's bound, a fraction of the parent's median.
    """
    return [
        {"workload": w, "metric": m, "parent_median": t["parent_median"],
         "change_median": t["change_median"], "bound": bounds[m]}
        for w, table in workloads.items() for m, t in table.items()
        if (w, m) != skip and _sign(t["better"]) * (t["change_median"] - t["parent_median"])
        > bounds[m] * abs(t["parent_median"])
    ]


def verdict(workloads: dict, bounds: dict, claim: tuple[str, str]) -> dict:
    """Whether the claimed (workload, metric) gain holds, and the other pairs past their bound."""
    workload, metric = claim
    s = workloads[workload][metric]
    gain = _sign(s["better"]) * (s["parent_median"] - s["change_median"])
    wins_needed = -(-9 * s["pairs"] // 10)
    return {
        "workload": workload,
        "metric": metric,
        "pairs_won": s["pairs_won"],
        "pairs": s["pairs"],
        "wins_needed": wins_needed,
        "median_gain": gain,
        "parent_iqr": s["parent_iqr"],
        "claim_met": s["pairs_won"] >= wins_needed and gain > s["parent_iqr"],
        "regressions": regressions(workloads, bounds, skip=claim),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--seed", type=int, default=None,
                    help="passed to every perfbench run (default: the canonical seeds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: every workload BENCHMARK.json declares)")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="the gain the change claims; a verdict is printed and stored")
    ap.add_argument("--out", type=Path, default=None,
                    help="a file that does not exist yet "
                         "(default: BENCH_<UTC date>.json in the current directory)")
    ap.add_argument("--workdir", default=None,
                    help="where the two exported trees go (default: the system temp dir)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    started = datetime.datetime.now(datetime.timezone.utc)
    out = args.out or Path(f"BENCH_{started.date().isoformat()}.json")
    if out.exists():
        raise SystemExit(f"{out} exists; give --out a new file name")
    claim = tuple(args.claim.split(":")) if args.claim else None

    commits = {
        side: subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                             capture_output=True, text=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }

    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.workdir) as tmp:
        trees = {side: export(commit, Path(tmp) / side) for side, commit in commits.items()}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        declared = [w["name"] for w in bench["workloads"]]
        workloads = args.workloads.split(",") if args.workloads else declared
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        undeclared = [w for w in workloads if w not in declared]
        if undeclared:
            raise SystemExit(f"--workloads names {', '.join(undeclared)}, not declared in "
                             f"BENCHMARK.json ({', '.join(declared)})")
        if claim is not None and (len(claim) != 2 or claim[0] not in workloads):
            ap.error(f"--claim must be WORKLOAD:METRIC with a workload of --workloads, "
                     f"got {args.claim}")
        metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        if claim is not None and claim[1] not in metrics:
            raise SystemExit(f"--claim names {claim[1]}, not an end-to-end metric of "
                             f"BENCHMARK.json ({', '.join(metrics)})")
        machine = probe_machine()
        values = {w: {side: {m: [] for m in metrics} for side in commits} for w in workloads}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_bench(trees[side], workload, seconds, args.seed)
                    for name in metrics:
                        values[workload][side][name].append(result["metrics"][name]["value"])
                print(f"pair {pair + 1}/{args.pairs} {workload}: " + ", ".join(
                    f"{m} {values[workload]['parent'][m][-1]:.4g} -> "
                    f"{values[workload]['change'][m][-1]:.4g}" for m in metrics), flush=True)

    record = {
        "commits": commits,
        "started_utc": started.isoformat(timespec="seconds"),
        "command": " ".join(perf_args("W", seconds, args.seed)),
        "order": "parent first in even pairs (0, 2, ...), change first in odd ones",
        "machine": machine,
        "workloads": {
            w: {m: summarize(values[w]["parent"][m], values[w]["change"][m], better)
                for m, better in metrics.items()}
            for w in workloads
        },
    }
    record["regressions"] = regressions(record["workloads"], bounds)
    if claim is not None:
        record["claim"] = verdict(record["workloads"], bounds, claim)
    text = json.dumps(record, indent=1) + "\n"
    try:
        with out.open("x") as fh:  # a file made during the runs is not overwritten
            fh.write(text)
    except FileExistsError:
        raise SystemExit(f"{out} appeared during the runs; its record was not written") from None
    for w, table in record["workloads"].items():
        for m, s in table.items():
            print(f"{w:14s} {m:12s} {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"[parent IQR {s['parent_iqr']:.3g}] {s['pairs_won']}/{s['pairs']} won")
    if claim is not None:
        c = record["claim"]
        print(f"claim {args.claim}: {'met' if c['claim_met'] else 'not met'} "
              f"({c['pairs_won']}/{c['pairs']} won, {c['wins_needed']} needed; median gain "
              f"{c['median_gain']:.4g} against parent IQR {c['parent_iqr']:.3g})")
    for r in record["regressions"]:
        print(f"regression {r['workload']} {r['metric']}: {r['parent_median']:.4g} -> "
              f"{r['change_median']:.4g}, beyond the bound {r['bound']:g}")
    if not record["regressions"]:
        print("no metric is worse than its bound")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
