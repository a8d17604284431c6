#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench's end-to-end runs, into BENCH_<date>.json.

Usage, from the root of a git checkout:

    python3 scripts/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds 25]
        [--workloads modal_small,strang_small,eig_large] [--out FILE] [--workdir DIR]

PARENT and CHANGE are git revisions.  Each is exported with `git archive`
into a fresh directory of its own, and every pair runs

    python3 perfbench/run.py --workload W --seconds S --trace 0

once in each copy, for every workload in turn.  The parent goes first in
even pairs and the change in odd ones, so a drift of the host over time
weighs on both sides alike.  The last line a run prints is perfbench's JSON
object; a run that is not `correct` stops the script.

The file holds both commits, the machine (nproc, the OpenBLAS config string
of numpy's and of scipy's library, and the Python, numpy and scipy
versions) and, per workload and per end-to-end metric of BENCHMARK.json,
every run's value, both medians, the parent's interquartile range
(quartiles as numpy.percentile takes them) and the pairs the change won: a
pair counts where the change's value is better than the parent's in the
direction BENCHMARK.json gives, and a tie wins nothing.
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

# the machine record, printed as JSON by a child process like perfbench's workers
PROBE = r"""
import ctypes, importlib, json, os, platform
from pathlib import Path
import numpy, scipy, scipy.linalg
configs = {}
for package in ("numpy", "scipy"):
    libs = Path(importlib.import_module(package).__file__).parent.parent / f"{package}.libs"
    configs[package] = "not found"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            if hasattr(lib, name):
                get_config = getattr(lib, name)
                get_config.restype = ctypes.c_char_p
                configs[package] = f"{path.name}: {get_config().decode()}"
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "openblas_numpy": configs["numpy"],
    "openblas_scipy": configs["scipy"],
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}))
"""


def export(commit: str, dest: Path) -> Path:
    """The tree of `commit`, written into the fresh directory dest by git archive."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return dest


def run_bench(tree: Path, workload: str, seconds: float) -> dict:
    """perfbench's JSON object for one end-to-end run of `workload` in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} on {workload}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench run not correct in {tree} on {workload}:\n{proc.stdout}")
    return result


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, the parent's interquartile range and the pairs the change won."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    sign = 1.0 if better == "lower" else -1.0
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--workloads", default="modal_small,strang_small,eig_large")
    ap.add_argument("--out", type=Path, default=None,
                    help="default: BENCH_<UTC date>.json in the current directory")
    ap.add_argument("--workdir", default=None,
                    help="where the two exported trees go (default: the system temp dir)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    commits = {
        side: subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                             capture_output=True, text=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    workloads = args.workloads.split(",")
    started = datetime.datetime.now(datetime.timezone.utc)
    out = args.out or Path(f"BENCH_{started.date().isoformat()}.json")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.workdir) as tmp:
        trees = {side: export(commit, Path(tmp) / side) for side, commit in commits.items()}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
        machine = json.loads(subprocess.run(
            [sys.executable, "-c", PROBE], check=True, capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        ).stdout)
        values = {w: {side: {m: [] for m in metrics} for side in commits} for w in workloads}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_bench(trees[side], workload, args.seconds)
                    for name in metrics:
                        values[workload][side][name].append(result["metrics"][name]["value"])
                print(f"pair {pair + 1}/{args.pairs} {workload}: " + ", ".join(
                    f"{m} {values[workload]['parent'][m][-1]:.4g} -> "
                    f"{values[workload]['change'][m][-1]:.4g}" for m in metrics), flush=True)

    record = {
        "commits": commits,
        "started_utc": started.isoformat(timespec="seconds"),
        "command": f"perfbench/run.py --workload W --seconds {args.seconds:g} --trace 0",
        "order": "parent first in even pairs (0, 2, ...), change first in odd ones",
        "machine": machine,
        "workloads": {
            w: {m: summarize(values[w]["parent"][m], values[w]["change"][m], better)
                for m, better in metrics.items()}
            for w in workloads
        },
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w, table in record["workloads"].items():
        for m, s in table.items():
            print(f"{w:14s} {m:12s} {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"[parent IQR {s['parent_iqr']:.3g}] {s['pairs_won']}/{s['pairs']} won")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
