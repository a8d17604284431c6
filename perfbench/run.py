#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for nls4.

Run from the root of a checkout:

    python3 perfbench/run.py --workload strang_small --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload is a closed loop: one worker process runs one pass at a time,
a pass being every config of the workload through
``nls4.experiments.run_experiment``, until ``--seconds`` have elapsed.
Operators are built from scratch on every pass (``NLS4_CACHE_DIR`` is
removed from the worker's environment), as in a user's first run.  BLAS gets
as many threads as the process may use cores.  The workloads are in
``workloads.py``; ``scatter_large`` runs only when named (or with ``all``).

``--trace 0`` reports the end-to-end metrics: per-pass wall and CPU time
(medians), set-up time (median over several fresh processes), the worker's
peak resident memory and the share of failed checks.  ``--trace 1`` runs one
untraced and one traced pass, then one traced pass with a single BLAS
thread, and reports per-layer metrics; the spans go to
``.perfbench_out/<workload>/trace/spans.tsv.gz``.

Every pass checks each report: no check may fail or be an
``experiment_error``, the report file must match its body digest, and the
body digest must be identical across passes (and between the traced and the
untraced pass).  ``--seed`` replaces each config's seed, as ``nls4 run
--seed`` does; without it the canonical seeds are used.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import ALL_WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 3
OUT_DIR = ".perfbench_out"
ALL_KINDS = tuple(k for w in ALL_WORKLOADS.values() for k in w["configs"])


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# environment

def find_checkout(root: Path) -> tuple[Path, Path]:
    src, configs = root / "src", root / "scripts" / "configs"
    if not (src / "nls4" / "__init__.py").is_file():
        raise BenchError(f"no nls4 package under {src}")
    missing = [k for k in ALL_KINDS if not (configs / f"{k}.cfg").is_file()]
    if missing:
        raise BenchError(f"missing canonical configs in {configs}: {', '.join(missing)}")
    return src, configs


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env(src: Path, blas_threads: int) -> dict:
    env = dict(os.environ)
    env.pop("NLS4_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # Freeze glibc's mmap threshold at its default 128 KiB, as a fresh process
    # starts with it.  Left adaptive, whether an eigenvector matrix lands
    # 64-byte aligned is a lottery per build, and modal transforms at N=256
    # run about 25% faster when it does; passes then swing by that much.
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.mmap_threshold=131072"])
    return env


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def last_level_cache() -> str:
    """Size of the highest cache level of CPU 0, as Linux reports it."""
    best = (0, "unknown")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            if level > best[0] and size.endswith("K"):
                best = (level, f"L{level} {int(size[:-1]) / 1024:.0f} MiB")
    except (OSError, ValueError):
        pass
    return best[1]


# ---------------------------------------------------------------------------
# workers

def start_worker(workload, mode, args, env, configs: Path, out: Path):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seconds", str(args.seconds),
           "--configs", str(configs), "--out", str(out)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def finish_worker(proc, started: float) -> tuple[float, dict | None]:
    """Wait for a worker; returns (seconds until it printed ready, its result)."""
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker exited with code {code} before finishing")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def run_worker(workload, mode, args, env, configs, out):
    started = time.perf_counter()
    proc = start_worker(workload, mode, args, env, configs, out)
    return finish_worker(proc, started)


# ---------------------------------------------------------------------------
# metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def gate(passes, problems):
    """Failed checks and digest mismatches across passes."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        problems.extend(p["problems"])
        if p["digests"] != passes[0]["digests"]:
            problems.append("report body digest differs between passes")
    return attempted, failed


def end_to_end_metrics(passes, setups, peak_rss_mb):
    """End-to-end metrics, and what each value is taken over."""
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    samples = {"wall_s": f"median of {len(passes)} passes",
               "cpu_s": f"median of {len(passes)} passes",
               "setup_s": f"median of {len(setups)} processes",
               "peak_rss_mb": "peak of the process that ran the passes"}
    return metrics, samples


def end_to_end(workload, args, env, configs, out, problems):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, _ = run_worker(workload, "setup", args, env, configs, out / "setup")
        setups.append(ready)
    ready, result = run_worker(workload, "run", args, env, configs, out / "run")
    setups.append(ready)
    if result["load_operator_calls"]:
        problems.append("spectral.load_operator was called: a cache was read")
    attempted, failed = gate(result["passes"], problems)
    metrics, samples = end_to_end_metrics(result["passes"], setups, result["peak_rss_mb"])
    return metrics, samples, attempted, failed, result


# Call counts reported for these functions (0 where a workload never calls one).
COUNTED = (
    "spectral.build_operator", "spectral.to_modal", "spectral.from_modal",
    "spectral.apply_function", "radial.lp_norm", "solver.run_trajectory",
    "analysis.strichartz_quotient", "analysis.sobolev_equiv_ratio",
    "analysis.spacetime_norm", "perturbation.perturbation_experiment",
)
# Self seconds of functions every workload calls; also measured at one BLAS thread.
TIMED = (
    "spectral.build_operator", "spectral.to_modal", "spectral.from_modal",
    "spectral.apply_function", "reporting.write_report", "reporting.write_csv",
    "config.load_config",
)
ONE_THREAD = ("spectral.build_operator", "spectral.to_modal", "spectral.from_modal")
# Layers with self time on every workload.
TIMED_LAYERS = (
    "config", "radial", "potentials", "spectral", "states", "solver",
    "experiments", "reporting",
)
# Times that are 0 on workloads that never call the function.  They are
# printed and kept in summary.json, not put in the result line, where a time
# must never read 0.
DETAIL = (
    ("radial.lp_norm", "self_s"),
    ("solver.run_trajectory", "self_s"), ("solver.run_trajectory", "incl_s"),
    ("scattering.solve_final_state", "incl_s"),
    ("scattering.forward_picard_on_window", "incl_s"),
    ("analysis.strichartz_quotient", "self_s"), ("analysis.sobolev_equiv_ratio", "self_s"),
    ("analysis.spacetime_norm", "self_s"),
    ("scattering.extract_scattering_state", "self_s"),
    ("scattering.probe_wave_operator", "self_s"),
    ("perturbation.perturbation_experiment", "incl_s"),
    ("reporting.write_monitor_csv", "self_s"),
)


def _field(functions, name, field):
    return functions.get(name, {}).get(field, 0)


def layer_metrics(plain, traced, traced1):
    """Per-layer metrics from an untraced, a traced and a one-thread traced pass."""
    funcs, counts = traced["functions"], traced["counts"]
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = metric(_field(funcs, name, "calls"), "count")
    for name in TIMED:
        metrics[f"{name}.self_s"] = metric(_field(funcs, name, "self_s"), "s")
    for name in ONE_THREAD:
        metrics[f"{name}.self_s_1t"] = metric(_field(traced1["functions"], name, "self_s"), "s")
    for layer in TIMED_LAYERS:
        metrics[f"layer.{layer}.self_s"] = metric(traced["layers"][layer], "s")
    metrics["spectral.modal_rows"] = metric(counts["modal_rows"], "count")
    metrics["spectral.modal_flops"] = metric(counts["modal_flops"], "flop-computed")
    metrics["spectral.modal_bytes"] = metric(counts["modal_bytes"], "B-computed")
    metrics["solver.strang_steps"] = metric(counts["strang_steps"], "count")
    metrics["solver.picard_sweeps"] = metric(_field(funcs, "solver.cumulative", "calls"), "count")
    metrics["reporting.bytes_written"] = metric(counts["bytes_written"], "B")
    metrics["trace.spans"] = metric(traced["num_spans"], "count")
    metrics["trace.bodies_differ_1t"] = metric(
        sum(plain["digests"][k] != d for k, d in traced1["digests"].items()), "count")
    metrics["trace.self_cover_frac"] = metric(
        sum(traced["layers"].values()) / traced["wall_s"], "ratio")
    metrics["trace_overhead_frac"] = metric(traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    return metrics


def layer_detail(plain, traced):
    """The per-layer figures that can be 0 on some workload."""
    detail = {f"{name}.{field}": metric(_field(traced["functions"], name, field), "s")
              for name, field in DETAIL}
    for layer in set(LAYERS) - set(TIMED_LAYERS):
        detail[f"layer.{layer}.self_s"] = metric(traced["layers"][layer], "s")
    for kind, seconds in plain["per_config"].items():
        detail[f"experiments.{kind}.wall_s"] = metric(seconds, "s")
    return detail


def per_layer(workload, args, env, env1, configs, out, problems):
    _, result = run_worker(workload, "trace", args, env, configs, out / "trace")
    _, result1 = run_worker(workload, "trace1", args, env1, configs, out / "trace1")
    if result["load_operator_calls"] or result1["load_operator_calls"]:
        problems.append("spectral.load_operator was called: a cache was read")
    plain, traced = result["passes"]
    (traced1,) = result1["passes"]
    # Bodies must match between the traced and untraced pass.  The one-thread
    # pass is checked but may differ in the last digits: trace.bodies_differ_1t.
    attempted, failed = gate([plain, traced], problems)
    attempted1, failed1 = gate([traced1], problems)
    metrics = layer_metrics(plain, traced, traced1)
    detail = layer_detail(plain, traced)
    covered = metrics["trace.self_cover_frac"]["value"]
    if covered < 0.9:
        problems.append(f"traced self times cover only {covered:.1%} of the traced pass")
    for name, row in traced["functions"].items():
        if row["self_s"] > row["incl_s"] + 1e-9:
            problems.append(f"{name}: self time exceeds inclusive time")

    summary = {"workload": workload, "seed": args.seed, "metrics": metrics, "detail": detail,
               "functions": traced["functions"], "functions_1t": traced1["functions"],
               "counts": traced["counts"]}
    (out / "trace" / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return metrics, detail, attempted + attempted1, failed + failed1, result


# ---------------------------------------------------------------------------

def bench_workload(workload, args, root, src, configs) -> dict:
    out = root / OUT_DIR / workload
    cores = usable_cores()
    env = worker_env(src, cores)
    problems: list[str] = []
    print(f"workload {workload}: {', '.join(ALL_WORKLOADS[workload]['configs'])}; "
          f"seed {'canonical' if args.seed is None else args.seed}; "
          f"closed loop, 1 process, 1 pass at a time")
    detail, samples = {}, {}
    if args.trace:
        metrics, detail, attempted, failed, result = per_layer(
            workload, args, env, worker_env(src, 1), configs, out, problems)
    else:
        metrics, samples, attempted, failed, result = end_to_end(
            workload, args, env, configs, out, problems)

    n = result["max_points"]
    threads = f"{cores} (1 in the single-thread pass)" if args.trace else f"{cores}"
    print(f"  machine: nproc {cores}, BLAS {result['blas']}, BLAS threads {threads}, "
          f"{last_level_cache()} last-level cache vs largest eigenvector matrix "
          f"{8 * n * n / 2**20:.1f} MiB (N={n})")
    print(f"  software: Python {platform.python_version()}, numpy {result['numpy']}, "
          f"scipy {result['scipy']}, commit {git_commit(root)}")
    if not args.trace:
        walls = ", ".join(f"{p['wall_s']:.3f}" for p in result["passes"])
        print(f"  passes (wall s): {walls}")
    for name, m in metrics.items():
        count = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}{count}")
    for name, m in detail.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}  (detail, not in result)")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'check_fail_frac':44s} {frac:>16.6g} ratio  ({failed} of {attempted} checks)")
    for problem in problems:
        print(f"  FAIL {problem}")
    correct = not problems and failed == 0 and attempted > 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="replaces every config's seed (default: canonical seeds)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure passes until this many seconds have elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        src, configs = find_checkout(root)
        names = list(ALL_WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: bench_workload(w, args, root, src, configs) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
