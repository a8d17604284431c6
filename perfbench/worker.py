"""One benchmark process: import, parse the workload's configs, run passes.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
once set-up is done (imports plus config parsing), then, unless ``--mode
setup``, runs passes and prints one JSON object as its last line.

Modes:
  setup   stop after set-up (extra set-up samples)
  run     untraced passes until --seconds have elapsed
  trace   one untraced pass, then one traced pass; spans written to --out
  trace1  one traced pass only (run with one BLAS thread by run.py)
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401 - part of set-up, as in a user's run

from nls4 import config, experiments, reporting, spectral

from tracer import Tracer, layer_self_seconds
from workloads import ALL_WORKLOADS


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class LoadGuard:
    """Counts calls of spectral.load_operator; a stale cache must never be read."""

    def __init__(self):
        self.calls = 0
        self._original = spectral.load_operator

        def guarded(*args, **kwargs):
            self.calls += 1
            return self._original(*args, **kwargs)

        spectral.load_operator = guarded


def blas_name() -> str:
    try:  # show_config(mode=...) needs numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def run_pass(cfg_paths, seed, out_dir: Path) -> tuple[dict, list]:
    """Run every config once; time from the first load_config to the last report."""
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    reports, per_config = [], {}
    for path in cfg_paths:
        t0 = time.perf_counter()
        cfg = config.load_config(path)
        if seed is not None:
            cfg.seed = seed
        cfg.output_dir = out_dir / cfg.experiment
        reports.append(experiments.run_experiment(cfg))
        per_config[cfg.experiment] = time.perf_counter() - t0
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "per_config": per_config}, reports


def checked_pass(cfg_paths, seed, out_dir: Path) -> dict:
    timing, reports = run_pass(cfg_paths, seed, out_dir)
    return {**timing, **verify_reports(reports, out_dir)}


def verify_reports(reports, out_dir: Path) -> dict:
    """Check verdicts and body digests of the reports one pass wrote."""
    attempted = failed = 0
    problems, digests = [], {}
    for report in reports:
        kind = report.experiment
        for check in report.checks:
            if check.verdict == "skipped":
                continue
            attempted += 1
            if check.verdict != "pass" or check.name == "experiment_error":
                failed += 1
                problems.append(f"{kind}: {check.line()}")
        path = out_dir / kind / f"report-{kind}.txt"
        body = reporting.report_body_from_file(path)[:-1]  # full_text adds "\n"
        _, provenance = reporting.read_report(path)
        digest = hashlib.sha256(body.encode()).hexdigest()
        expected = hashlib.sha256(report.body_text().encode()).hexdigest()
        if digest != expected or provenance.get("body_sha256") != digest:
            problems.append(f"{kind}: report file body does not match its digest")
        digests[kind] = digest
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "digests": digests}


def traced_pass(cfg_paths, seed, out_dir: Path):
    """One pass under the tracer, with the counters computed from outside."""
    tracer = Tracer()
    counts = {"strang_steps": 0, "modal_rows": 0, "modal_flops": 0, "modal_bytes": 0,
              "bytes_written": 0}

    def count_steps(args, kwargs, record):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
        if len(record.times):
            counts["strang_steps"] += round(record.times[-1] / cfg.dt)

    def count_rows(args, kwargs, result):
        op, values = args[0], np.asarray(args[1])
        n = op.grid.num_points
        rows = values.size // n
        real_rows = rows * (2 if np.iscomplexobj(values) else 1)
        counts["modal_rows"] += rows
        counts["modal_flops"] += 2 * n * n * real_rows
        counts["modal_bytes"] += 8 * n * n * real_rows

    def count_bytes(args, kwargs, result):
        counts["bytes_written"] += len(args[1].encode())

    tracer.on_return("solver.run_trajectory", count_steps)
    tracer.on_return("spectral.to_modal", count_rows)
    tracer.on_return("spectral.from_modal", count_rows)
    tracer.on_return("reporting.atomic_write_text", count_bytes)
    with tracer:
        result, reports = run_pass(cfg_paths, seed, out_dir)
    result.update(verify_reports(reports, out_dir))
    summary = tracer.summary()
    result.update(
        functions=summary,
        layers=layer_self_seconds(summary),
        counts=counts,
        num_spans=len(tracer.spans),
    )
    return result, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "trace1"), default="run")
    ap.add_argument("--configs", required=True, help="directory of canonical configs")
    ap.add_argument("--out", required=True, help="output directory for reports and spans")
    args = ap.parse_args(argv)

    cfg_dir, out = Path(args.configs), Path(args.out)
    cfg_paths = [cfg_dir / f"{kind}.cfg" for kind in ALL_WORKLOADS[args.workload]["configs"]]
    sizes = [config.load_config(p).grid.num_points for p in cfg_paths]
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    guard = LoadGuard()
    result = {"max_points": max(sizes), "blas": blas_name(), "numpy": np.__version__,
              "scipy": scipy.__version__}
    if args.mode == "run":
        passes, started = [], time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            passes.append(checked_pass(cfg_paths, args.seed, out / "run"))
        result["passes"] = passes
    elif args.mode == "trace":
        plain = checked_pass(cfg_paths, args.seed, out / "plain")
        traced, tracer = traced_pass(cfg_paths, args.seed, out / "traced")
        result["passes"] = [plain, traced]
        tracer.write_spans(out / "spans.tsv.gz")
    else:
        traced, _ = traced_pass(cfg_paths, args.seed, out / "traced1")
        result["passes"] = [traced]
    result["load_operator_calls"] = guard.calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
