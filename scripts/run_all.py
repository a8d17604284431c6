#!/usr/bin/env python3
"""Run every canonical experiment config and print a verdict table.

Usage: python scripts/run_all.py [output_dir] [--only kind1,kind2]

Each line gives the verdict, the first 16 hex digits of the sha256 of the
report body (everything above [provenance]), the same for the config's
written files (every file in its output directory but the report: CSVs and
u_plus.fld, by name and content), the config's wall time and its CPU
seconds (user and system, of this process and its children, from
resource.getrusage) and the process's peak resident memory after it
(ru_maxrss, in MB of 2^20 bytes, as perfbench reports it), so the digest
columns of two runs show whether any report body or output file changed,
and CPU seconds well above the wall time show BLAS helper threads at work
or spinning.  The peak is the process's high-water mark, not the config's
own: a config raises it only where it peaks above every config before it,
and a config that peaks lower reads the same value as the one before.
The line before the last names the BLAS libraries and where each runs at
what thread count (the reports' blas_pools provenance).  The last line
digests all body digests and all file digests in run order, so two runs of
the same configs compare on one line.  Stale files would count, so the
script refuses, before the first config runs, an output directory where
any config's directory already holds files; it refuses an --only kind with
no config there too, with exit status 2 for both.  The heaviest configs are
scattering, decay and wave_operator, in that order.
"""

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

from nls4.config import load_config
from nls4.experiments import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

ORDER = [
    "conservation", "sobolev_equiv", "strichartz", "localized_mass", "morawetz",
    "small_data_global", "subcritical_global_cases", "perturbation", "final_state",
    "decay", "wave_operator", "scattering",
]


def files_digest(out_dir: Path, report_name: str) -> str:
    """sha256 over every file in out_dir but the report, by sorted name and content."""
    sha = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.is_file() and path.name != report_name:
            sha.update(path.name.encode() + b"\0")
            sha.update(hashlib.sha256(path.read_bytes()).digest())
    return sha.hexdigest()[:16]


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_mb() -> float:
    """This process's peak resident memory so far, in MB of 2^20 bytes (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output_dir", nargs="?", default="nls4-out")
    parser.add_argument("--only", default=None, help="comma-separated experiment kinds")
    args = parser.parse_args()

    kinds = args.only.split(",") if args.only else ORDER
    unknown = [kind for kind in kinds if kind not in ORDER]
    if unknown:
        print(f"error: no config for --only {', '.join(unknown)} (known: {', '.join(ORDER)})",
              file=sys.stderr)
        return 2
    for kind in kinds:
        out_dir = Path(args.output_dir) / kind
        if out_dir.is_dir() and any(path.is_file() for path in out_dir.iterdir()):
            print(f"error: {out_dir} already holds files; give the run a new output directory",
                  file=sys.stderr)
            return 2
    worst = 0
    bodies, outputs = hashlib.sha256(), hashlib.sha256()
    for kind in kinds:
        cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
        cfg.output_dir = Path(args.output_dir) / kind
        started, cpu_started = time.perf_counter(), cpu_seconds()
        report = run_experiment(cfg)
        elapsed, cpu = time.perf_counter() - started, cpu_seconds() - cpu_started
        verdict = report.worst_verdict
        digest = hashlib.sha256(report.body_text().encode()).hexdigest()[:16]
        files = files_digest(cfg.output_dir, f"report-{kind}.txt")
        bodies.update(digest.encode())
        outputs.update(files.encode())
        print(f"{kind:28s} {verdict.upper():4s}  {digest}  {files}  "
              f"({elapsed:6.1f}s, cpu {cpu:6.1f}s, peak {peak_mb():6.1f} MB)")
        if verdict != "pass":
            worst = 1
            for check in report.checks:
                if check.verdict == "fail":
                    print(f"    {check.line()}")
    print(f"blas_pools: {report.provenance['blas_pools']}")
    label = f"all {len(kinds)} configs"
    print(f"{label:33s}  {bodies.hexdigest()[:16]}  {outputs.hexdigest()[:16]}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
