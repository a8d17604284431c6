#!/usr/bin/env python3
"""Run every canonical experiment config and print a verdict table.

Usage: python scripts/run_all.py [output_dir] [--only kind1,kind2]

Each line gives the verdict, the first 16 hex digits of the sha256 of the
report body (everything above [provenance]), the same for the config's
written files (every file in its output directory but the report: CSVs and
u_plus.fld, by name and content) and the config's time, so the digest
columns of two runs show whether any report body or output file changed.
The last line digests all body digests and all file digests in run order,
so two runs of the same configs compare on one line.  Give each run its own
output directory, as stale files count.  The heaviest configs are
scattering, decay and wave_operator, in that order.
"""

import argparse
import hashlib
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output_dir", nargs="?", default="nls4-out")
    parser.add_argument("--only", default=None, help="comma-separated experiment kinds")
    args = parser.parse_args()

    kinds = args.only.split(",") if args.only else ORDER
    worst = 0
    bodies, outputs = hashlib.sha256(), hashlib.sha256()
    for kind in kinds:
        cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
        cfg.output_dir = Path(args.output_dir) / kind
        started = time.perf_counter()
        report = run_experiment(cfg)
        elapsed = time.perf_counter() - started
        verdict = report.worst_verdict
        digest = hashlib.sha256(report.body_text().encode()).hexdigest()[:16]
        files = files_digest(cfg.output_dir, f"report-{kind}.txt")
        bodies.update(digest.encode())
        outputs.update(files.encode())
        print(f"{kind:28s} {verdict.upper():4s}  {digest}  {files}  ({elapsed:6.1f}s)")
        if verdict != "pass":
            worst = 1
            for check in report.checks:
                if check.verdict == "fail":
                    print(f"    {check.line()}")
    label = f"all {len(kinds)} configs"
    print(f"{label:33s}  {bodies.hexdigest()[:16]}  {outputs.hexdigest()[:16]}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
