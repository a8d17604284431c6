"""Structured experiment reports: deterministic body, segregated provenance.

A report file is plain text with stable field ordering:

    nls4-report 1
    [config]    every resolved key = value
    [checks]    name = verdict | measured=... | threshold=... | cmp=...
    [series]    name = relative CSV path
    [provenance]  code version, BLAS pools, timestamp, runtime, body digest

Everything above [provenance] is the deterministic body: identical config
and seed must reproduce it byte for byte.  Files are written atomically
(temp file in the same directory, then rename), so an interrupted run never
leaves a partial report at the final path.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

FORMAT_HEADER = "nls4-report 1"
PROVENANCE_MARKER = "[provenance]"


class ReportError(RuntimeError):
    pass


@dataclass
class CheckResult:
    name: str
    verdict: str                 # pass | fail | skipped
    measured: float | None = None
    threshold: float | None = None
    comparator: str = "<="
    note: str = ""

    def line(self) -> str:
        parts = [f"{self.name} = {self.verdict}"]
        parts.append(f"measured={_fmt(self.measured)}")
        parts.append(f"threshold={_fmt(self.threshold)}")
        parts.append(f"cmp={self.comparator}")
        if self.note:
            parts.append(f"note={self.note}")
        return " | ".join(parts)


def _fmt(value) -> str:
    if value is None:
        return "none"
    return repr(float(value))


def check_leq(name: str, measured: float, threshold: float, note: str = "") -> CheckResult:
    verdict = "pass" if measured <= threshold else "fail"
    return CheckResult(name, verdict, measured, threshold, "<=", note)


def check_geq(name: str, measured: float, threshold: float, note: str = "") -> CheckResult:
    verdict = "pass" if measured >= threshold else "fail"
    return CheckResult(name, verdict, measured, threshold, ">=", note)


def check_range(
    name: str, measured: float, lo: float, hi: float, note: str = ""
) -> CheckResult:
    verdict = "pass" if lo <= measured <= hi else "fail"
    tag = f"[{_fmt(lo)}, {_fmt(hi)}]"
    return CheckResult(name, verdict, measured, hi, f"in {tag}", note)


def check_flag(name: str, ok: bool, measured: float, note: str = "") -> CheckResult:
    """Boolean outcome, still carrying the number that produced it."""
    return CheckResult(name, "pass" if ok else "fail", measured, None, "flag", note)


def skipped(name: str, note: str) -> CheckResult:
    return CheckResult(name, "skipped", None, None, "-", note)


@dataclass
class ExperimentReport:
    experiment: str
    config_items: list[tuple[str, str]]
    checks: list[CheckResult]
    series: dict[str, str] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    @property
    def worst_verdict(self) -> str:
        """fail if any check failed or none was attempted (all skipped, or none), else pass."""
        verdicts = {c.verdict for c in self.checks}
        if "fail" in verdicts or verdicts <= {"skipped"}:
            return "fail"
        return "pass"

    def body_text(self) -> str:
        lines = [FORMAT_HEADER, ""]
        lines.append("[config]")
        lines.extend(f"{k} = {v}" for k, v in self.config_items)
        lines.append("")
        lines.append("[checks]")
        lines.extend(c.line() for c in self.checks)
        lines.append("")
        lines.append("[series]")
        lines.extend(f"{name} = {path}" for name, path in sorted(self.series.items()))
        lines.append("")
        return "\n".join(lines)

    @property
    def body_sha256(self) -> str:
        """The sha256 of the body, the digest [provenance] records and run_all.py prints."""
        return hashlib.sha256(self.body_text().encode()).hexdigest()

    @property
    def file_name(self) -> str:
        """The name the report is written under in its run's output directory."""
        return f"report-{self.experiment}.txt"

    def full_text(self) -> str:
        prov = dict(self.provenance)
        prov["body_sha256"] = self.body_sha256
        lines = [self.body_text(), PROVENANCE_MARKER]
        lines.extend(f"{k} = {v}" for k, v in sorted(prov.items()))
        lines.append("")
        return "\n".join(lines)


def atomic_write_bytes(path: str | Path, chunks) -> None:
    """Write the byte chunks one after another to a unique temp file, then rename.

    The file gets the mode a plain open() would give (0666 less the umask),
    not mkstemp's 0600, so reports and snapshots stay readable to others.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, [text.encode()])


def write_report(report: ExperimentReport, path: str | Path) -> None:
    now = datetime.now(timezone.utc).isoformat()
    report.provenance.setdefault("timestamp", now)
    atomic_write_text(path, report.full_text())


def read_report(path: str | Path):
    """Parse a report file back into (body dict-of-sections, provenance dict)."""
    path = Path(path)
    text = path.read_text()
    if not text.startswith(FORMAT_HEADER):
        raise ReportError(f"{path} is not an nls4 report")
    body, _, prov_text = text.partition(PROVENANCE_MARKER)
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in body.splitlines():
        line = line.strip()
        if not line or line == FORMAT_HEADER:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
            continue
        if current is None:
            continue
        key, _, value = line.partition(" = ")
        sections[current][key] = value
    provenance = {}
    for line in prov_text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            provenance[key.strip()] = value
    return sections, provenance


def report_body_from_file(path: str | Path) -> str:
    text = Path(path).read_text()
    body, _, _ = text.partition(PROVENANCE_MARKER)
    return body


def write_csv(path: str | Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, (int, float)) else str(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_monitor_csv(path: str | Path, record) -> None:
    """Trajectory monitors: columns t, mass, energy, h2dot, boundary_mass."""
    rows = zip(
        record.times,
        record.mass_series,
        record.energy_series,
        record.h2dot_series,
        record.boundary_mass_series,
    )
    write_csv(path, ["t", "mass", "energy", "h2dot", "boundary_mass"], rows)


def emit_plot_data(report_path: str | Path, series_name: str, out_path=None) -> Path:
    """Re-emit a named series attachment; unknown names list what exists."""
    sections, _ = read_report(report_path)
    series = sections.get("series", {})
    if series_name not in series:
        available = ", ".join(sorted(series)) or "(none)"
        raise ReportError(
            f"unknown series {series_name!r}; available series: {available}"
        )
    src = Path(report_path).parent / series[series_name]
    if not src.exists():
        raise ReportError(f"series attachment {src} is missing")
    if out_path is None:
        return src
    out_path = Path(out_path)
    atomic_write_text(out_path, src.read_text())
    return out_path
