"""Report plumbing: fixed CSV/JSON schemas, lossless printing, atomic writes.

Exact rationals print as num/den (or a bare integer), floats with 17
significant digits so they round-trip.  Files are written to a temp name in
the target directory and renamed into place, so readers never see a partial
file.  wallTimeSeconds is the one report field that varies between reruns;
every other byte is a pure function of the run configuration.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

SCHEMA_VERSION = 1


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_safe(v):
    if isinstance(v, Fraction):
        return format_value(v)
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    return v


@dataclass
class ExperimentReport:
    command: str
    parameters: dict
    rows: list
    verdicts: dict
    wall_time_seconds: float
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schemaVersion": self.schema_version,
            "command": self.command,
            "parameters": _json_safe(self.parameters),
            "rows": _json_safe(self.rows),
            "verdicts": dict(self.verdicts),
            "wallTimeSeconds": round(self.wall_time_seconds, 6),
        }


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    _atomic_write(path, buf.getvalue())


def write_json(path: str, report: ExperimentReport) -> None:
    _atomic_write(path, json.dumps(report.to_dict(), indent=2) + "\n")
