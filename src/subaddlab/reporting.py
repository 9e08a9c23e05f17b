"""Report plumbing: the CSV and JSON writers, lossless printing, atomic writes.

Rows reach the files as the experiments made them.  Exact rationals print as
num/den (or a bare integer), floats with 17 significant digits so they
round-trip; write_json alone fixes the report schema.  Files are written to
a temp name in the target directory and renamed into place, so readers never
see a partial file.  wallTimeSeconds is the one report field that varies
between reruns; every other byte is a pure function of the run configuration.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _json_default(v):
    """Fractions print as in the CSVs; any other non-JSON value is an error."""
    if isinstance(v, Fraction):
        return format_value(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def write_json(
    path: str, command: str, parameters: dict, rows, verdicts: dict, seconds: float
) -> None:
    """<command>'s report: the one place the JSON schema is written down."""
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "rows": rows,
        "verdicts": verdicts,
        "wallTimeSeconds": round(seconds, 6),
    }
    _atomic_write(path, json.dumps(report, indent=2, default=_json_default) + "\n")
