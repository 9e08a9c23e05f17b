"""Report plumbing: the CSV and JSON writers, lossless printing, atomic writes.

Rows reach the CSV as the experiments made them.  Exact rationals print as
num/den (or a bare integer), floats with 17 significant digits so they
round-trip.  This module alone fixes the report schema.  Under schema 2 the
rows live in the CSV only: a command that writes one names it in its JSON
report by file name, row count and SHA-256 (the "csv" block that write_csv
returns), and a command with no CSV has no such block.  Files are written
to a temp name in the target directory and renamed into place, so readers
never see a partial file, though an old one is briefly absent.
wallTimeSeconds is the one report field that varies between reruns; every
other byte is a pure function of the run configuration.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
from fractions import Fraction
from typing import Iterable, Sequence

SCHEMA_VERSION = 2


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it to path.

    Readers never see a partial file, but path is briefly absent: an old
    file there is removed just before the rename.  On ext4 a rename over an
    existing file flushes the new file's delayed blocks: rewriting eight
    200 kB files took 0.35-0.65 s a round renaming over the old ones, and
    under 1 ms removing them first.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# csv prints these with str(), which is format_value's text for them
_PRINTED_AS_IS = frozenset((int, Fraction, str))


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> dict:
    """Write the CSV; return its report block: file name, row count and SHA-256."""
    import hashlib  # here, not at the top: commands that write no CSV skip its import

    # encoded a chunk at a time into one byte buffer, the text peaks near the
    # file's size; a StringIO, its value and their encoding peaked near four
    # times it (2.6 MB for the 0.67 MB desk probe.csv)
    raw = io.BytesIO()
    text = io.TextIOWrapper(raw, "utf-8", newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    count = 0
    for count, row in enumerate(rows, 1):
        writer.writerow([v if type(v) in _PRINTED_AS_IS else format_value(v) for v in row])
    text.flush()
    data = raw.getvalue()
    _atomic_write(path, data)
    digest = hashlib.sha256(data).hexdigest()
    return {"name": os.path.basename(path), "rowCount": count, "sha256": digest}


def _json_default(v):
    """Fractions print as in the CSVs; any other non-JSON value is an error."""
    if isinstance(v, Fraction):
        return format_value(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def write_json(
    path: str, command: str, parameters: dict, csv_block, verdicts: dict, seconds: float
) -> None:
    """<command>'s report: the one place the JSON schema is written down.

    csv_block is what write_csv returned for the command's CSV, or None when
    the command writes none.
    """
    report = {"schemaVersion": SCHEMA_VERSION, "command": command, "parameters": parameters}
    if csv_block:
        report["csv"] = csv_block
    report["verdicts"] = verdicts
    report["wallTimeSeconds"] = round(seconds, 6)
    _atomic_write(path, (json.dumps(report, indent=2, default=_json_default) + "\n").encode())
