"""Line-oriented on-disk cache with per-line checksums.

The one kind stored is ``totpos``: the totally positive elements of one
trace, from the lattice scan of numberfield.enumerate_tot_pos_trace.  A file
never decides an answer: the scan always runs, and after it harness compares
the scan's records with the file's; a file that is missing or differs in any
way is rewritten, byte for byte as a fresh one.  Format:

    pmcong-cache/2 <kind> <canonical key>
    <record>|<crc32 of record, 8 hex digits>
    ...
    end <number of records>

The trailer makes a file cut at a record boundary stale, just like a file cut
inside a record; files with any other header (including pmcong-cache/1,
which had no trailer) are stale too.

Writes go through a temporary file in the same directory followed by
os.replace, so concurrent readers never observe a partial file.  Callers
pass the cache directory explicitly (the CLI's --cache-dir), as a ``str`` or
any ``os.PathLike``; a run without a directory never calls this module.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from pathlib import Path

__all__ = ["cache_path", "load_records", "store_records"]

_HEADER_PREFIX = "pmcong-cache/2"
_TRAILER = "end"


def _canonical_key(key: dict[str, object]) -> str:
    return " ".join(f"{k}={key[k]}" for k in sorted(key))


def cache_path(directory: Path, kind: str, key: dict[str, object]) -> Path:
    stem = "-".join([kind] + [f"{k}{key[k]}" for k in sorted(key)])
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in stem)
    return directory / f"{safe}.txt"


def _checksum(record: str) -> str:
    return format(zlib.crc32(record.encode("utf-8")) & 0xFFFFFFFF, "08x")


def load_records(directory: str | os.PathLike, kind: str, key: dict[str, object]) -> list[str] | None:
    """Return the cached records, or None when absent/stale/corrupt/truncated."""
    path = cache_path(Path(directory), kind, key)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != f"{_HEADER_PREFIX} {kind} {_canonical_key(key)}":
        return None
    *body, trailer = lines[1:]
    if trailer != f"{_TRAILER} {len(body)}" or not text.endswith("\n"):
        return None
    records = []
    for line in body:
        payload, sep, crc = line.rpartition("|")
        if not sep or _checksum(payload) != crc:
            return None
        records.append(payload)
    return records


def store_records(
    directory: str | os.PathLike, kind: str, key: dict[str, object], records: list[str]
) -> Path:
    """Atomically write the records; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = cache_path(directory, kind, key)
    body = [f"{_HEADER_PREFIX} {kind} {_canonical_key(key)}"]
    body.extend(f"{r}|{_checksum(r)}" for r in records)
    body.append(f"{_TRAILER} {len(records)}")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(body) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
