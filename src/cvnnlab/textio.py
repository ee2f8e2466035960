"""The text encodings of the files cvnnlab writes and reads back: 17-digit
floats (the trace and the reports), flat ``key = value`` files (configs and
reports), and atomic replacement, so a crash never leaves a truncated
checkpoint or report.  The checkpoint's JSON, whose parameters are base64
binary rather than decimal text, is written by
:func:`cvnnlab.network.save_checkpoint`.
"""

from __future__ import annotations

import os

__all__ = ["f17", "read_kv", "kv_text", "write_atomic"]


def f17(x) -> str:
    """17 significant digits, enough to round-trip every double."""
    return format(float(x), ".17g")


def read_kv(text: str) -> list:
    """``(lineno, key, value)`` per assignment in file order, stripped;
    ``#`` comments and blank lines are skipped, other lines need an ``=``,
    and a key given twice is refused."""
    entries, first = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        if key in first:
            raise ValueError(f"line {lineno}: {key!r} already set on line {first[key]}")
        first[key] = lineno
        entries.append((lineno, key, value.strip()))
    return entries


def _kv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f17(value) if isinstance(value, float) else str(value)


def kv_text(pairs) -> str:
    """One ``key = value`` line per pair, floats by :func:`f17`, bools as
    ``true``/``false``, the rest by ``str``; None values are left out."""
    return "".join(f"{key} = {_kv_value(value)}\n" for key, value in pairs if value is not None)


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` (ASCII) through a temp file in the same
    directory and ``os.replace``; on failure the old file stays as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
