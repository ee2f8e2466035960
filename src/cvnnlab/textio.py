"""The text encodings of the files cvnnlab writes and reads back: 17-digit
floats (the trace and the reports), flat ``key = value`` files (configs and
reports), and atomic replacement, so a crash never leaves a truncated
checkpoint or report.  :func:`write_atomic` takes the text whole or as a
stream of pieces.  The checkpoint's JSON, whose parameters are base64
binary rather than decimal text, is built by
:func:`cvnnlab.network.save_checkpoint`, which streams it here one base64
piece at a time.
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


def write_atomic(path, pieces) -> None:
    """Replace ``path`` with ASCII text through a temp file in the same
    directory, fsync and ``os.replace``; on failure the old file stays as it
    was and the temp file is removed.

    ``pieces`` is one ``str`` or an iterable of ``str`` written in turn, so a
    caller can stream a file it never holds whole; a piece that is not a
    ``str`` raises TypeError.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for piece in (pieces,) if isinstance(pieces, str) else pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
