"""The text encodings of the files cvnnlab writes and reads back: 17-digit
floats (the trace, the reports, the checkpoint), flat ``key = value`` files
(configs and reports), 17-digit JSON (the checkpoint), and atomic
replacement, so a crash never leaves a truncated checkpoint or report.
"""

from __future__ import annotations

import json
import os

__all__ = ["f17", "read_kv", "kv_text", "json_text", "write_atomic"]


def f17(x) -> str:
    """17 significant digits, enough to round-trip every double."""
    return format(float(x), ".17g")


def read_kv(text: str) -> list:
    """``(lineno, key, value)`` per assignment in file order, stripped;
    ``#`` comments and blank lines are skipped, other lines need an ``=``."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def _kv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f17(value) if isinstance(value, float) else str(value)


def kv_text(pairs) -> str:
    """One ``key = value`` line per pair, floats by :func:`f17`, bools as
    ``true``/``false``, the rest by ``str``; None values are left out."""
    return "".join(f"{key} = {_kv_value(value)}\n" for key, value in pairs if value is not None)


def json_text(doc) -> str:
    """Compact JSON for ``doc``, every float at 17 significant digits and
    negative zero as ``-0.0`` (JSON reads ``-0`` back as the integer 0)."""
    if isinstance(doc, float):
        text = f17(doc)
        return "-0.0" if text == "-0" else text
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{json_text(v)}" for k, v in doc.items()) + "}"
    if isinstance(doc, (list, tuple)):
        return "[" + ",".join(map(json_text, doc)) + "]"
    return json.dumps(doc)


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
