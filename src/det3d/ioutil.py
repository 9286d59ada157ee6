"""Small file-writing helpers: atomic writes and stable JSON encoding."""

import json
import os
import tempfile

__all__ = ["atomic_write_bytes", "atomic_write_text", "stable_json_dumps"]


def atomic_write_bytes(path, data):
    """Write bytes via a temp file + rename so readers never see a torn file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def stable_json_dumps(obj):
    """Deterministic JSON: sorted keys, fixed indentation, trailing newline; no NaN or inf."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
