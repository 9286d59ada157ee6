"""Small file-writing helpers: atomic writes and stable JSON encoding."""

import contextlib
import json
import os
import tempfile
from collections.abc import Iterator

__all__ = [
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
    "stable_json_dumps",
    "stable_json_chunks",
]


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file handle whose content replaces `path` via a temp file +
    rename once the block exits without an error, so readers never see a
    torn file; on an error the temp file is removed and `path` is left as
    it was."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path, data):
    """Write bytes through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(data)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def stable_json_dumps(obj):
    """Deterministic JSON: sorted keys, fixed indentation, trailing newline; no NaN or inf."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def stable_json_chunks(obj):
    """The text of `stable_json_dumps(obj)` for a dict `obj` of string
    keys, in chunks. A value of `obj` may be an iterator of (string key,
    value) pairs in sorted key order: it is written as a JSON object one
    pair at a time, so its pairs need not all be held at once."""

    def nested(value, level):
        # A nested value's lines are indented by its level; JSON strings
        # hold no raw newline, so every newline starts a line.
        text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        return text.replace("\n", "\n" + "  " * level)

    opening = "{"
    for key in sorted(obj):
        value = obj[key]
        yield f"{opening}\n  {nested(key, 1)}: "
        opening = ","
        if isinstance(value, Iterator):
            inner = "{"
            for member, member_value in value:
                yield f"{inner}\n    {nested(member, 2)}: {nested(member_value, 2)}"
                inner = ","
            yield "{}" if inner == "{" else "\n  }"
        else:
            yield nested(value, 1)
    yield "{}\n" if opening == "{" else "\n}\n"
