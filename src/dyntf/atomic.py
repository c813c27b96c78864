"""Atomic file replacement for every file dyntf writes."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


@contextmanager
def open_atomic(path):
    """Open a fresh temporary file beside `path` for writing UTF-8 text.

    When the block finishes, the file replaces `path` in one `os.replace`,
    so readers see the old file or the complete new one, never a part.
    When the block raises, the temporary file is removed and `path` is
    left as it was.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    # "x" never reuses an existing file; open()'s default mode gives the
    # result the permissions a plain open would
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, doc: dict) -> None:
    """Write `doc` atomically as JSON indented by 2, plus a newline. A NaN
    or infinite float raises ValueError, since JSON has no such number,
    and leaves `path` as it was."""
    with open_atomic(path) as fh:
        fh.write(_indented(doc, "") + "\n")


def _indented(value, pad: str) -> str:
    """`value` as json.dumps(value, indent=2) lays it out at indent `pad`, but
    each list of plain numbers goes through json's C encoder in one call."""
    inner, sep = pad + "  ", ",\n" + pad + "  "
    if isinstance(value, list) and value:
        if set(map(type, value)) <= {int, float}:  # no number holds ", "
            body = json.dumps(value, allow_nan=False)[1:-1].replace(", ", sep)
        else:
            body = sep.join([_indented(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict) and value and set(map(type, value)) == {str}:
        body = sep.join([f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    # JSON strings escape every newline, so each one here is layout
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + pad)
