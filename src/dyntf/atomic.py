"""Atomic file replacement for every file dyntf writes."""

from __future__ import annotations

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
