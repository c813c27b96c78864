"""Atomic file replacement for every file dyntf writes."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

_BLOCK = 4096  # array values json encodes per call


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
    """Write `doc`, a dict with str keys, atomically as JSON indented by 2,
    plus a newline. A value may be a 1-D numpy array, written as the list of
    its values _BLOCK values at a time; the file is written field by field,
    so neither its text nor a list of all of an array's values is held. A
    NaN or infinite float raises ValueError, since JSON has no such number,
    and leaves `path` as it was."""
    with open_atomic(path) as fh:
        for n, (key, value) in enumerate(doc.items()):
            fh.write(("," if n else "{") + f"\n  {json.dumps(key)}: ")
            if isinstance(value, np.ndarray) and value.size:
                for lo in range(0, value.size, _BLOCK):  # json's C encoder, block by block
                    fh.write(",\n    " if lo else "[\n    ")
                    text = json.dumps(value[lo:lo + _BLOCK].tolist(), allow_nan=False)
                    fh.write(text[1:-1].replace(", ", ",\n    "))  # no number's text holds ", "
                fh.write("\n  ]")
            else:  # JSON strings escape every newline, so each one here is layout
                value = value.tolist() if isinstance(value, np.ndarray) else value
                fh.write(json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "{}\n")
