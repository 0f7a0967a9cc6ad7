"""Crash-safe file writes: write a temp file beside the target, then rename it."""
from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a new temp file in the directory of `path` for writing. When the
    block ends normally the file replaces `path` in one `os.replace`; when it
    raises, the temp file is removed and `path` keeps its previous contents.
    This guards against a run that dies mid-write, not against power loss
    (there is no fsync)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
