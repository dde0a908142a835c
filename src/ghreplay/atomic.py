"""Atomic file replacement for every output the package writes.

``atomic_open`` writes to a temporary file in the target's directory and
moves it over the target with ``os.replace`` only when the write
finishes. A write that fails partway removes the temporary file and
leaves any earlier version of the target intact, so a killed or failed
run never leaves a truncated CSV, manifest or checkpoint behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str, **kwargs):
    """``open(path, mode, **kwargs)`` whose file replaces ``path`` on a clean exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
