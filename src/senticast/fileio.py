"""Atomic file replacement, shared by every artifact writer.

It imports neither numpy nor the model code, so that a module writing plain
CSV (such as `text`) can use it without loading them.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path: Path | str, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
