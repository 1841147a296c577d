"""Whole-or-nothing file writes."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path

__all__ = ["write_text_atomic"]


def write_text_atomic(path: str | Path, chunks: Iterable[str]) -> Path:
    """Write ``chunks`` as UTF-8 text to ``path`` (parents created);
    returns the path.

    The text goes to a temp file beside ``path`` and is published with an
    atomic rename: an interrupt or a full disk leaves the previous file
    at ``path`` (or none), never a truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
