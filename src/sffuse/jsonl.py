"""The one reader behind every JSONL loader."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


def read_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` per non-blank line; a line holding
    anything but a JSON object raises ``ValueError("path:line: ...")``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
            yield lineno, obj
