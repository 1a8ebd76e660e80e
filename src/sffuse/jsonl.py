"""The one reader behind every JSONL loader."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


def read_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` per non-blank line; a line holding
    anything but a JSON object raises ``ValueError("path:line: ...")``, and
    a file that is not UTF-8 text ``ValueError("path: ...")``."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg} "
                                     f"at column {exc.pos + 1}") from None
                if not isinstance(obj, dict):
                    raise ValueError(
                        f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from None


def str_fields(place: str, obj: dict, *names: str,
               default: str | None = None) -> tuple[str, ...]:
    """The named fields of ``obj``, each a JSON string; an absent one is
    ``default``, or an error if there is none. Errors start with ``place``."""
    values = []
    for name in names:
        if name not in obj and default is None:
            raise ValueError(f"{place}: missing field '{name}'")
        value = obj.get(name, default)
        if not isinstance(value, str):
            raise ValueError(f"{place}: field '{name}' must be a string")
        values.append(value)
    return tuple(values)
