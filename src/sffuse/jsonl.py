"""The one JSON decoder behind every file loader."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


def _decode(text: str, place: str, invalid: str = "invalid JSON") -> object:
    """One JSON document. A syntax error, or nesting deeper than the decoder
    can recurse, raises ``ValueError("place: <invalid>: ...")``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        at = f"line {exc.lineno} column {exc.colno}" if exc.lineno > 1 else f"column {exc.colno}"
        raise ValueError(f"{place}: {invalid}: {exc.msg} at {at}") from None
    except RecursionError:
        raise ValueError(f"{place}: {invalid}: nested too deeply") from None


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    return ValueError(f"{path}: not UTF-8 text: {exc.reason}")


def read_document(path: str | Path, invalid: str = "invalid JSON") -> object:
    """The file at ``path`` decoded as one JSON document; errors name ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return _decode(text, str(path), invalid)


def read_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` per non-blank line; a line holding
    anything but a JSON object raises ``ValueError("path:line: ...")``, and
    a file that is not UTF-8 text ``ValueError("path: ...")``."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                obj = _decode(line, f"{path}:{lineno}")
                if not isinstance(obj, dict):
                    raise ValueError(
                        f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


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
