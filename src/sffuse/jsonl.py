"""The one JSON boundary: the decoder behind every file loader, the encoder
behind every JSON output, HTTP request bodies included, and ``finite_floats``,
the one rule for a number read from outside."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

_T = TypeVar("_T")


def _decode(text: str, place: str) -> object:
    """One JSON document. A syntax error, or nesting deeper than the decoder
    can recurse, raises ``ValueError("place: invalid JSON: ...")``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        at = f"line {exc.lineno} column {exc.colno}" if exc.lineno > 1 else f"column {exc.colno}"
        raise ValueError(f"{place}: invalid JSON: {exc.msg} at {at}") from None
    except RecursionError:
        raise ValueError(f"{place}: invalid JSON: nested too deeply") from None


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    return ValueError(f"{path}: not UTF-8 text: {exc.reason}")


def read_document(path: str | Path, build: Callable[[object], _T]) -> _T:
    """``build`` of the file at ``path`` decoded as one JSON document. A file
    that cannot be opened raises ``open``'s OSError; every other error names
    ``path``: a decode error says ``invalid JSON``, and a ValueError from
    ``build`` is raised again, of the same type, as ``path: ...``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    document = _decode(text, str(path))
    try:
        return build(document)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def read_records(path: str | Path, build: Callable[[dict, int], _T]) -> list[_T]:
    """``build(record, line number)`` for each non-blank line, in line order.
    Each record is built as its line is read, so the first fault in the file
    is the one raised: a line holding anything but a JSON object, or a
    ValueError from ``build``, raises ``ValueError("path:line: ...")``, and a
    file that is not UTF-8 text ``ValueError("path: ...")``."""
    records = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                place = f"{path}:{lineno}"
                obj = _decode(line, place)
                if not isinstance(obj, dict):
                    raise ValueError(
                        f"{place}: expected a JSON object, got {type(obj).__name__}")
                try:
                    records.append(build(obj, lineno))
                except ValueError as exc:
                    raise ValueError(f"{place}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return records


def write_records(path: str | Path, rows: Iterable[dict]) -> int:
    """Write each row as one JSON line and return the row count. Every row is
    encoded before the file is opened, so a row that cannot be encoded
    raises ``ValueError("path: row k: ...")`` (k counts from 1) and leaves
    any file at ``path`` as it was."""
    lines = []
    for k, row in enumerate(rows, start=1):
        try:
            lines.append(dumps(row) + "\n")
        except ValueError as exc:
            raise ValueError(f"{path}: row {k}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def dumps(obj: object) -> str:
    """The one JSON encoder: sorted keys, UTF-8 text as is, and strict, so a
    NaN or infinity raises ValueError instead of writing a token no JSON
    parser has to accept."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, allow_nan=False)


def str_fields(obj: dict, *names: str, default: str | None = None) -> tuple[str, ...]:
    """The named fields of ``obj``, each a JSON string; an absent one is
    ``default``, or an error if there is none."""
    values = []
    for name in names:
        if name not in obj and default is None:
            raise ValueError(f"missing field '{name}'")
        value = obj.get(name, default)
        if not isinstance(value, str):
            raise ValueError(f"field '{name}' must be a string")
        values.append(value)
    return tuple(values)


def finite_floats(value: object) -> np.ndarray | None:
    """``value`` as a 1-D float64 array if it is a sequence of finite
    numbers, else None. Ints and floats count, numpy's included; a bool, str,
    bytes or None does not, and neither does an int beyond the float range."""
    try:
        if not all(issubclass(kind, (int, float, np.integer, np.floating)) and kind is not bool
                   for kind in set(map(type, value))):
            return None
        floats = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if floats.ndim != 1 or not np.isfinite(floats).all():
        return None
    return floats
