"""The one JSON boundary: the decoder behind every file loader and endpoint
answer, the encoder behind every JSON output, HTTP request bodies included,
``write_files``, the one writer of every output file, ``finite_floats``, the
one rule for a number read from outside, and ``check_unique``, the one rule
for a file's record ids.

There is one encoder, ``_ENCODER``, built once at import and shared by every
thread: ``JSONEncoder.encode`` keeps no state between calls. A record's
``path:line`` is formatted only when the record is at fault."""

from __future__ import annotations

import functools
import json
import os
import stat
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")

_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)
# What ``json.loads`` raises on a syntax error (``JSONDecodeError``), on an
# integer too long to convert (a plain ValueError), or on nesting deeper than
# the decoder can recurse.
_DECODE_ERRORS = (ValueError, RecursionError)


def _invalid_json(place: str, exc: Exception) -> ValueError:
    """``ValueError("place: invalid JSON: ...")`` for a ``_DECODE_ERRORS`` error."""
    if isinstance(exc, RecursionError):
        return ValueError(f"{place}: invalid JSON: nested too deeply")
    if not isinstance(exc, json.JSONDecodeError):
        # Python's hint to raise the digit limit is no advice for a file.
        return ValueError(f"{place}: invalid JSON: {str(exc).partition('; use sys.')[0]}")
    at = f"line {exc.lineno} column {exc.colno}" if exc.lineno > 1 else f"column {exc.colno}"
    # Some messages end in "at" already ("Unterminated string starting at").
    return ValueError(f"{place}: invalid JSON: {exc.msg.removesuffix(' at')} at {at}")


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    return ValueError(f"{path}: not UTF-8 text: {exc.reason}")


def loads(data: bytes, place: str) -> object:
    """``data`` decoded as UTF-8 text holding one JSON document; a fault
    raises ``ValueError("place: not UTF-8 text: ...")`` or
    ``ValueError("place: invalid JSON: ...")``. Line ends count as a text
    file's do (a lone CR is one), so a fault has the line an editor shows."""
    try:
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:  # first: it is a ValueError too
        raise _not_utf8(place, exc) from None
    except _DECODE_ERRORS as exc:
        raise _invalid_json(place, exc) from None


def read_document(path: str | Path, build: Callable[[object], _T]) -> _T:
    """``build`` of the file at ``path`` decoded by ``loads``. A file that
    cannot be opened raises ``open``'s OSError; every other error names
    ``path``, and a ValueError from ``build`` is raised again, of the same
    type, as ``path: ...``."""
    document = loads(Path(path).read_bytes(), str(path))
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
                # A line read from a file is never empty, so this is true
                # exactly for a line of whitespace only, and copies nothing.
                if line.isspace():
                    continue
                try:
                    obj = json.loads(line)
                except _DECODE_ERRORS as exc:
                    raise _invalid_json(f"{path}:{lineno}", exc) from None
                if not isinstance(obj, dict):
                    raise ValueError(
                        f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
                try:
                    records.append(build(obj, lineno))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return records


def write_records(*outputs: tuple[str | Path, Iterable[dict]]) -> None:
    """``write_files`` of each ``(path, rows)`` output, one JSON line per row.
    Every row is encoded first, so one that cannot be (a NaN, a lone surrogate)
    raises ``ValueError("path: row k: ...")``, k from 1, and opens no file."""
    encoded = []
    for path, rows in outputs:
        lines = []
        for k, row in enumerate(rows, start=1):
            try:
                lines.append((dumps(row) + "\n").encode("utf-8"))
            except ValueError as exc:
                raise ValueError(f"{path}: row {k}: {exc}") from exc
        encoded.append((path, lines))
    write_files(*encoded)


def write_files(*outputs: tuple[str | Path, Iterable[bytes]]) -> None:
    """Write each ``(path, chunks)`` output, opening every path as ``open``
    does before writing any. A path that cannot be opened (``open``'s OSError)
    or two outputs that are one regular file (``ValueError("a and b are the
    same file")``) changes no file: one this call created is removed again.
    Only a write error, such as a full disk, can leave some outputs written."""
    files, created = [], []
    try:
        for path, _ in outputs:
            try:
                files.append(open(path, "xb"))
                created.append(path)
            except FileExistsError:  # opened without truncating it
                files.append(open(path, "ab"))
        stats = [os.fstat(fh.fileno()) for fh in files]
        for k, (path, _) in enumerate(outputs):
            for (other, _), earlier in zip(outputs, stats[:k]):
                if stat.S_ISREG(stats[k].st_mode) and os.path.samestat(earlier, stats[k]):
                    raise ValueError(f"{other} and {path} are the same file")
        created.clear()  # every path is open: from here on no file is removed
        for fh, st, (_, chunks) in zip(files, stats, outputs):
            # Not a new file (ext4 flushes a truncated one at close), nor a device.
            if st.st_size:
                fh.truncate(0)
            fh.writelines(chunks)
            fh.close()
    finally:
        for fh in files:
            fh.close()
        for path in created:
            os.remove(path)


def dumps(obj: object) -> str:
    """The one JSON encoder: sorted keys, UTF-8 text as is, and strict, so a
    NaN or infinity raises ValueError instead of writing a token no JSON
    parser has to accept."""
    return _ENCODER.encode(obj)


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


def check_unique(kind: str, ids: Sequence[str]) -> None:
    """Raise ``ValueError("duplicate {kind} ids: [...]")``, the repeated ids
    sorted, if an id occurs twice; the ids are counted only then."""
    if len(set(ids)) == len(ids):
        return
    repeated = sorted(k for k, n in Counter(ids).items() if n > 1)
    raise ValueError(f"duplicate {kind} ids: {repeated}")


@functools.cache
def _is_number_type(kind: type) -> bool:
    """The type half of ``finite_floats``'s rule, decided once per type."""
    return issubclass(kind, (int, float, np.integer, np.floating)) and kind is not bool


def finite_floats(value: object) -> np.ndarray | None:
    """``value`` as a 1-D float64 array if it is a sequence of finite
    numbers, else None. Ints and floats count, numpy's included; a bool, str,
    bytes or None does not, and neither does an int beyond the float range."""
    try:
        if not all(map(_is_number_type, set(map(type, value)))):
            return None
        floats = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if floats.ndim != 1 or np.count_nonzero(np.isfinite(floats)) != floats.size:
        return None
    return floats

