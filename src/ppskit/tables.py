"""CSV tables: the one reader and writer behind every ppskit file.

A table is optional ``# key=value`` metadata lines, a header row and one
row per line, in UTF-8.  Malformed rows raise :class:`InvalidInputError`
naming the file and their line in it.
"""

from __future__ import annotations

import csv
import math
import re

from .errors import InvalidInputError


def parse_int(text: str) -> int:
    """Exact integer from decimal digits of any size, or from a float
    literal that is integral and at most 2^53 in magnitude (where every
    integer is exact); anything else raises ``ValueError``."""
    text = text.strip()
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return int(text)
    value = float(text)
    if not (math.isfinite(value) and value.is_integer() and abs(value) <= 2**53):
        raise ValueError(f"not an exact integer: {text!r}")
    return int(value)


def parse_finite(text: str) -> float:
    """A float that is neither NaN nor infinite; anything else raises
    ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _cell(value, float_format: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, float_format) if isinstance(value, float) else str(value)


def write_table(path, header, rows, metadata=None, float_format=".17g") -> None:
    """Write the ``# key=value`` metadata lines, the header, then the rows."""
    with open(path, "w", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value, float_format) for value in row] for row in rows)


def read_table(path, header, what: str, parse, ordered: bool = False) -> tuple[list, dict]:
    """Rows mapped through ``parse`` (given a column-name dict), and metadata.

    The header holds exactly the ``header`` columns (in order if
    ``ordered``).  Blank lines are skipped and ``#`` lines are metadata.
    A row that ``parse`` rejects with ``TypeError`` or ``ValueError``, or
    that has the wrong number of cells, raises :class:`InvalidInputError`
    with its line number in the file.  Every such error starts with the
    path (as the ``OSError`` of a file that cannot be opened names it),
    since a run may read several tables.
    """
    metadata: dict = {}
    line_no = 0

    def body(fh):
        nonlocal line_no
        for line_no, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                yield line
            elif "=" in line:
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()

    parsed = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = (row for row in csv.reader(body(fh)) if row)
            names = next(rows, [])
            if (names != list(header)) if ordered else (sorted(names) != sorted(header)):
                raise InvalidInputError(
                    f"{path}: {what} CSV header must be {','.join(header)}, got {names}"
                )
            for row in rows:
                if len(row) != len(names):
                    raise ValueError(f"{len(row)} cells for {len(names)} columns")
                parsed.append(parse(dict(zip(names, row))))
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: {what} CSV is not UTF-8 text: {exc}") from None
        except (csv.Error, TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"{path}: malformed {what} CSV row at line {line_no}: {exc}"
            ) from None
    if not parsed:
        raise InvalidInputError(f"{path}: {what} CSV is empty")
    return parsed, metadata
