"""CSV reading and atomic file replacement, shared by every input reader and artifact writer.

It imports neither numpy nor the model code at import time, so reading or
writing plain CSV through it loads neither; only `read_table` imports numpy.
"""

from __future__ import annotations

import csv
import os
import warnings
from pathlib import Path
from typing import Iterator

from .errors import ParseError


def read_csv(path: Path | str) -> Iterator[tuple[int, list[str]]]:
    """Yield `(1, header)`, then `(lineno, fields)` for each non-blank row, one at a time.

    The file is UTF-8, with or without a byte-order mark, with LF or CRLF line
    ends.  `lineno` is the file line the row starts on.  A row with no fields,
    or one blank field, is skipped; every other row must have as many fields
    as the header.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        yield 1, header
        lineno = reader.line_num + 1
        for row in reader:
            if row and (len(row) > 1 or row[0].strip()):
                if len(row) != len(header):
                    raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row
            lineno = reader.line_num + 1  # a quoted field may span lines


def read_table(path: Path | str, dtype):
    """Parse the rows below a CSV file's header line in one `np.loadtxt` pass, or return None.

    `dtype` is structured, one field per column, with text columns as
    `object` (a fixed width would truncate them silently).  numpy's C reader
    knows no quoting and skips only empty lines, and its float parse gives
    the bits `float` gives while refusing more (`1_0`, non-ASCII digits), so
    `read_csv` reads any table it returns to the same values.  None means
    that numpy refused the file or warned (a file without rows), or that a
    text field or the header line holds a quote or a NUL, which `read_csv`
    reads otherwise or refuses (a quoted header field may span lines that
    numpy reads as rows): the caller's row loop then reads the file and
    names its fault.
    """
    import numpy as np

    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = handle.readline()
    if '"' in header or "\x00" in header:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                encoding="utf-8-sig", quotechar=None, ndmin=1,
            )
    except (ValueError, OverflowError, Warning):
        return None
    for name in table.dtype.names:
        if table.dtype[name] == object:
            text = "".join(table[name].tolist())
            if '"' in text or "\x00" in text:
                return None
    return table


def write_atomic(path: Path | str, data: str | bytes) -> None:
    """Write `data` (text as UTF-8) to a temp file beside `path`, then rename it over `path`.

    The file gets the mode a plain `open` gives: 0o666 less the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
