"""Every file the package writes, and the one CSV format of its tables.

Files are written to a temporary name and renamed into place, so a failure
leaves no partial file.  A table is a header row and ``\\n``-ended rows as
``csv`` writes them.  Rows hold Python ints, floats and strings (pass arrays
as ``.tolist()``): ``csv`` writes a float as its ``repr``, which reads back to
the same bits.  A table of numbers only is written by ``write_numbers`` from
its columns, in the same bytes, each block of rows formatted into one string.
"""

import csv
import os

_NUMBER_BLOCK = 1 << 12  # rows held as Python objects at a time by write_numbers


def atomic_write(path: str, write_fn) -> None:
    """Run write_fn against a temp file, then rename into place."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_through(path: str, fill) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", newline="") as fh:
            fill(fh)

    atomic_write(path, write)


def write_text(path: str, text: str) -> None:
    _write_through(path, lambda fh: fh.write(text))


def write_rows(fh, header, rows) -> None:
    """The table ``header`` + ``rows`` on the open text file ``fh``."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def write_csv(path: str, header, rows) -> None:
    """The table ``header`` + ``rows`` at ``path``, written atomically."""
    _write_through(path, lambda fh: write_rows(fh, header, rows))


def write_numbers(path: str, header, columns) -> None:
    """The table ``header`` + one row per entry of the equal-length 1-D arrays ``columns``, written atomically.

    The arrays hold ints or floats, and each number is written as ``csv``
    writes it, its ``repr``; ``_NUMBER_BLOCK`` rows at a time are held as
    Python objects, formatted and joined into one write.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"

    def fill(fh) -> None:
        write_rows(fh, header, ())
        for i in range(0, len(columns[0]), _NUMBER_BLOCK):
            rows = zip(*(col[i : i + _NUMBER_BLOCK].tolist() for col in columns))
            fh.write("".join([line % row for row in rows]))

    _write_through(path, fill)
