"""Read a results CSV back into rows, for the tests that check its round trip.

The package only writes the format (:func:`queryvote.emit_csv`); no
production code reads it, so the reader lives with the tests.
"""

import csv
from pathlib import Path
from typing import get_type_hints

from queryvote import ResultRow
from queryvote.experiments import CSV_COLUMNS

_COLUMN_TYPES = tuple(get_type_hints(ResultRow)[name] for name in CSV_COLUMNS)


def read_csv_rows(path) -> list[ResultRow]:
    try:
        with Path(path).open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if tuple(header or ()) != CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected CSV header {header}")
            return [
                ResultRow(*(cast(value) for cast, value in zip(_COLUMN_TYPES, record, strict=True)))
                for record in reader
            ]
    except OSError as err:
        raise OSError(f"cannot read results from {path}: {err}") from err
