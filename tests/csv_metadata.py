"""Reader for the CSV files the program writes: the inverse of
``reuselab.analysis.write_csv_with_metadata``, which only the tests need."""

from __future__ import annotations

import csv
import io
import json

from reuselab.errors import DegenerateInputError


def read_csv_with_metadata(path) -> tuple[dict, list, list]:
    """Inverse of write_csv_with_metadata: (metadata, header, rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise DegenerateInputError("missing JSON metadata line")
    metadata = json.loads(lines[0][2:])
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    parsed = list(reader)
    if not parsed:
        raise DegenerateInputError("missing CSV header")
    return metadata, parsed[0], parsed[1:]
