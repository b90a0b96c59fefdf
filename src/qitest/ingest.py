"""CSV ingestion with row-level validation diagnostics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .data import Dataset
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class InputSpec:
    """How to read a delimited file into a dataset.

    Columns are named when the file has a header, otherwise 0-based indices
    (as strings or ints). A missing event column means every exit is treated
    as an observed failure (uncensored mode). ``group_column`` and
    ``group_value``, given together, restrict to matching rows. The
    delimiter is one character.
    """

    path: str
    entry_column: "str | int" = "entry"
    exit_column: "str | int" = "exit"
    event_column: "str | int | None" = None
    group_column: "str | int | None" = None
    group_value: str | None = None
    delimiter: str = ","
    header: bool = True


@dataclass
class IngestReport:
    """What happened while reading a file."""

    n_rows: int = 0
    n_used: int = 0
    tied_entries: int = 0
    tied_exits: int = 0
    uncensored_mode: bool = False
    warnings: list = field(default_factory=list)


def _column(key, names: dict) -> tuple:
    """(key, position): a header name wins, otherwise ``key`` read as a 0-based index."""
    if str(key) in names:
        return key, names[str(key)]
    try:
        return key, int(key)
    except (TypeError, ValueError):  # TypeError: the column is not used (None)
        return key, None


def _cell(row, column, row_no):
    key, pos = column
    try:
        return row[pos]
    except (IndexError, TypeError):  # TypeError: no such header name (None)
        raise ParseError(f"row {row_no}: missing column {key!r}") from None


def ingest_csv(spec: InputSpec) -> tuple[Dataset, IngestReport]:
    """Read and validate a delimited file.

    Each column is resolved once: a header name wins, otherwise an integer
    (or an integer string) is a 0-based index. Rows are numbered by their
    line in the file. Raises ParseError for a delimiter that is not one
    character, a group column without a group value or the reverse, and
    malformed rows, and ValidationError (with the row number) when a row has
    a non-finite time or entry >= exit.
    """
    if not (isinstance(spec.delimiter, str) and len(spec.delimiter) == 1):
        raise ParseError(f"the delimiter must be one character, got {spec.delimiter!r}")
    if (spec.group_column is None) != (spec.group_value is None):
        raise ParseError("a group column and a group value go together: give both or neither")
    report = IngestReport(uncensored_mode=spec.event_column is None)
    entry, exit_, event = [], [], []
    try:
        with open(spec.path, newline="") as fh:
            reader = csv.reader(fh, delimiter=spec.delimiter)
            # a repeated header name means its last column, as with csv.DictReader
            names = {name: i for i, name in enumerate(next(reader, []))} if spec.header else {}
            entry_col, exit_col, event_col, group_col = (
                _column(key, names) for key in
                (spec.entry_column, spec.exit_column, spec.event_column, spec.group_column))
            for row in reader:
                if not row:
                    continue
                row_no = reader.line_num
                report.n_rows += 1
                if spec.group_value is not None and _cell(row, group_col, row_no) != spec.group_value:
                    continue
                try:
                    e = float(_cell(row, entry_col, row_no))
                    x = float(_cell(row, exit_col, row_no))
                except ValueError:
                    raise ParseError(f"row {row_no}: non-numeric entry/exit value") from None
                if spec.event_column is None:
                    d = 1
                else:
                    raw = _cell(row, event_col, row_no).strip()
                    if raw not in ("0", "1"):
                        raise ParseError(f"row {row_no}: event flag must be 0 or 1, got {raw!r}")
                    d = int(raw)
                if not (math.isfinite(e) and math.isfinite(x)):
                    raise ValidationError(f"row {row_no}: entry and exit must be finite")
                if not e < x:
                    raise ValidationError(f"row {row_no}: entry ({e}) must be strictly below exit ({x})")
                entry.append(e)
                exit_.append(x)
                event.append(d)
    except OSError as exc:
        raise ParseError(f"cannot read {spec.path}: {exc}") from exc
    if not entry:
        raise ValidationError(f"{spec.path}: no usable rows")
    data = Dataset(entry, exit_, event)
    report.n_used = data.n
    report.tied_entries, report.tied_exits = data.tie_counts()
    if report.tied_entries or report.tied_exits:
        report.warnings.append(
            f"ties present ({report.tied_entries} surplus tied entries, "
            f"{report.tied_exits} surplus tied exits); tied pairs contribute "
            "zero through the sign and rank kernels"
        )
    return data, report
