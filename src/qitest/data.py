"""Core data container for left-truncated (optionally right-censored) samples."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError


class Observation(NamedTuple):
    """One subject: entry (truncation) time, observed exit time, event flag.

    ``event`` is 1 when the exit is an observed failure and 0 when censored.
    """

    entry: float
    exit: float
    event: int = 1


def _check_rows(bad: np.ndarray, rule: str) -> None:
    """Raise ValidationError naming the first rows where ``bad`` is set."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise ValidationError(f"{rule} at row(s) {rows[:10].tolist()}"
                              + ("..." if rows.size > 10 else ""))


class Dataset:
    """Immutable column store of observations.

    Every subject must have finite times with entry < exit (the truncation
    condition) and an event flag of exactly 0 or 1; the constructor enforces
    this.
    """

    def __init__(self, entry, exit, event=None):
        entry = np.asarray(entry, dtype=float)
        exit = np.asarray(exit, dtype=float)
        event = np.ones(entry.shape) if event is None else np.asarray(event, dtype=float)
        if entry.ndim != 1 or entry.shape != exit.shape or entry.shape != event.shape:
            raise ValidationError("entry, exit and event must be 1-d arrays of equal length")
        if entry.size == 0:
            raise ValidationError("dataset must contain at least one observation")
        _check_rows(~(np.isfinite(entry) & np.isfinite(exit)), "entry and exit must be finite")
        _check_rows(~(entry < exit), "entry < exit violated")
        # checked before the cast, which would turn 0.5 or 257 into a valid flag
        _check_rows(~np.isin(event, (0, 1)), "event flags must be 0 or 1")
        event = event.astype(np.int8)
        for a in (entry, exit, event):
            a.flags.writeable = False
        self.entry = entry
        self.exit = exit
        self.event = event

    @property
    def n(self) -> int:
        return self.entry.size

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Observation:
        return Observation(float(self.entry[i]), float(self.exit[i]), int(self.event[i]))

    def __iter__(self):
        for i in range(self.n):
            yield self[i]

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    @property
    def censored_fraction(self) -> float:
        return 1.0 - self.n_events / self.n

    def tie_counts(self) -> tuple[int, int]:
        """(surplus tied entries, surplus tied exits): n minus distinct values."""
        return (self.n - np.unique(self.entry).size, self.n - np.unique(self.exit).size)

    def __repr__(self):
        return f"Dataset(n={self.n}, events={self.n_events})"
