"""CSV ingestion: a price series onto a strictly regular grid, horizon normalized to 1.

Accepted input: UTF-8, comma separated, a header row naming the columns (the
timestamp and price columns default to the first two; a repeated name means
its last column).  Fields may be quoted with ``"``; LF and CRLF endings are
read and empty lines skipped.  There are no comment lines: a ``#`` line is a
data row that fails to parse.  A timestamp is a number (any unit) or an
ISO-8601 date-time as ``datetime.fromisoformat`` reads it, ``Z`` meaning UTC;
naive stamps are UTC and calendar stamps map to epoch seconds; a column
that mixes numbers and calendar stamps is an error.  Prices are floats; a
non-finite price or timestamp is an error.  ``dedup_policy`` rejects
repeated or decreasing timestamps, or sorts and keeps the first of each
repeat; ``gap_policy`` rejects any missing step, or forward fills a single
one.  Every spacing must be a whole number of steps, and the grid needs at
least 2 of them.

Errors are ``IngestError`` with one line naming the file and the 1-based data
row (empty lines not counted).  The two columns are converted whole by numpy,
the ISO-8601 stamps by its datetime64 parser on their ASCII bytes once every
distinct shape is one ``datetime.fromisoformat`` reads alike; the per-row
reader runs only on a file this bulk pass rejects, returning the same values
or raising the error that names the first bad row.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Tuple

import numpy as np

from .model import GridSpec, SampledPath, positive

__all__ = ["IngestRules", "IngestReport", "IngestError", "load_spot_csv"]

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

GAP_REJECT = "reject"
GAP_FFILL1 = "ffill1"
DEDUP_REJECT = "reject"
DEDUP_KEEP_FIRST = "keep-first"

# The ISO-8601 shapes (digits written as 9) that the bulk pass converts: up
# to the zone, each is read the same way by datetime.fromisoformat on every
# supported Python (3.10 takes fractions of 3 or 6 digits only) and by
# numpy's datetime64 parser, which rejects the same out-of-range fields but year 0
_ISO_SHAPE = re.compile(r"9999-99-99(?:[T ]99(?::99(?::99(?:\.999(?:999)?)?)?)?(?P<zone>Z|[+-]99:99)?)?")
# one more character than the longest such stamp, so a truncated field shows
_WIDTH = 33
# microsecond counts below 2**53 convert to float exactly, so dividing by 1e6
# rounds as datetime.timestamp() does
_EXACT_US = 2**53


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class IngestRules:
    """How to turn a raw CSV into a regular grid.

    ``timestamp_column`` / ``price_column`` default to the first and second
    header fields.  ``expected_step`` is in the timestamp unit and is
    inferred from the data (modal spacing) when omitted.
    """

    timestamp_column: Optional[str] = None
    price_column: Optional[str] = None
    expected_step: Optional[float] = None
    gap_policy: str = GAP_REJECT
    dedup_policy: str = DEDUP_REJECT

    def __post_init__(self):
        if self.expected_step is not None:
            positive("expected_step", self.expected_step)
        if self.gap_policy not in (GAP_REJECT, GAP_FFILL1):
            raise ValueError(f"unknown gap policy {self.gap_policy!r}")
        if self.dedup_policy not in (DEDUP_REJECT, DEDUP_KEEP_FIRST):
            raise ValueError(f"unknown dedup policy {self.dedup_policy!r}")


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    n: int
    step: float
    span: float
    calendar_timestamps: bool  # True when timestamps were ISO-8601 dates
    filled_timestamps: tuple = field(default_factory=tuple)
    duplicates_dropped: int = 0

    @property
    def span_years(self) -> Optional[float]:
        return self.span / SECONDS_PER_YEAR if self.calendar_timestamps else None


def _parse_timestamp(text: str) -> Tuple[float, bool]:
    """Timestamp as (numeric value, was_calendar); raises ValueError.  ISO-8601 maps to epoch seconds."""
    try:
        return float(text), False
    except ValueError:
        pass
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp(), True


def _read_rows(path: str, ts_idx: int, px_idx: int):
    """(times, prices, stamps as UTF-8 bytes, calendar) row by row; the reference for ``_read_columns``."""
    times, prices, texts, calendar = [], [], [], False
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # the header
        for row in filter(None, reader):  # csv yields [] for an empty line
            row += [""] * (max(ts_idx, px_idx) + 1 - len(row))  # a short row's missing fields
            text = row[ts_idx].strip()
            try:
                stamp, is_cal = _parse_timestamp(text)
            except ValueError:
                raise IngestError(f"{path}: cannot parse timestamp {text!r} at row {len(times) + 1}") from None
            try:
                price = float(row[px_idx])
            except ValueError:
                raise IngestError(f"{path}: bad price {row[px_idx]!r} at row {len(times) + 1} (t={text})") from None
            if times and is_cal != calendar:
                kind = "calendar" if is_cal else "numeric"
                raise IngestError(f"{path}: {kind} timestamp {text!r} at row {len(times) + 1} differs in kind from row 1")
            calendar = is_cal
            times.append(stamp)
            prices.append(price)
            texts.append(text.encode())
    return np.asarray(times, dtype=float), np.asarray(prices, dtype=float), texts, calendar


def _iso_seconds(stamps: np.ndarray) -> Optional[np.ndarray]:
    """Epoch seconds of a column of ISO-8601 stamps, or None when a stamp needs the per-row parser.

    Each distinct shape of the column (digits written as 9) must be one of
    ``_ISO_SHAPE``'s.  numpy's datetime64 parser then reads each stamp's bytes
    up to the zone, rejecting an out-of-range field as fromisoformat does,
    and a ``±hh:mm`` offset is read from its four digits.
    """
    codes = stamps.view(np.uint8).reshape(stamps.size, stamps.itemsize)
    shapes = codes - 48  # wraps, so the digits are the only codes left below 10
    np.maximum(shapes, 9, out=shapes)
    shapes += 48
    shapes = shapes.view(stamps.dtype).ravel()
    micros = np.empty(stamps.size, dtype=np.int64)
    kinds = {shapes[0], *np.unique(shapes[shapes != shapes[0]]).tolist()}
    for shape in kinds:
        match = _ISO_SHAPE.fullmatch(shape.decode("latin-1"))
        if match is None:
            return None
        rows = shapes == shape if len(kinds) > 1 else slice(None)
        block = codes[rows]
        local = match.start("zone") if match.group("zone") else len(shape)
        try:  # numpy warns on a zone, so it never sees one
            when = block[:, :local].view(f"S{local}").astype("datetime64[us]").view(np.int64).ravel()
        except ValueError:
            return None
        if match.group("zone") not in (None, "Z"):
            digits = block[:, local + 1 :].astype(np.int64) - ord("0")  # h, h, the colon, m, m
            hours, minutes = digits[:, 0] * 10 + digits[:, 1], digits[:, 3] * 10 + digits[:, 4]
            if hours.max() > 23 or minutes.max() > 59:
                return None
            offset = (hours * 60 + minutes) * 60_000_000
            when -= np.where(block[:, local] == ord("-"), -offset, offset)
        micros[rows] = when
    # this also declines every stamp more than about 285 years from 1970: year
    # 0, which numpy reads, and a year-1 stamp whose offset moves it into year 0
    if np.abs(micros).max() >= _EXACT_US:
        return None
    return micros / 1e6


def _read_columns(path: str, ts_idx: int, px_idx: int, header_lines: int):
    """``_read_rows``'s result with whole-column conversions, or None when the file needs that reader.

    The stamps are read as bytes, so a non-ASCII stamp makes numpy decline.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's notes on empty lines and files
            data = np.loadtxt(
                path, dtype=[("t", f"S{_WIDTH}"), ("p", float)], comments=None, delimiter=",", quotechar='"',
                usecols=(ts_idx, px_idx), skiprows=header_lines, ndmin=1, encoding="utf-8",
            )
    except ValueError:
        return None
    width = int(np.char.str_len(data["t"]).max(initial=1))
    if width >= _WIDTH:
        return None
    stamps, prices = data["t"].astype(f"S{width}"), data["p"].copy()
    del data  # the wide rows go before the stamps are converted: they would set the peak memory
    try:
        return stamps.astype(float), prices, stamps, False
    except ValueError:
        seconds = _iso_seconds(stamps)
    return None if seconds is None else (seconds, prices, stamps, True)


def _infer_step(diffs: np.ndarray) -> float:
    """Modal spacing of strictly increasing timestamps, in multiples of the smallest.

    A spacing under a quarter of the (lower) median is a near-duplicate stamp,
    not a step, so it sets no multiple; a file that loads has none, since all
    its spacings are one or two steps.  A spacing that is no finite multiple
    of the smallest gives a candidate of 0 or NaN, which is never the step.
    """
    usual = diffs[diffs >= np.quantile(diffs, 0.5, method="lower") / 4]
    values, counts = np.unique(usual / np.round(usual / usual.min()), return_counts=True)
    return float(values[np.argmax(counts * (values > 0))])


def load_spot_csv(path: str, rules: IngestRules) -> Tuple[SampledPath, IngestReport]:
    """Load a price series onto a strictly regular grid, horizon normalized to 1.

    Duplicated timestamps follow ``dedup_policy``; a single missing step is
    forward filled under ``GAP_FFILL1`` and anything larger is an
    error naming the first missing timestamp.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:  # an Excel file's byte-order mark is not a name
        reader = csv.reader(handle)
        fields = next(reader, None)
        header_lines = reader.line_num
    if not fields:
        raise IngestError(f"{path}: missing CSV header")
    column = {name: i for i, name in enumerate(fields)}  # a repeated name: its last column
    ts_col = rules.timestamp_column or fields[0]
    px_col = rules.price_column or (fields[1] if len(fields) > 1 else None)
    if ts_col not in column:
        raise IngestError(f"{path}: no timestamp column {ts_col!r}")
    if px_col not in column:
        raise IngestError(f"{path}: no price column {px_col!r}")
    read = _read_columns(path, column[ts_col], column[px_col], header_lines)
    times, prices, texts, calendar = read or _read_rows(path, column[ts_col], column[px_col])

    rows_read = times.size
    if rows_read < 3:
        raise IngestError(f"{path}: need at least 3 rows, got {rows_read}")
    rows = np.arange(rows_read)  # each kept value's 0-based data row

    def text(row: int) -> str:  # a row's timestamp as written; both readers keep its bytes
        return texts[row].decode()

    def where(i: int) -> str:
        row = rows[i]
        return f"row {row + 1} (t={float(times[i])!r}" + (f", {text(row)!r})" if calendar else ")")

    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise IngestError(f"{path}: non-finite timestamp {text(bad[0])!r} at row {bad[0] + 1}")

    if rules.dedup_policy == DEDUP_REJECT:
        bad = np.flatnonzero(times[1:] <= times[:-1])
        if bad.size:
            raise IngestError(f"{path}: non-monotone timestamp at {where(bad[0] + 1)}")
        dropped = 0
    else:
        order = np.argsort(times, kind="stable")
        keep = np.concatenate([[True], times[order[1:]] > times[order[:-1]]])
        rows = order[keep]
        times, prices = times[rows], prices[rows]
        dropped = rows_read - rows.size
        if times.size < 2:
            raise IngestError(f"{path}: {times.size} distinct timestamps make a grid of fewer than 2 steps")
    bad = np.flatnonzero(~np.isfinite(prices))
    if bad.size:
        raise IngestError(f"{path}: non-finite price {float(prices[bad[0]])!r} at {where(bad[0])}")

    with np.errstate(all="ignore"):  # a spacing past the float range or no finite multiple of the step: irregular
        diffs = np.diff(times)
        step = rules.expected_step if rules.expected_step is not None else _infer_step(diffs)
        ratio = diffs / step
        k = np.rint(ratio)
        irregular = ~(np.abs(ratio - k) <= 1e-6 * np.maximum(k, 1)) | (k == 0)  # under half a step: no multiple
    fill = (k == 2) & (rules.gap_policy == GAP_FFILL1)
    bad = np.flatnonzero(irregular | ((k != 1) & ~fill))
    if bad.size:
        i = bad[0]
        if irregular[i]:
            what = f"irregular spacing {float(diffs[i])!r} after {where(i)}; expected multiples of {float(step)!r}"
        else:
            # .15g prints every count below 10^15 as int() does, and a larger one in 6 or 7 characters
            what = f"gap of {k[i]:.15g} steps after {where(i)}; first missing timestamp {float(times[i] + step)!r}"
        raise IngestError(f"{path}: {what}")

    values = np.repeat(prices, np.append(k, 1).astype(np.intp))  # a filled step repeats its predecessor
    n = values.size - 1
    if n < 2:
        raise IngestError(f"{path}: {times.size} distinct timestamps make a grid of fewer than 2 steps")
    filled = tuple((times[:-1][fill] + step).tolist())
    span = float(times[-1] - times[0])
    report = IngestReport(rows_read, n, float(step), span, calendar, filled, dropped)
    return SampledPath(GridSpec(n=n, horizon=1.0), values), report
