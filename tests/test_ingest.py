"""CSV ingestion: accepted input, error messages and bit-exact round trips.

The tests use the names ``spikelab.cli`` exposes (``load_spot_csv``,
``IngestRules``, ``IngestError`` and the policy constants), so they hold for
any module layout behind the command line.
"""

import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.cli import (
    DEDUP_KEEP_FIRST,
    GAP_FFILL1,
    IngestError,
    IngestRules,
    dispatch,
    load_spot_csv,
)

HOURLY = ["2016-01-01T00:00:00,30.0", "2016-01-01T01:00:00,31.5", "2016-01-01T02:00:00,29.0"]


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def load(tmp_path, text, **rules):
    return load_spot_csv(write(tmp_path, text), IngestRules(**rules))


class TestRejected:
    def test_missing_header(self, tmp_path):
        with pytest.raises(IngestError, match="missing CSV header"):
            load(tmp_path, "")

    @pytest.mark.parametrize(
        "rules, message",
        [
            ({"timestamp_column": "when"}, "no timestamp column 'when'"),
            ({"price_column": "px"}, "no price column 'px'"),
        ],
    )
    def test_missing_named_column(self, tmp_path, rules, message):
        with pytest.raises(IngestError, match=message):
            load(tmp_path, "t,price\n" + "\n".join(HOURLY) + "\n", **rules)

    def test_single_column_has_no_price(self, tmp_path):
        with pytest.raises(IngestError, match="no price column"):
            load(tmp_path, "t\n0\n1\n2\n")

    def test_fewer_than_three_rows(self, tmp_path):
        with pytest.raises(IngestError, match="need at least 3 rows, got 2"):
            load(tmp_path, "t,price\n" + "\n".join(HOURLY[:2]) + "\n")

    def test_unparseable_timestamp(self, tmp_path):
        with pytest.raises(IngestError, match="cannot parse timestamp 'yesterday'"):
            load(tmp_path, "t,price\n0,1.0\nyesterday,2.0\n2,3.0\n")

    def test_bad_price(self, tmp_path):
        with pytest.raises(IngestError, match="bad price 'n/a'"):
            load(tmp_path, "t,price\n0,1.0\n1,n/a\n2,3.0\n")

    def test_short_row(self, tmp_path):
        with pytest.raises(IngestError, match="bad price"):
            load(tmp_path, "t,price\n0,1.0\n1\n2,3.0\n")

    def test_comment_line_is_a_bad_row(self, tmp_path):
        with pytest.raises(IngestError, match="cannot parse timestamp '# hourly prices'"):
            load(tmp_path, "t,price\n# hourly prices\n0,1.0\n1,2.0\n2,3.0\n")

    def test_number_in_a_calendar_column(self, tmp_path):
        rows = HOURLY[:2] + ["1451613600,3.0"]
        with pytest.raises(IngestError, match=r"numeric timestamp '1451613600' at row 3 differs in kind from row 1"):
            load(tmp_path, "t,price\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize(
        "stamps, rules, count",
        [
            ("5,5,5", {}, 1),
            ("5,5,5", {"expected_step": 1.0}, 1),
            ("5,5,6", {}, 2),
            ("6,5,5,6", {"gap_policy": GAP_FFILL1}, 2),
        ],
    )
    def test_too_few_distinct_timestamps_after_dedup(self, tmp_path, stamps, rules, count):
        text = "t,price\n" + "".join(f"{t},{i}.0\n" for i, t in enumerate(stamps.split(",")))
        with pytest.raises(IngestError, match=f"data.csv: {count} distinct timestamps make a grid of fewer than 2 steps"):
            load(tmp_path, text, dedup_policy=DEDUP_KEEP_FIRST, **rules)

    def test_two_distinct_timestamps_filled_to_two_steps(self, tmp_path):
        series, report = load(
            tmp_path, "t,price\n0,1.0\n0,9.0\n2,3.0\n", dedup_policy=DEDUP_KEEP_FIRST, gap_policy=GAP_FFILL1, expected_step=1.0
        )
        assert np.array_equal(series.values, [1.0, 1.0, 3.0])
        assert (report.n, report.duplicates_dropped, report.filled_timestamps) == (2, 1, (1.0,))

    def test_numpy_only_calendar_forms_rejected(self, tmp_path):
        # numpy reads these as dates; datetime.fromisoformat does not
        for stamp in ("now", "2016-01", "+2016-01-01", "2016-01-01T00:00:00.", "0000-01-01T00:00:00"):
            with pytest.raises(IngestError, match="cannot parse timestamp"):
                load(tmp_path, "t,price\n" + "\n".join(HOURLY) + f"\n{stamp},1.0\n")


class TestAccepted:
    def test_quoted_fields(self, tmp_path):
        text = 't,price\n"2016-01-01T00:00:00","30.0"\n"2016-01-01T01:00:00",31.5\n2016-01-01T02:00:00,"29.0"\n'
        series, report = load(tmp_path, text)
        assert np.array_equal(series.values, [30.0, 31.5, 29.0])
        assert report.calendar_timestamps and report.span == 7200.0

    def test_crlf_line_endings(self, tmp_path):
        series, report = load(tmp_path, "t,price\r\n" + "\r\n".join(HOURLY) + "\r\n")
        assert np.array_equal(series.values, [30.0, 31.5, 29.0])
        assert report.rows_read == 3

    def test_blank_lines_skipped(self, tmp_path):
        series, report = load(tmp_path, "t,price\n\n" + "\n\n".join(HOURLY) + "\n\n")
        assert np.array_equal(series.values, [30.0, 31.5, 29.0])
        assert report.rows_read == 3

    def test_zone_suffixes_and_space_separator(self, tmp_path):
        rows = [
            "2016-01-01T00:00:00Z,1.0",
            "2016-01-01T02:00:00+01:00,2.0",  # 01:00 UTC
            "2016-01-01 02:00:00,3.0",
            "2015-12-31T22:00:00-05:00,4.0",  # 03:00 UTC
        ]
        series, report = load(tmp_path, "t,price\n" + "\n".join(rows) + "\n")
        assert np.array_equal(series.values, [1.0, 2.0, 3.0, 4.0])
        assert report.calendar_timestamps
        assert (report.step, report.span) == (3600.0, 3 * 3600.0)

    def test_fractional_seconds(self, tmp_path):
        rows = ["2016-01-01T00:00:00.25,1.0", "2016-01-01T00:00:00.5,2.0", "2016-01-01T00:00:00.750000,3.0"]
        _, report = load(tmp_path, "t,price\n" + "\n".join(rows) + "\n")
        assert (report.step, report.span) == (0.25, 0.5)

    def test_iso_forms_only_fromisoformat_reads(self, tmp_path):
        # compact and week dates, a comma before the fraction, a lower-case separator
        rows = ["20160101T000000,1.0", "2016-01-01t01:00:00,2.0", '"2016-01-01T02:00:00,0",3.0', "2015-W53-5T03:00,4.0"]
        _, report = load(tmp_path, "t,price\n" + "\n".join(rows) + "\n")
        assert report.calendar_timestamps
        assert (report.step, report.span) == (3600.0, 3 * 3600.0)


    @pytest.mark.parametrize(
        "rows",
        [HOURLY, [f"0001-01-01T0{h}:00:00+01:00,{h}.0" for h in range(3)]],
        ids=["bulk-reader", "row-reader"],
    )
    @pytest.mark.parametrize("time_col", [None, "timestamp"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, rows, time_col):
        text = "timestamp,price\n" + "\n".join(rows) + "\n"
        marked = write(tmp_path, "\ufeff" + text, "marked.csv")
        assert open(marked, "rb").read(3) == b"\xef\xbb\xbf"
        series, report = load_spot_csv(marked, IngestRules(time_col))
        plain_series, plain_report = load_spot_csv(write(tmp_path, text, "plain.csv"), IngestRules(time_col))
        assert series.values.tobytes() == plain_series.values.tobytes()
        assert report == plain_report

    def test_cli_reads_a_byte_order_marked_file_by_column_name(self, tmp_path, capsys):
        text = "timestamp,price\n" + "".join(f"{t},{30.0 + (t * 7) % 5}\n" for t in range(40))
        outputs = []
        for name, prefix in (("marked.csv", "\ufeff"), ("plain.csv", "")):
            assert dispatch(["estimate", "--in", write(tmp_path, prefix + text, name), "--time-col", "timestamp", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_mixed_numeric_and_calendar_column(self, tmp_path):
        # a column is read as numbers or as calendar stamps, never as both
        with pytest.raises(IngestError, match=r"data.csv: calendar timestamp '1970-01-01T00:00:01Z' at row 2 differs"):
            load(tmp_path, "t,price\n0,1.0\n1970-01-01T00:00:01Z,2.0\n2,3.0\n")

    def test_keep_first_then_forward_fill(self, tmp_path):
        text = "t,price\n0,1.0\n1,2.0\n1,99.0\n3,4.0\n4,5.0\n"
        series, report = load(tmp_path, text, dedup_policy=DEDUP_KEEP_FIRST, gap_policy=GAP_FFILL1)
        assert np.array_equal(series.values, [1.0, 2.0, 2.0, 4.0, 5.0])
        assert report.duplicates_dropped == 1
        assert report.filled_timestamps == (2.0,)
        assert (report.rows_read, report.n) == (5, 4)

    def test_unsorted_keep_first_sorts(self, tmp_path):
        text = "t,price\n2,3.0\n0,1.0\n1,2.0\n0,7.0\n"
        series, report = load(tmp_path, text, dedup_policy=DEDUP_KEEP_FIRST)
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])
        assert report.duplicates_dropped == 1


class TestMessages:
    def test_gap_message_prints_plain_numbers(self, tmp_path):
        with pytest.raises(IngestError) as info:
            load(tmp_path, "t,price\n0,1.0\n1,2.0\n3,4.0\n")
        message = str(info.value)
        assert "gap of 2 steps after row 2 (t=1.0); first missing timestamp 2.0" in message
        assert "np." not in message

    def test_irregular_message_prints_plain_numbers(self, tmp_path):
        with pytest.raises(IngestError) as info:
            load(tmp_path, "t,price\n0,1.0\n1,2.0\n2.5,3.0\n", expected_step=1.0)
        message = str(info.value)
        assert "irregular spacing 1.5 after row 2 (t=1.0)" in message
        assert "np." not in message

    def test_calendar_gap_names_row_and_text(self, tmp_path):
        rows = HOURLY[:2] + ["2016-01-01T03:00:00,29.0"]
        with pytest.raises(IngestError, match="missing") as info:
            load(tmp_path, "t,price\n" + "\n".join(rows) + "\n")
        message = str(info.value)
        assert "after row 2 (t=1451610000.0, '2016-01-01T01:00:00')" in message
        assert "np." not in message

    def test_non_monotone_names_row(self, tmp_path):
        with pytest.raises(IngestError, match=r"non-monotone timestamp at row 3 \(t=1.0\)"):
            load(tmp_path, "t,price\n0,1.0\n2,2.0\n1,3.0\n3,4.0\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_price_names_row_and_timestamp(self, tmp_path, bad):
        rows = HOURLY[:2] + [f"2016-01-01T02:00:00,{bad}", "2016-01-01T03:00:00,1.0"]
        expected = f"non-finite price {bad} at row 3 \\(t=1451613600.0, '2016-01-01T02:00:00'\\)"
        with pytest.raises(IngestError, match=expected):
            load(tmp_path, "t,price\n" + "\n".join(rows) + "\n")

    def test_non_finite_timestamp_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="non-finite timestamp 'nan' at row 2"):
            load(tmp_path, "t,price\n0,1.0\nnan,2.0\n2,3.0\n")

    @pytest.mark.parametrize("step", [float("inf"), float("nan"), 0.0])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match=f"^expected_step must be positive and finite, got {step}$"):
            IngestRules(expected_step=step)

    @pytest.mark.parametrize(
        "text, rules, message",
        [
            # 1 / 1e-320 overflows: the spacing is no finite multiple of the step
            (
                "t,price\n0,1.0\n1,2.0\n2,3.0\n",
                {"expected_step": 1e-320},
                r"irregular spacing 1.0 after row 1 \(t=0.0\); expected multiples of 1e-320$",
            ),
            # an inferred step from a subnormal spacing
            ("t,price\n0,1.0\n1e-320,2.0\n1,3.0\n2,4.0\n", {}, r"irregular spacing 1e-320 after row 1 \(t=0.0\)"),
        ],
        ids=["given-step", "inferred-step"],
    )
    def test_spacing_no_finite_multiple_of_the_step_names_it(self, tmp_path, text, rules, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestError, match=message):
                load(tmp_path, text, **rules)

    @pytest.mark.parametrize(
        "text, rules",
        [
            # one near-duplicate stamp does not set the inferred step: the modal spacing does
            ("t,price\n0,1.0\n1e-320,2.0\n1,3.0\n2,4.0\n", {}),
            ("t,price\n0,1.0\n1e-300,2.0\n1,3.0\n2,4.0\n3,5.0\n", {}),
            # a spacing under half a given step is no multiple of it, not a gap of 0 steps
            ("t,price\n0,1.0\n1e-320,2.0\n1,3.0\n2,4.0\n", {"expected_step": 1.0}),
        ],
        ids=["subnormal-spacing", "tiny-spacing", "given-step"],
    )
    def test_near_duplicate_stamp_names_row_and_step(self, tmp_path, text, rules):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestError, match=r"irregular spacing 1e-3[02]0 after row 1 \(t=0.0\); expected multiples of 1.0$"):
                load(tmp_path, text, **rules)

    def test_gap_of_many_steps_prints_a_short_count(self, tmp_path):
        with pytest.raises(IngestError, match=r"gap of 1e\+300 steps after row 1 \(t=0.0\); first missing timestamp 1e-300$"):
            load(tmp_path, "t,price\n0,1.0\n1,2.0\n2,3.0\n3,4.0\n", expected_step=1e-300)

    def test_cli_non_finite_price_exits_one_with_one_line(self, tmp_path, capsys):
        path = write(tmp_path, "t,price\n" + "\n".join(HOURLY[:2]) + "\n2016-01-01T02:00:00,nan\n")
        assert dispatch(["estimate", "--in", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "non-finite price nan at row 3" in lines[0]


# series for the round trip: either a regular grid or one with a single
# missing step, written with repr prices and numeric or ISO-8601 stamps
PRICES = st.floats(allow_nan=False, allow_infinity=False)
ZONES = st.sampled_from([("", 0), ("Z", 0), ("+01:00", 60), ("-05:30", -330), ("+00:00", 0)])


@st.composite
def series(draw):
    n = draw(st.integers(4, 40))
    prices = draw(st.lists(PRICES, min_size=n, max_size=n))
    gap = draw(st.one_of(st.none(), st.integers(1, n - 2)))
    calendar = draw(st.booleans())
    if calendar:
        step = draw(st.sampled_from([1, 60, 900, 3600, 86400]))
        start = draw(st.datetimes(datetime(1990, 1, 1), datetime(2040, 1, 1))).replace(microsecond=0)
        sep = draw(st.sampled_from(["T", " "]))
        suffix, minutes = draw(ZONES)
        epoch = (start.replace(tzinfo=timezone.utc) - timedelta(minutes=minutes)).timestamp()
        stamps = [(start + timedelta(seconds=i * step)).isoformat(sep) + suffix for i in range(n)]
    else:
        # dyadic steps and starts keep every stamp and difference exact
        step = draw(st.sampled_from([0.25, 1.0, 2.0, 3600.0]))
        epoch = draw(st.integers(-(10**6), 10**6)) * 0.5
        stamps = [repr(epoch + i * step) for i in range(n)]
    times = [epoch + i * step for i in range(n)]
    keep = [i for i in range(n) if i != gap]
    rows = [f"{stamps[i]},{prices[i]!r}" for i in keep]
    return "t,price\n" + "\n".join(rows) + "\n", prices, times, float(step), gap, calendar


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(case=series())
    def test_values_and_grid_bit_identical(self, tmp_path_factory, case):
        text, prices, times, step, gap, calendar = case
        path = write(tmp_path_factory.mktemp("rt"), text)
        got, report = load_spot_csv(path, IngestRules(gap_policy=GAP_FFILL1))
        want = list(prices)
        if gap is not None:
            want[gap] = prices[gap - 1]
        assert got.values.tolist() == want
        assert np.array_equal(np.signbit(got.values), np.signbit(want))
        assert report.filled_timestamps == (() if gap is None else (times[gap],))
        assert (report.span, report.step) == (times[-1] - times[0], step)
        assert report.calendar_timestamps == calendar
        assert (report.rows_read, report.n) == (len(prices) - (gap is not None), len(prices) - 1)


@pytest.fixture(scope="module")
def ingest():
    # the module behind cli's names: its whole-column reader and the per-row reference
    return pytest.importorskip("spikelab.ingest")


class TestInferredStep:
    @settings(max_examples=200, deadline=None)
    @given(
        step=st.floats(1e-6, 1e6),
        spacings=st.lists(st.tuples(st.sampled_from([1, 1, 2]), st.floats(-9e-7, 9e-7)), min_size=2, max_size=40),
    )
    def test_spacings_of_one_or_two_steps_keep_the_modal_step(self, ingest, step, spacings):
        # the spacings of a file that loads: the step is the modal spacing in multiples of the smallest
        diffs = np.array([step * k * (1.0 + jitter) for k, jitter in spacings])
        values, counts = np.unique(diffs / np.round(diffs / diffs.min()), return_counts=True)
        assert ingest._infer_step(diffs) == values[np.argmax(counts)]


def number(valid, wider, width):
    """Zero-padded numbers, mostly in the valid range, sometimes in a wider one."""
    return st.one_of(st.integers(*valid), st.integers(*valid), st.integers(*wider)).map(
        lambda v: str(v).zfill(width)
    )


# calendar stamps around the shapes the whole-column pass converts, with
# out-of-range fields, other separators and zone forms mixed in
TIME_OF_DAY = st.one_of(
    number((0, 23), (0, 25), 2),
    st.builds(lambda h, m: f"{h}:{m}", number((0, 23), (0, 25), 2), number((0, 59), (0, 61), 2)),
    st.builds(
        lambda h, m, s, f: f"{h}:{m}:{s}" + (f and "." + f),
        number((0, 23), (0, 25), 2),
        number((0, 59), (0, 61), 2),
        number((0, 59), (0, 61), 2),
        st.one_of(st.sampled_from(["", "000", "500", "123456"]), st.text("0123456789", max_size=7)),
    ),
)
ISO_STAMPS = st.builds(
    lambda y, m, d, dash, sep, time, zone: f"{y}{dash}{m}{dash}{d}" + (sep and sep + time + zone),
    number((1990, 2030), (1, 9999), 4),
    number((1, 12), (0, 13), 2),
    number((1, 28), (0, 32), 2),
    st.sampled_from(["-", "-", "-", ""]),
    st.sampled_from(["T", "T", " ", "t", ""]),
    TIME_OF_DAY,
    st.one_of(
        st.sampled_from(["", "Z", "+00:00", "-00:00"]),
        st.builds("{}{}:{}".format, st.sampled_from("+-"), number((0, 23), (0, 25), 2), number((0, 59), (0, 61), 2)),
        st.builds("{}{}{}".format, st.sampled_from("+-"), number((0, 23), (0, 23), 2), number((0, 59), (0, 59), 2)),
    ),
)
# stamps of the converted shapes only, over the years whose microsecond counts are exact floats
BULK_STAMPS = st.builds(
    lambda when, sep, spec, zone: when.date().isoformat() if spec is None else when.isoformat(sep, spec) + zone,
    st.datetimes(datetime(1700, 1, 1), datetime(2250, 1, 1)),
    st.sampled_from("T "),
    st.sampled_from([None, "hours", "minutes", "seconds", "milliseconds", "microseconds"]),
    st.one_of(
        st.sampled_from(["", "Z"]),
        st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(lambda m: f"{'-+'[m >= 0]}{abs(m) // 60:02d}:{abs(m) % 60:02d}"),
    ),
)
NUMERIC_STAMPS = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.integers(-(10**12), 10**12).map(str),
    st.sampled_from(["nan", "-inf", " 12 ", "1_000", "1e400", "0x10", ""]),
)
PRICE_TEXTS = st.one_of(
    *[PRICES.map(repr)] * 3, st.sampled_from(["nan", "inf", " 2.5 ", "1_0", "", "x", "1e999"])
)


class TestBulkMatchesRows:
    @settings(max_examples=300, deadline=None)
    @given(
        stamps=st.one_of(
            *(st.lists(kind, min_size=1, max_size=6) for kind in (BULK_STAMPS, ISO_STAMPS, NUMERIC_STAMPS)),
            st.lists(st.one_of(ISO_STAMPS, NUMERIC_STAMPS), min_size=1, max_size=6),
        ),
        prices=st.lists(PRICE_TEXTS, min_size=6, max_size=6),
    )
    def test_bulk_declines_or_agrees(self, ingest, tmp_path_factory, stamps, prices):
        text = "t,price\n" + "".join(f"{s},{p}\n" for s, p in zip(stamps, prices))
        path = write(tmp_path_factory.mktemp("bulk"), text)
        bulk = ingest._read_columns(path, 0, 1, 1)
        try:
            times, values, _, calendar = ingest._read_rows(path, 0, 1)
        except IngestError:
            assert bulk is None
            return
        if bulk is not None:
            assert bulk[0].tobytes() == times.tobytes()
            assert bulk[1].tobytes() == values.tobytes()
            assert bulk[3] == calendar

    def test_calendar_column_takes_bulk_path(self, ingest, tmp_path, monkeypatch):
        # hourly UTC stamps written naive, with Z and with a +01:00 offset in turn
        utc = np.datetime64("2016-03-27T00:00:00") + np.arange(30) * np.timedelta64(1, "h")
        naive, plus_one = utc.astype(str), (utc + np.timedelta64(1, "h")).astype(str)
        stamps = [[naive[i], naive[i].replace("T", " ") + "Z", plus_one[i] + "+01:00"][i % 3] for i in range(30)]
        path = write(tmp_path, "t,price\n" + "".join(f"{s},{i * 0.5!r}\n" for i, s in enumerate(stamps)))
        monkeypatch.setattr(ingest, "_read_rows", None)  # the per-row reader must not run
        series, report = load_spot_csv(path, IngestRules())
        assert report.calendar_timestamps and report.rows_read == 30
        assert (report.step, report.span) == (3600.0, 29 * 3600.0)
        assert np.array_equal(series.values, np.arange(30) * 0.5)

    def test_zone_suffixes_never_reach_numpy(self, ingest, tmp_path):
        # numpy warns on a zone suffix; the bulk pass strips it first
        stamps = ["2016-01-01T00:00:00Z", "2016-01-01T02:00:00+01:00", "2015-12-31T21:00:00-05:00"]
        path = write(tmp_path, "t,price\n" + "".join(f"{s},{i}.0\n" for i, s in enumerate(stamps)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bulk = ingest._read_columns(path, 0, 1, 1)
        assert bulk is not None
        assert bulk[0].tolist() == [1451606400.0, 1451610000.0, 1451613600.0]
        assert bulk[0].tobytes() == ingest._read_rows(path, 0, 1)[0].tobytes()

    def test_offset_before_year_one_takes_row_reader(self, ingest, tmp_path):
        # the first stamp is 0000-12-31T23:00 UTC: fromisoformat reads it, the bulk pass declines it
        stamps = [f"0001-01-01T0{h}:00:00+01:00" for h in range(3)]
        path = write(tmp_path, "t,price\n" + "".join(f"{s},{i}.0\n" for i, s in enumerate(stamps)))
        assert ingest._read_columns(path, 0, 1, 1) is None
        times, _, _, calendar = ingest._read_rows(path, 0, 1)
        assert calendar and times[0] == -62135600400.0
        series, report = load_spot_csv(path, IngestRules())
        assert np.array_equal(series.values, [0.0, 1.0, 2.0])
        assert (report.step, report.span, report.calendar_timestamps) == (3600.0, 7200.0, True)
