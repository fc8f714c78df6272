import csv
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_table
from portlab import market_data
from portlab.errors import (
    DateOrderError,
    PriceParseError,
    SchemaError,
    SplitError,
    UnfillableError,
)
from portlab.market_data import (
    DateSplit,
    forward_fill,
    load_prices,
    split_by_date,
    write_prices,
)
from portlab.synthetic import weekday_dates

THREE_ROWS = (
    "date,A,B\n"
    "2019-01-01,100,200\n"
    "2019-01-02,101,199\n"
    "2019-01-03,102,198\n"
)


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadPrices:
    def test_three_row_csv(self, tmp_path):
        table = load_prices(_write(tmp_path, THREE_ROWS))
        assert table.n_rows == 3
        assert table.n_assets == 2
        assert table.tickers == ("A", "B")
        assert table.dates[0] == date(2019, 1, 1)
        assert table.closes[2, 1] == 198.0

    def test_crlf_accepted(self, tmp_path):
        table = load_prices(_write(tmp_path, THREE_ROWS.replace("\n", "\r\n")))
        assert table.n_rows == 3

    def test_single_ticker_is_schema_error(self, tmp_path):
        text = "date,A\n2019-01-01,1\n2019-01-02,2\n2019-01-03,3\n"
        with pytest.raises(SchemaError):
            load_prices(_write(tmp_path, text))

    def test_missing_date_header_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            load_prices(_write(tmp_path, THREE_ROWS.replace("date,", "day,")))

    @pytest.mark.parametrize(
        ("header", "column"), [("date,A,B,", 4), ("date,A, ,B", 3), ("date,,A,B", 2)]
    )
    def test_empty_ticker_is_schema_error(self, tmp_path, header, column):
        rows = "".join(f"2019-01-0{d},100,200,300\n" for d in (1, 2, 3))
        path = _write(tmp_path, header + "\n" + rows)
        with pytest.raises(SchemaError, match=f"column {column} has an empty ticker") as exc:
            load_prices(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        ("header", "column", "ticker"),
        [("date,A,A", 3, "A"), ("date,A,B,A", 4, "A"), ("date,A,B, B", 4, "B")],
    )
    def test_repeated_ticker_is_schema_error(self, tmp_path, header, column, ticker):
        cells = ",".join(["100"] * header.count(","))
        rows = "".join(f"2019-01-0{d},{cells}\n" for d in (1, 2, 3))
        path = _write(tmp_path, header + "\n" + rows)
        with pytest.raises(SchemaError) as exc:
            load_prices(path)
        assert str(exc.value) == f"{path}: column {column} repeats ticker {ticker!r}"

    def test_non_monotone_dates(self, tmp_path):
        text = (
            "date,A,B\n"
            "2019-01-02,100,200\n"
            "2019-01-01,101,199\n"
            "2019-01-03,102,198\n"
        )
        with pytest.raises(DateOrderError):
            load_prices(_write(tmp_path, text))

    def test_malformed_date_names_row(self, tmp_path):
        text = THREE_ROWS.replace("2019-01-02", "02/01/2019")
        with pytest.raises(PriceParseError, match="row 3"):
            load_prices(_write(tmp_path, text))

    def test_non_numeric_cell_is_hard_error(self, tmp_path):
        text = THREE_ROWS.replace("101", "n/a")
        with pytest.raises(PriceParseError, match="row 3"):
            load_prices(_write(tmp_path, text))

    def test_nan_token_is_hard_error(self, tmp_path):
        text = THREE_ROWS.replace("101", "nan")
        with pytest.raises(PriceParseError):
            load_prices(_write(tmp_path, text))

    def test_nonpositive_price_is_hard_error(self, tmp_path):
        text = THREE_ROWS.replace("101", "-101")
        with pytest.raises(PriceParseError):
            load_prices(_write(tmp_path, text))

    def test_ragged_row_names_row(self, tmp_path):
        text = THREE_ROWS.replace("2019-01-03,102,198", "2019-01-03,102")
        with pytest.raises(PriceParseError, match="row 4"):
            load_prices(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "cell", ['"B,0"', '"B""0"', '"B\r0"', '"B\n0"'], ids=["comma", "quote", "cr", "lf"]
    )
    def test_ticker_the_csv_outputs_cannot_hold_is_schema_error(self, tmp_path, cell):
        text = THREE_ROWS.replace("date,A,B", f"date,A,{cell}")
        with pytest.raises(SchemaError, match="comma, quote or line break"):
            load_prices(_write(tmp_path, text))

    def test_empty_cell_is_missing(self, tmp_path):
        text = THREE_ROWS.replace("2019-01-02,101,199", "2019-01-02,,199")
        table = load_prices(_write(tmp_path, text))
        assert math.isnan(table.closes[1, 0])
        assert table.has_missing()

    @pytest.mark.parametrize(
        "cell",
        ["1_000", "\u0661\u0662\u0663", "1\u00b2"],
        ids=["underscore", "arabic-indic-digits", "superscript"],
    )
    def test_what_float_reads_but_is_no_decimal_is_non_numeric(self, tmp_path, cell):
        text = THREE_ROWS.replace("2019-01-02,101,199", f"2019-01-02,101,{cell}")
        with pytest.raises(PriceParseError) as exc:
            load_prices(_write(tmp_path, text))
        assert str(exc.value).endswith(f"row 3: non-numeric price {cell!r} for B")

    def test_non_ascii_whitespace_around_a_price_is_stripped(self, tmp_path):
        text = THREE_ROWS.replace("2019-01-02,101,199", "2019-01-02,\u00a0101\u2003,\u00a0")
        table = load_prices(_write(tmp_path, text))
        assert table.closes[1, 0] == 101.0
        assert math.isnan(table.closes[1, 1])


def _dated_rows(n: int, cells=lambda i: f"{100 + i},{200 - i}") -> list[str]:
    days = weekday_dates(date(2019, 1, 1), n)
    return [f"{d.isoformat()},{cells(i)}" for i, d in enumerate(days)]


class TestLoadPricesInBlocks:
    """Blocks of 3 rows of 2 prices, so that every case crosses a block boundary."""

    @pytest.fixture(autouse=True)
    def _three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(market_data, "_PARSE_CELLS", 6)

    def test_blocks_give_the_one_block_table(self, tmp_path, monkeypatch):
        rows = _dated_rows(10)
        rows[4] = rows[4].split(",")[0] + ",,201"
        rows[6] = rows[6].split(",")[0] + ", ,"
        path = _write(tmp_path, "\n".join(["date,A,B", *rows[:5], "", *rows[5:]]) + "\n")
        table = load_prices(path)
        monkeypatch.setattr(market_data, "_PARSE_CELLS", 1 << 12)
        whole = load_prices(path)
        assert table.dates == whole.dates
        assert np.array_equal(table.closes, whole.closes, equal_nan=True)
        assert table.n_rows == 10
        assert np.isnan(table.closes[[4, 6, 6], [0, 0, 1]]).all()

    def test_error_in_a_later_block_names_its_row(self, tmp_path):
        rows = _dated_rows(10)
        rows[7] = rows[7].replace(",107,", ",1O7,")
        # an empty line still counts as a row
        path = _write(tmp_path, "\n".join(["date,A,B", *rows[:2], "", *rows[2:]]) + "\n")
        with pytest.raises(PriceParseError) as exc:
            load_prices(path)
        assert str(exc.value) == f"{path}: row 10: non-numeric price '1O7' for A"

    @pytest.mark.parametrize(
        "row", [3, 4, 5], ids=["first-of-a-block", "inside-a-block", "last-of-a-block"]
    )
    def test_date_order_is_checked_across_blocks(self, tmp_path, row):
        rows = _dated_rows(9)
        # data row ``row`` (0-based) repeats the date before it
        rows[row] = rows[row - 1].split(",")[0] + ",1,2"
        path = _write(tmp_path, "\n".join(["date,A,B", *rows]) + "\n")
        with pytest.raises(DateOrderError, match=f"row {row + 2}: date "):
            load_prices(path)

    def test_missing_cells_on_both_sides_of_a_boundary_fill_as_before(self, tmp_path):
        rows = _dated_rows(8)
        rows[2] = rows[2].split(",")[0] + ",,202"  # last row of the first block
        rows[3] = rows[3].split(",")[0] + ",,"  # first row of the second
        filled = forward_fill(load_prices(_write(tmp_path, "\n".join(["date,A,B", *rows]))))
        assert filled.closes[:, 0].tolist() == [100, 101, 101, 101, 104, 105, 106, 107]
        assert filled.closes[:, 1].tolist() == [200, 199, 202, 202, 196, 195, 194, 193]

    @pytest.mark.parametrize(
        ("cell", "message"),
        [
            ("nan", "price 'nan' for B must be finite and > 0"),
            ("-1", "price '-1' for B must be finite and > 0"),
            ("1e400", "price '1e400' for B must be finite and > 0"),
            ("1_0", "non-numeric price '1_0' for B"),
        ],
    )
    def test_block_checks_give_the_row_message(self, tmp_path, cell, message):
        rows = _dated_rows(8)
        rows[5] = rows[5].split(",")[0] + f",1,{cell}"
        path = _write(tmp_path, "\n".join(["date,A,B", *rows]))
        with pytest.raises(PriceParseError) as exc:
            load_prices(path)
        assert str(exc.value) == f"{path}: row 7: {message}"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from(["", " ", "1", "2.5", " 3 ", "4e1", "nan", "-1", "1_0", "x"]),
            min_size=2,
            max_size=2,
        ),
        min_size=3, max_size=9,
    ),
    st.integers(1, 4),
)
def test_block_parse_agrees_with_the_row_walk(tmp_path_factory, cells, block):
    """Any block size gives the table, or the error, of a walk over every row."""
    rows = _dated_rows(len(cells), lambda i: ",".join(cells[i]))
    path = tmp_path_factory.mktemp("blocks") / "prices.csv"
    path.write_text("\n".join(["date,A,B", *rows]) + "\n", encoding="utf-8")
    blocks = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))[1:]
    try:
        want = market_data._parse_rows(path, ["A", "B"], blocks, 2, None)
    except PriceParseError as exc:
        want = str(exc)
    old_cells = market_data._PARSE_CELLS
    market_data._PARSE_CELLS = 2 * block
    try:
        got = load_prices(path)
    except PriceParseError as exc:
        got = str(exc)
    finally:
        market_data._PARSE_CELLS = old_cells
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.dates == tuple(want[0])
        assert np.array_equal(got.closes, want[1], equal_nan=True)


class TestPriceTable:
    def test_closes_are_read_only(self):
        table = make_table(np.ones((3, 2)))
        with pytest.raises(ValueError):
            table.closes[0, 0] = 5.0


class TestForwardFill:
    def test_fills_with_previous_value(self):
        table = make_table([[100, 50], [math.nan, 51], [102, 52]])
        filled = forward_fill(table)
        assert filled.closes[:, 0].tolist() == [100.0, 100.0, 102.0]
        assert not filled.has_missing()

    def test_complete_table_unchanged(self):
        table = make_table([[100, 50], [101, 51], [102, 52]])
        assert forward_fill(table) is table

    def test_missing_first_row_names_ticker(self):
        table = make_table([[math.nan, 50], [100, 51], [102, 52]], tickers=("AAA", "BBB"))
        with pytest.raises(UnfillableError, match="AAA"):
            forward_fill(table)

    def test_fills_runs_of_missing(self):
        table = make_table([[100, 1], [math.nan, 2], [math.nan, 3], [103, 4]])
        filled = forward_fill(table)
        assert filled.closes[:, 0].tolist() == [100.0, 100.0, 100.0, 103.0]

    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        closes = rng.uniform(10, 200, size=(6, 3))
        mask = rng.random(size=(6, 3)) < 0.3
        mask[0, :] = False
        closes[mask] = math.nan
        once = forward_fill(make_table(closes))
        twice = forward_fill(once)
        assert np.array_equal(once.closes, twice.closes)


class TestSplitByDate:
    def test_counts(self):
        table = make_table(np.linspace(100, 120, 20).reshape(10, 2))
        split = DateSplit(table.dates[6], table.dates[7])
        train, test = split_by_date(table, split)
        assert train.n_rows == 7
        assert test.n_rows == 3
        assert train.tickers == test.tickers == table.tickers

    def test_partition_identity_for_adjacent_days(self):
        table = make_table(np.linspace(100, 120, 20).reshape(10, 2))
        split = DateSplit(table.dates[5], table.dates[6])
        train, test = split_by_date(table, split)
        assert train.dates + test.dates == table.dates
        assert np.array_equal(np.vstack([train.closes, test.closes]), table.closes)

    def test_split_before_first_row_errors(self):
        table = make_table(np.linspace(100, 120, 20).reshape(10, 2))
        with pytest.raises(SplitError):
            split_by_date(table, DateSplit(date(2018, 1, 1), date(2018, 1, 2)))

    def test_rows_between_the_boundaries_are_dropped(self):
        table = make_table(np.linspace(100, 120, 28).reshape(14, 2))
        # two Saturdays, so neither boundary is a row's date
        train, test = split_by_date(table, DateSplit(date(2019, 1, 5), date(2019, 1, 12)))
        assert train.dates == table.dates[:4]
        assert test.dates == table.dates[9:]
        assert np.array_equal(test.closes, table.closes[9:])

    @pytest.mark.parametrize(
        ("train_end", "n_train", "n_test"), [(-1, 0, 10), (1, 2, 8), (7, 8, 2)]
    )
    def test_short_partition_message_gives_both_counts(self, train_end, n_train, n_test):
        table = make_table(np.linspace(100, 120, 20).reshape(10, 2))
        if train_end < 0:
            split = DateSplit(date(2018, 1, 1), date(2018, 1, 2))
        else:
            split = DateSplit(table.dates[train_end], table.dates[train_end + 1])
        with pytest.raises(SplitError, match=f"train={n_train}, test={n_test}"):
            split_by_date(table, split)

    def test_reversed_split_rejected(self):
        with pytest.raises(SplitError):
            DateSplit(date(2019, 6, 1), date(2019, 5, 1))

    def test_row_order_preserved(self):
        table = make_table(np.linspace(100, 140, 24).reshape(12, 2))
        train, test = split_by_date(table, DateSplit(table.dates[8], table.dates[9]))
        assert list(train.dates) == sorted(train.dates)
        assert np.array_equal(train.closes, table.closes[:9])


class TestCsvRoundTrip:
    def test_write_load_fill_write_is_bit_identical(self, tmp_path, rng):
        closes = rng.uniform(10, 500, size=(8, 4))
        table = make_table(closes)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_prices(table, first)
        reloaded = forward_fill(load_prices(first))
        write_prices(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_cells_round_trip(self, tmp_path):
        table = make_table([[100, 50], [math.nan, 51], [102, 52]])
        path = tmp_path / "gap.csv"
        write_prices(table, path)
        back = load_prices(path)
        assert math.isnan(back.closes[1, 0])
        assert back.closes[2, 1] == 52.0
