import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import make_table, weekdays
from portlab.errors import (
    DateOrderError,
    PriceParseError,
    SchemaError,
    SplitError,
    UnfillableError,
)
from portlab.market_data import (
    DateSplit,
    PriceTable,
    forward_fill,
    load_prices,
    split_by_date,
    write_prices,
)

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


class TestPriceTable:
    def test_rejects_duplicate_dates(self):
        days = weekdays(3)
        with pytest.raises(DateOrderError):
            PriceTable((days[0], days[0], days[1]), ("A", "B"), np.ones((3, 2)))

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
