from datetime import date

import pytest

from portlab.numtext import read_date, read_dates, read_float, read_int


@pytest.mark.parametrize("text", ["7", "-3", "+2", "0", "123456789012345678901234567890"])
def test_plain_integers_read_as_int_reads_them(text):
    assert read_int(text) == int(text)


@pytest.mark.parametrize("text", ["0.5", "-1e-3", "1E308", "+.25", "inf", "nan", "5e-324"])
def test_plain_numbers_read_as_float_reads_them(text):
    got, want = read_float(text), float(text)
    assert got == want or (got != got and want != want)


# int() and float() read every one of these
@pytest.mark.parametrize(
    "text",
    ["٧", "７", "2_00", " 7", "7 ", "\t7", "7\n"],
    ids=[
        "arabic-indic",
        "fullwidth",
        "underscore",
        "leading-space",
        "trailing-space",
        "tab",
        "newline",
    ],
)
def test_other_text_is_no_number(text):
    for read in (read_int, read_float):
        with pytest.raises(ValueError, match="not a plain ASCII"):
            read(text)


def test_iso_calendar_dates_read_as_fromisoformat_reads_them():
    for text in ("2019-05-03", "0001-01-01", "9999-12-31", "2020-02-29"):
        assert read_date(text) == date.fromisoformat(text)


# Python 3.11's date.fromisoformat reads the first two (as 2019-05-03)
@pytest.mark.parametrize(
    "text",
    ["20190503", "2019-W18-5", "2019-5-3", " 2019-05-03", "2019-05-03 ", "2019-05-0\u0663"],
    ids=["basic-form", "week-form", "unpadded", "leading-space", "trailing-space", "arabic-indic"],
)
def test_other_date_text_is_no_date(text):
    with pytest.raises(ValueError, match="not a YYYY-MM-DD date"):
        read_date(text)


def test_well_formed_but_impossible_date_is_refused():
    with pytest.raises(ValueError):
        read_date("2019-02-29")


def test_a_list_of_dates_reads_as_each_date_alone():
    texts = ["2019-05-03", "2019-05-06", "2020-02-29"]
    assert read_dates(texts) == [read_date(text) for text in texts]
    assert read_dates([]) == []


# the last two join to "2019-05-032019-05-03": each 10-character slice of
# the joined text looks well formed though neither text is
@pytest.mark.parametrize(
    ("texts", "bad"),
    [
        (["2019-05-03", "20190506"], "20190506"),
        (["2019-W18-5", "2019-05-06"], "2019-W18-5"),
        (["2019-05-03", "2019-05-0\u0666"], "2019-05-0\u0666"),
        (["2019-05-0", "32019-05-03"], "2019-05-0"),
    ],
    ids=["basic-form", "week-form", "arabic-indic", "lengths-that-add-up"],
)
def test_a_list_of_dates_raises_at_its_first_other_form(texts, bad):
    with pytest.raises(ValueError, match=f"not a YYYY-MM-DD date: {bad!r}"):
        read_dates(texts)
