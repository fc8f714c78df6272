import pytest

from portlab.numtext import read_float, read_int


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
