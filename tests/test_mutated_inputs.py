"""Every input file, its bytes mutated, gives a clean run or one error line.

Hypothesis inserts, deletes or replaces bytes in each of the four files
the CLI reads: the first rows of a price table (read by ``hrp``), a run
config (``mvp``), a saved report (``compare``) and a saved model
(``rl-eval``). The command runs in-process with warnings as errors, and
must either exit 0 with an empty stderr or exit 1 with one ``error:``
line: never a traceback, and never a warning.
"""

from __future__ import annotations

import io
import tempfile
import warnings
from contextlib import redirect_stderr
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portlab import backtest, cli, synthetic
from portlab.market_data import write_prices
from portlab.rl.network import qnet_init, save_qnetwork
from portlab.rl.params import Hyperparams

# one character more than the csv module's default field limit
_RUN = 131_073
_POOL = [
    b",",
    b'"',
    b"\x00",
    b"\r",
    "\ufeff".encode(),  # BOM
    b"_",
    "\u0663".encode(),  # ARABIC-INDIC DIGIT THREE
    "\uff17".encode(),  # FULLWIDTH DIGIT SEVEN
    b"x" * _RUN,
]
# digits change the numbers in a file; int() and float() read the
# non-ASCII ones above as digits too
_NUMBER_POOL = _POOL + [b"0", b"5", b"9", b"9" * _RUN]
# a config's numbers are work to do: one inserted digit turns mc_samples = 200
# into 2,000, so the config draws no digit of either kind
_CONFIG_POOL = [item for item in _POOL if not item.decode().isdigit()]

_N_ASSETS = 3
_TABLE = synthetic.drift_price_table(n_assets=_N_ASSETS, n_days=24)
_CONFIG = (
    "train_end = 2018-01-15\n"
    "test_start = 2018-01-16\n"
    "mc_samples = 200\n"
    "frontier_bins = 5\n"
    "rl.window = 4\n"
    "rl.rebalance_period = 2\n"
    "rl.episodes = 1\n"
    "rl.hidden_dims = 4\n"
)


@st.composite
def _mutated(draw, data: bytes, pool: list[bytes], end: int) -> bytes:
    """``data`` with 1-3 bytes inserted, deleted or replaced before byte ``end``."""
    head = bytearray(data[:end])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(0, len(head) - 1)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "delete":
            del head[at : at + 1]
        else:
            head[at : at + (op == "replace")] = draw(st.sampled_from(pool))
    return bytes(head) + data[end:]


def _run_dir(tmp: Path) -> Path:
    """Write the price table, the config, a model and a report into ``tmp``; the config."""
    write_prices(_TABLE, tmp / "prices.csv")
    config = tmp / "run.cfg"
    config.write_text(f"data = {tmp / 'prices.csv'}\n" + _CONFIG, encoding="utf-8")
    hp = Hyperparams(hidden_dims=(4,))
    save_qnetwork(qnet_init(_N_ASSETS, hp, np.random.default_rng(0)), tmp / "rl_model.txt")
    dates = synthetic.weekday_dates(date(2019, 1, 1), 3)
    report = backtest.BacktestReport(
        "MVP", "test", "d", 0.11, 0.2, 0.01, 0.5, dates, [0.0, 0.01, -0.02]
    )
    backtest.write_report(report, tmp / "report_MVP_test.json")
    return config


def _first_lines(data: bytes, lines: int | None) -> int:
    """The length of the first ``lines`` lines of ``data``; all of it for None."""
    end = len(data) if lines is None else 0
    for _ in range(lines or 0):
        end = data.index(b"\n", end) + 1
    return end


# the price table's header and first 3 rows; each other file whole
@pytest.mark.parametrize(
    ("command", "name", "pool", "lines"),
    [
        ("hrp", "prices.csv", _NUMBER_POOL, 4),
        ("mvp", "run.cfg", _CONFIG_POOL, None),
        ("compare", "report_MVP_test.json", _NUMBER_POOL, None),
        ("rl-eval", "rl_model.txt", _NUMBER_POOL, None),
    ],
    ids=["price-table", "config", "report", "model"],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_input_gives_a_clean_run_or_one_error_line(command, name, pool, lines, data):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        tmp = Path(tmp)
        config = _run_dir(tmp)
        path = tmp / name
        text = path.read_bytes()
        path.write_bytes(data.draw(_mutated(text, pool, _first_lines(text, lines))))
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main([command, "--config", str(config), "--out", str(tmp)])
        stderr = err.getvalue().splitlines()
        if code == 0:
            assert stderr == [], stderr
        else:
            assert code == 1, code
            assert len(stderr) == 1 and stderr[0].startswith("error: "), stderr
