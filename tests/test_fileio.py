"""The shared CSV framing, seen through each of the four input readers."""

from __future__ import annotations

import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from senticast import cli, fileio, text
from senticast.errors import ParseError, ValidationError
from senticast.fileio import read_table
from senticast.market import BusinessCalendar, parse_ohlcv_csv
from senticast.text import load_embeddings_csv, load_tweets_csv, read_panel_csv

OHLCV = """\
date,open,high,low,close,adj_close,volume
2021-01-04,10,11,9,10.5,10.5,1000
2021-01-05,10.5,12,10,11,11,1200
2021-01-06,11,11.5,10.5,11.2,11.2,900
"""

TWEETS = """\
tweet_id,writer,post_date,ticker,body,sentiment
1,alice,2021-01-04 09:30:00,aapl,"hello, world",1
2,bob,2021-01-04 10:00:00,AAPL,bye,0
3,carol,2021-01-05 11:00:00,AAPL,"again",
"""

EMBEDDINGS = """\
tweet_id,v0,v1,v2
1,0.5,-0.25,1.0
2,0.125,0.0,-2.0
3,1.5,2.5,3.5
"""

PANEL = """\
date,high,low,open,volume,close,score,score_raw,holiday,dow,e0,e1,e2
2021-01-04,11.0,9.0,10.0,1000.0,10.5,0.5,0.4,0,0,0.1,0.2,0.3
2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,1,-0.1,0.0,0.25
2021-01-06,11.5,10.5,11.0,900.0,11.2,0.55,0.5,0,2,1.0,2.0,3.0
"""

READERS = {
    "ohlcv": (OHLCV, lambda path: parse_ohlcv_csv(path, BusinessCalendar(), "T")),
    "tweets": (TWEETS, load_tweets_csv),
    # Each id maps to a row of one matrix; `.tolist()` makes the lookups comparable with `==`.
    "embeddings": (EMBEDDINGS, lambda path: {k: v.tolist() for k, v in load_embeddings_csv(path).items()}),
    # A panel holds numpy columns; their plain-data view is comparable with `==`.
    "panel": (PANEL, lambda path: panel_data(read_panel_csv(path, "T"))),
}


def panel_data(panel):
    return panel.ticker, panel.days, panel.values.tolist(), panel.calendar.tolist()


def load(tmp_path: Path, name: str, text: str):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    return READERS[name][1](path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_bom_before_header_parses_as_without(tmp_path, name):
    text = READERS[name][0]
    assert load(tmp_path, name, "\ufeff" + text) == load(tmp_path, name, text)


@pytest.mark.parametrize("name", sorted(READERS))
def test_crlf_line_ends_parse_as_lf(tmp_path, name):
    text = READERS[name][0]
    assert load(tmp_path, name, text.replace("\n", "\r\n")) == load(tmp_path, name, text)


@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_rows_are_skipped(tmp_path, name):
    text = READERS[name][0]
    header, first, rest = text.split("\n", 2)
    padded = "\n".join([header, "", first, "   ", rest]) + "\n"
    assert load(tmp_path, name, padded) == load(tmp_path, name, text)


@pytest.mark.parametrize("name", sorted(READERS))
def test_empty_file_rejected(tmp_path, name):
    with pytest.raises(ParseError, match="empty file"):
        load(tmp_path, name, "")


@pytest.mark.parametrize("edit", ["missing", "extra"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_row_with_wrong_field_count_names_its_line(tmp_path, name, edit):
    lines = READERS[name][0].splitlines()
    width = len(lines[0].split(","))
    if edit == "missing":
        lines[2], got = lines[2].rsplit(",", 1)[0], width - 1
    else:
        lines[2], got = lines[2] + ",0", width + 1
    with pytest.raises(ParseError, match=f":3: expected {width} fields, got {got}$"):
        load(tmp_path, name, "\n".join(lines) + "\n")


def test_line_numbers_count_file_lines_across_quoted_newlines(tmp_path):
    text = TWEETS.replace('"hello, world"', '"hello,\nworld"') + "4,dan,not-a-date,AAPL,x,1\n"
    with pytest.raises(ParseError, match=":6: bad post_date"):
        load(tmp_path, "tweets", text)


def test_repeated_embedding_id_names_its_line(tmp_path):
    with pytest.raises(ParseError, match=":3: duplicate tweet_id '1'"):
        load(tmp_path, "embeddings", "tweet_id,v0\n1,0.5\n1,0.7\n")


@pytest.mark.parametrize("first, second, error, message", [
    ("nan", "abc", ValidationError, ":2: non-finite embedding value"),
    ("abc", "inf", ParseError, ":2: could not convert string to float: 'abc'"),
])
def test_first_faulty_embedding_line_is_reported(tmp_path, first, second, error, message):
    with pytest.raises(error, match=f"{message}$"):
        load(tmp_path, "embeddings", f"tweet_id,v0,v1\n1,0.5,{first}\n2,{second},0.5\n")


def test_embedding_row_whose_sum_overflows_is_accepted(tmp_path):
    path = tmp_path / "embeddings.csv"
    path.write_text("tweet_id,v0,v1\n1,1e308,1e308\n2,-1e308,-1e308\n")
    vectors = load_embeddings_csv(path)
    assert {k: v.tolist() for k, v in vectors.items()} == {"1": [1e308, 1e308], "2": [-1e308, -1e308]}


def test_embeddings_are_read_only_rows_of_one_matrix(tmp_path):
    path = tmp_path / "embeddings.csv"
    path.write_text(EMBEDDINGS)
    vectors = load_embeddings_csv(path)
    rows = list(vectors.values())
    assert all(row.dtype == np.float64 and row.base is rows[0].base for row in rows)
    with pytest.raises(ValueError, match="read-only"):
        rows[0][0] = 1.0


def test_write_atomic_writes_text_as_utf8_and_bytes_as_given(tmp_path):
    fileio.write_atomic(tmp_path / "a.txt", "caf\u00e9\r\n")
    fileio.write_atomic(tmp_path / "b.bin", b"\x93NUMPY\x00\r\n")
    assert (tmp_path / "a.txt").read_bytes() == "caf\u00e9\r\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x93NUMPY\x00\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_write_atomic_gives_the_mode_a_plain_open_gives(tmp_path, umask):
    before = os.umask(umask)
    try:
        fileio.write_atomic(tmp_path / "atomic.csv", "x\n")
        with open(tmp_path / "plain.csv", "w") as handle:
            handle.write("x\n")
    finally:
        os.umask(before)
    mode = stat.S_IMODE((tmp_path / "atomic.csv").stat().st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)


def test_fileio_imports_no_numpy():
    code = "import sys, senticast.fileio; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


malformed_panel_rows = pytest.mark.parametrize("row, message", [
    ("2021-01-05,12.0,abc,10.5,1200.0,11.0,0.6,0.7,0,1,-0.1,0.0,0.25", "could not convert string to float: 'abc'"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,1,-0.1,x,0.25", "could not convert string to float: 'x'"),
    ("2021-01-32,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,1,-0.1,0.0,0.25", "day is out of range for month"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,1.0,1,-0.1,0.0,0.25",
     "invalid literal for int() with base 10: '1.0'"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,1.0,-0.1,0.0,0.25",
     "invalid literal for int() with base 10: '1.0'"),
    # Two faults in a row: fields are checked as values, embedding, date, holiday, dow.
    ("2021-01-05,12.0,abc,10.5,1200.0,11.0,0.6,0.7,0,1,-0.1,x,0.25", "could not convert string to float: 'abc'"),
    ("bad-date,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,1,-0.1,x,0.25", "could not convert string to float: 'x'"),
    ("bad-date,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,1.0,1,-0.1,0.0,0.25", "Invalid isoformat string: 'bad-date'"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,h,d,-0.1,0.0,0.25", "invalid literal for int() with base 10: 'h'"),
    # Both calendar ints parse, then their range is checked: dow 5 is a Saturday.
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,2,1,-0.1,0.0,0.25", "holiday must be 0 or 1 and dow 0..4, got 2 and 1"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,-1,-0.1,0.0,0.25", "holiday must be 0 or 1 and dow 0..4, got 0 and -1"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,0,5,-0.1,0.0,0.25", "holiday must be 0 or 1 and dow 0..4, got 0 and 5"),
    ("2021-01-05,12.0,10.0,10.5,1200.0,11.0,0.6,0.7,7,d,-0.1,0.0,0.25", "invalid literal for int() with base 10: 'd'"),
], ids=["value", "embedding", "date", "holiday", "dow",
        "value-embedding", "embedding-date", "date-holiday", "holiday-dow",
        "holiday-2", "dow-minus-1", "dow-5", "holiday-range-dow"])


@malformed_panel_rows
def test_malformed_panel_row_reports_its_first_fault_and_line(tmp_path, row, message):
    lines = PANEL.splitlines()
    lines[2] = row
    with pytest.raises(ParseError, match=re.escape(f":3: {message}") + "$"):
        load(tmp_path, "panel", "\n".join(lines) + "\n")


@malformed_panel_rows
def test_malformed_panel_row_beside_a_stale_sidecar_reports_the_same_fault(tmp_path, row, message):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL)
    text.write_panel_csv(path, read_panel_csv(path, "T"))
    assert (tmp_path / "panel.csv.npy").exists()
    lines = PANEL.splitlines()
    lines[2] = row
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: {message}") + "$"):
        load(tmp_path, "panel", "\n".join(lines) + "\n")


def test_header_only_panel_reads_empty_without_a_warning(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = load(tmp_path, "panel", PANEL.splitlines()[0] + "\n\n")
    assert caught == []
    assert result == ("T", [], [], [])


PREDICTIONS = """\
date,ticker,step,truth,pred
2021-01-05,AAA,1,10.5,10.25
2021-01-05,BBB,1,20.0,19.5
2021-01-06,AAA,2,11.0,10.75
"""

# The readers with a numpy pass: (module whose `read_csv` they call, reader, well-formed text).
TABLE_READERS = {
    "embeddings": (text, READERS["embeddings"][1], EMBEDDINGS),
    "predictions": (cli, cli._read_predictions, PREDICTIONS),
}


def rows_read_by_line(monkeypatch, module) -> list:
    """Each `(lineno, fields)` that `module.read_csv` yields from now on."""
    seen = []

    def spy(path):
        for item in fileio.read_csv(path):
            seen.append(item)
            yield item

    monkeypatch.setattr(module, "read_csv", spy)
    return seen


@pytest.mark.parametrize("name", sorted(TABLE_READERS))
def test_well_formed_file_is_read_by_numpy_alone(tmp_path, monkeypatch, name):
    module, read, body = TABLE_READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(body)
    seen = rows_read_by_line(monkeypatch, module)
    read(path)
    assert [lineno for lineno, _ in seen] == [1]  # the header only


@pytest.mark.parametrize("name", sorted(TABLE_READERS))
def test_header_only_file_reads_empty_without_a_warning(tmp_path, name):
    module, read, body = TABLE_READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(body.splitlines()[0] + "\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = read(path)
    assert caught == []
    assert result == {}


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "text"])
def test_panel_is_read_without_the_numpy_pass(tmp_path, monkeypatch, sidecar):
    # A panel comes from its sidecar, or else line by line; `read_table` is for embeddings and predictions.
    path = tmp_path / "panel.csv"
    path.write_text(PANEL)
    if sidecar:
        text.write_panel_csv(path, read_panel_csv(path, "T"))
    expected = panel_data(read_panel_csv(path, "T"))

    def refuse(*args):
        raise AssertionError("read_table called for a panel")

    monkeypatch.setattr(text, "read_table", refuse)
    seen = rows_read_by_line(monkeypatch, text)
    assert panel_data(read_panel_csv(path, "T")) == expected
    assert [lineno for lineno, _ in seen] == ([] if sidecar else [1, 2, 3, 4])


@pytest.mark.parametrize("body", [
    "h,v\n\"a\",1.0\n",  # a quoted text field
    "h,v\na,\"1.0\"\n",  # a quoted number
    "h,v\na,1.0\n   \n",  # a whitespace-only line
    "h,v\na\x00,1.0\n",  # a NUL, which older csv modules refuse
    "h,v\na,1_0\n",
    "h,v\na,\u0661\n",
    "h,v\na,1.0,2.0\n",
    "h,v\na\n",
    "h,v\n",
], ids=["quoted-text", "quoted-number", "whitespace-line", "nul", "underscore", "arabic-digit", "extra", "missing",
        "header-only"])
def test_read_table_leaves_to_read_csv_what_it_cannot_frame_or_parse(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert read_table(path, [("h", object), ("v", np.float64)]) is None
    assert caught == []


def test_read_table_keeps_text_fields_whole(tmp_path):
    # An `object` field holds the whole text: a fixed `U10` would read the first one as 2021-01-05.
    path = tmp_path / "t.csv"
    path.write_text("\ufeffh,v\r\n2021-01-050,1e999\r\n\r\n x #,-0.0\r\n", newline="")
    table = read_table(path, [("h", object), ("v", np.float64)])
    assert table["h"].tolist() == ["2021-01-050", " x #"]
    assert [float.hex(v) for v in table["v"].tolist()] == [float.hex(float("inf")), float.hex(-0.0)]
