"""Word-spec parsing, command execution, output formats, and determinism."""

import csv
import dataclasses
import errno
import json
import math
import os
import platform
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deltachain import _g17, cli, kernel, spectra, states
from deltachain._g17 import _digits, blocks
from deltachain.cli import (
    COMMANDS,
    FLAGS,
    READS,
    RunConfig,
    _BLOCK_ROWS,
    _build_parser,
    _config_from_args,
    _token,
    _write_output,
    main,
    parse_word_spec,
    run,
)
from deltachain.core import TAU, ChainParams, Regime
from deltachain.errors import OverflowRisk, ParseError
from deltachain.scattering import S_COLUMNS, s_matrix
from deltachain.substitution import fibonacci_word


def read_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def test_parse_word_spec_forms():
    assert str(parse_word_spec("fib:m=5")) == "SLLSL"
    assert parse_word_spec("fib:m=5").order_m == 5
    assert str(parse_word_spec("S^4")) == "SSSS"
    assert str(parse_word_spec("L^2")) == "LL"
    w = parse_word_spec("SLLSL")
    assert str(w) == "SLLSL"
    assert w.order_m is None


def test_parse_word_spec_error_positions():
    with pytest.raises(ParseError) as err:
        parse_word_spec("SLXSL")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_word_spec("fib:x=3")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_word_spec("")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_word_spec("S^0")
    with pytest.raises(ParseError) as err:
        parse_word_spec("fib:m=0")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_word_spec("fib:m=")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="nope")
    with pytest.raises(ValueError):
        RunConfig(command="bands", beta_min=2.0, beta_max=1.0)
    with pytest.raises(ValueError):
        RunConfig(command="bands", steps=50)
    with pytest.raises(ValueError):
        RunConfig(command="bands", format="xml")


def test_value_formatting():
    assert _token(None, "csv") == ""
    assert _token(True, "csv") == "true"
    assert _token(False, "csv") == "false"
    assert _token(3, "csv") == "3"
    assert _token(1.5, "csv") == "1.5"
    assert _token(float("nan"), "csv") == ""
    assert _token(float("inf"), "json") == "null"
    assert _token('a"b', "json") == '"a\\"b"'
    assert _token(None, "json") == "null"


def _assert_same_text(text, want, *context):
    # Compare through the first differing character: a failure then shows a
    # short excerpt instead of pytest's diff of two 1 MB strings.
    at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b), None)
    if at is None and len(text) != len(want):
        at = min(len(text), len(want))
    assert at is None, (*context, at, text[max(at - 40, 0) : at + 40], want[max(at - 40, 0) : at + 40])


SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_writer_matches_the_token_function(fmt, tmp_path):
    # Three _BLOCK_ROWS blocks per table, with one column, four, and scatter's
    # eleven: the first block ordinary, the second ordinary but for a nan
    # and a -0.0 in its middle, the last short and full of specials.
    rng = np.random.default_rng(5)
    null = "" if fmt == "csv" else "null"
    for cols in (1, 4, 11):
        shape = (2 * _BLOCK_ROWS + 7, cols)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        table[0, :4] = (-0.0, 5e-324, 1.7976931348623157e308, -5e-324)[:cols]
        table[_BLOCK_ROWS + 3, cols // 2] = math.nan
        table[_BLOCK_ROWS + 5, cols - 1] = -0.0
        table[-len(SPECIALS) :, cols // 3] = SPECIALS
        table[-1, :4] = (math.inf, -math.inf, math.nan, -0.0)[:cols]
        columns = [f"c{j}" for j in range(cols)]
        out = tmp_path / f"block{cols}.{fmt}"
        _write_output(RunConfig(command="scatter", out_path=str(out), format=fmt), dict(zip(columns, table.T)))
        tokens = [[_token(v, fmt) for v in row] for row in table.tolist()]
        assert tokens[0][:4] == [
            "-0", "4.9406564584124654e-324", "1.7976931348623157e+308", "-4.9406564584124654e-324"
        ][:cols]
        assert tokens[-1][:4] == [null, null, null, "-0"][:cols]
        assert tokens[_BLOCK_ROWS + 3][cols // 2] == null and tokens[_BLOCK_ROWS + 5][cols - 1] == "-0"
        text = out.read_text()
        if fmt == "csv":
            want = ",".join(columns) + "\n" + "".join(",".join(row) + "\n" for row in tokens)
        else:
            body = ",".join("[" + ",".join(row) + "]" for row in tokens)
            want = text[: text.index('"rows":[')] + '"rows":[' + body + "]}\n"
            assert want.startswith('{"command":"scatter","config":{"command":"scatter",')
        _assert_same_text(text, want, cols)
        if fmt == "json":
            rows = json.loads(text)["rows"]
            assert len(rows) == len(table) and all(len(row) == cols for row in rows)
            assert rows[_BLOCK_ROWS + 3][cols // 2] is None
            assert rows[-1][:4] == [None, None, None, -0.0][:cols]


def _row_text(rows, fmt: str) -> str:
    """The reference writer: rows rendered token by token, CSV lines or JSON arrays joined by ","."""
    if fmt == "csv":
        return "".join(",".join(_token(v, fmt) for v in row) + "\n" for row in rows)
    return ",".join("[" + ",".join(_token(v, fmt) for v in row) + "]" for row in rows)


# The values of the categorical column: missing ones, strings that need
# escaping in JSON, and a number and a bool among them.
MIXED_VALUES = (None, "", 'a"b', "c\\d", '\\"', "SLLSL", math.nan, 3, -2.5, True)


def _mixed_table(rng, n):
    """A table of n rows with every kind of column, and the same rows as Python values."""
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    specials = np.array([*SPECIALS, -0.0, *_ties(rng, 8)])
    at = rng.random(n) < 0.3
    floats[at] = rng.choice(specials, n)[at]
    table = {
        "float": floats,
        "gap": np.where(rng.random(n) < 0.5, math.nan, rng.standard_normal(n)),  # missing as NaN
        "small": rng.integers(-(10**6), 10**6, n),
        "near": rng.choice([-1, 1], n) * (2**53 + rng.integers(-3, 4, n)),  # either side of 2**53
        "wide": rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True),
        "flag": rng.random(n) < 0.5,
        "mixed": (rng.integers(0, len(MIXED_VALUES), n), MIXED_VALUES),
    }
    table["wide"][:2] = (np.iinfo(np.int64).min, np.iinfo(np.int64).max)[:n]
    codes, values = table["mixed"]
    cols = [c.tolist() for c in list(table.values())[:-1]] + [[values[i] for i in codes.tolist()]]
    return table, list(zip(*cols)) if n else []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 7])
def test_column_writer_matches_the_row_renderer(n, fmt, tmp_path):
    # Float64, int (within 2**53 and past it), bool and categorical columns,
    # with specials, -0.0, exact ties, and missing values as None and NaN,
    # write the bytes the token-by-token renderer writes.
    table, rows = _mixed_table(np.random.default_rng(n), n)
    out = tmp_path / f"mixed.{fmt}"
    _write_output(RunConfig(command="bands", out_path=str(out), format=fmt), table)
    text = out.read_text()
    if fmt == "csv":
        _assert_same_text(text, ",".join(table) + "\n" + _row_text(rows, fmt))
        return
    head = text[: text.index('"rows":[') + len('"rows":[')]
    _assert_same_text(text, head + _row_text(rows, fmt) + "]}\n")
    finite = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in rows]
    assert json.loads(text)["rows"] == [list(row) for row in finite]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_in_parts_writes_the_bytes_of_the_whole(fmt, tmp_path):
    # Parts of 0, 1, 1,499 and 556 rows: the buffer grows after the first
    # rows, and blocks end at part ends.  Every column kind but the ints
    # past 2**53, whose categorical values differ from part to part.
    n = 2 * _BLOCK_ROWS + 7
    table, _ = _mixed_table(np.random.default_rng(9), n)
    del table["near"], table["wide"]
    cuts = (0, 0, 1, 1500, n)

    def rows(column, lo, hi):
        return (column[0][lo:hi], column[1]) if isinstance(column, tuple) else column[lo:hi]

    parts = [{name: rows(c, lo, hi) for name, c in table.items()} for lo, hi in zip(cuts, cuts[1:])]
    whole, split = tmp_path / f"whole.{fmt}", tmp_path / f"split.{fmt}"
    _write_output(RunConfig(command="bands", out_path=str(whole), format=fmt), table)
    _write_output(RunConfig(command="bands", out_path=str(split), format=fmt), parts)
    _assert_same_text(split.read_text(), whole.read_text())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, header",
    [
        (["bound", "--word", "S", "--gamma", "-4"], "word,gamma,q,index,beta_star"),
        (["bands", "--word", "S", "--gamma", "4", "--beta-min", "3.2", "--beta-max", "3.3"],
         "word,gamma,q,germ_index,beta_lo,beta_hi,edge_kind_lo,edge_kind_hi"),
    ],
    ids=["bound", "bands"],
)
def test_a_table_without_rows_writes_the_header_alone(argv, header, fmt, tmp_path):
    out = tmp_path / f"empty.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "csv":
        assert text == header + "\n"
    else:
        columns = ",".join(f'"{c}"' for c in header.split(","))
        assert text.endswith(f'"columns":[{columns}],"rows":[]}}\n')
        assert json.loads(text)["rows"] == []


def _ties(rng, count):
    """Exact ties at 17 digits: odd multiples of 2**-p whose 18th and last digit is a 5.

    m / 2**p has p decimals, so 18 digits when it lies in [10**(17-p), 10**(18-p)).
    """
    ties = []
    while len(ties) < count:
        p = int(rng.integers(2, 26))
        lo = math.ceil(Fraction(10) ** (17 - p) * 2**p)
        hi = min(Fraction(10) ** (18 - p) * 2**p, 2**53)
        m = int(rng.integers(lo, max(lo + 1, math.ceil(hi)))) | 1
        if m < hi:
            ties.append(math.ldexp(m, -p))
    return ties


def test_block_text_matches_python_format():
    # Every float64 class the digit step treats apart, checked against CPython.
    rng = np.random.default_rng(14)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    steps = np.arange(-20, 21)
    near_tens = tens.view(np.int64)[:, None] + steps
    near_tens = near_tens[near_tens >= 0].view(np.float64)  # 1e-323 is 2 ulps above 0
    ties = [1377037368961076.25, *_ties(rng, 2000)]
    assert all(len(Decimal(t).as_tuple().digits) == 18 for t in ties)
    assert _digits(np.array(ties))[2].all()  # every tie goes to Python
    short = [float(f"{k}e{j}") for k, j in zip(rng.integers(1, 10**5, 3000), rng.integers(-30, 30, 3000))]
    decade = rng.uniform(1.0, 10.0, 500)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)],  # the whole range
        near_tens, -near_tens,
        ties, np.negative(ties),
        short,  # short decimals
        *(float(c) + steps for c in (2**53, 10**16, 10**17)),
        *(decade * 10.0**e for e in (-5, -4, 16, 17)),  # either side of %g's switch
        rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(100, 308, 2000),
        rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(-308, -99, 2000),
        rng.integers(1, 2**52, 2000).view(np.float64),  # subnormals
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    ])
    assert np.isfinite(values).all()
    want = "".join(format(v, ".17g") + "\n" for v in values.tolist())
    got = b"".join(blocks([[values]], "csv", values.size)).decode()
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got.split(), want.split())) if a != b)
        pytest.fail(f"{values[bad]!r}: {got.split()[bad]} != {want.split()[bad]}")


def _layout_values():
    """Positive floats at each edge of the float slot.

    Every "." inside fixed notation (after integer digit 1 to 15) with every
    count of stripped zeros after it: whole + odd / 2**d has exactly d
    decimals.  Zeros of the integer part, either side of %g's switches at
    e10 = -4 and 17, and unsure values whose Python text is the longest a
    slot holds: 23 bytes in fixed notation, 24 in scientific notation.
    """
    rng = np.random.default_rng(24)
    dotted = []
    for e10 in range(1, 16):
        for decimals in range(1, 17 - e10):
            whole = int(rng.integers(10**e10, 2 * 10**e10))
            odd = 2 * int(rng.integers(0, 2 ** (decimals - 1))) + 1
            value = float(Fraction(whole) + Fraction(odd, 2**decimals))
            text = format(value, ".17g")
            assert text.index(".") == e10 + 1 and len(text) == e10 + 2 + decimals, text
            dotted.append(value)
    integers = [10.0, 1200.0, 100000.5, 1e15, 1e15 + 0.5, 2.0**53, 1e16, 12345678901234560.0, 1.5e16]
    switches = [1e-5, 1.5e-5, 9.999e-5, 1e-4, 1.25e-4, 2.0**54, 1e17, 1.5e17, 123456789012345678.0]
    unsure = [211 / 2**21, 43 / 2**22, 1.2345678901234567e-300, 1.2345678901234567e300, 5e-324]
    assert [len(format(-v, ".17g")) for v in unsure] == [23, 23, 24, 24, 24]
    assert _digits(np.array(unsure[:2]))[2].all()  # exact ties at the 17th digit
    return np.array(dotted + integers + switches + unsure)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_slots_at_every_edge_of_the_layout(fmt, tmp_path):
    # Alone, next to a categorical column and as a row's last column, in
    # both signs, each float is written as format(v, ".17g") writes it.
    values = _layout_values()
    values = np.concatenate([values, -values])
    want = "".join(format(v, ".17g") + "\n" for v in values.tolist())
    if fmt == "csv":
        _assert_same_text(b"".join(blocks([[values]], fmt, 64)).decode(), want)
    codes = np.arange(values.size) % len(MIXED_VALUES)
    table = {"x": values, "mixed": (codes, MIXED_VALUES), "y": values[::-1].copy()}
    rows = list(zip(values.tolist(), [MIXED_VALUES[c] for c in codes.tolist()], values[::-1].tolist()))
    out = tmp_path / f"edges.{fmt}"
    _write_output(RunConfig(command="bands", out_path=str(out), format=fmt), table)
    text = out.read_text()
    if fmt == "csv":
        _assert_same_text(text, "x,mixed,y\n" + _row_text(rows, fmt))
    else:
        head = text[: text.index('"rows":[') + len('"rows":[')]
        _assert_same_text(text, head + _row_text(rows, fmt) + "]}\n")


def test_the_writer_tables_stay_small():
    # Every process that imports the CLI holds them, so they count in the
    # peak memory of every command.
    assert sum(t.nbytes for t in vars(_g17).values() if isinstance(t, np.ndarray)) <= 128 * 1024


def test_bound_command_csv(tmp_path):
    out = tmp_path / "bound.csv"
    cfg = RunConfig(command="bound", word_spec="S", gamma=4.0, q=1.0, out_path=str(out))
    assert run(cfg) == 0
    header, rows = read_csv(out)
    assert header == ["word", "gamma", "q", "index", "beta_star"]
    assert len(rows) == 1
    assert float(rows[0][4]) == pytest.approx(2.0, abs=1e-9)


def test_bands_command_csv(tmp_path):
    out = tmp_path / "bands.csv"
    cfg = RunConfig(command="bands", word_spec="SL", gamma=4.0, out_path=str(out))
    assert run(cfg) == 0
    header, rows = read_csv(out)
    assert header[:4] == ["word", "gamma", "q", "germ_index"]
    assert len(rows) == 2
    assert float(rows[0][4]) == pytest.approx(1.361976929, abs=1e-6)


def test_scatter_command_row_count(tmp_path):
    out = tmp_path / "scatter.csv"
    cfg = RunConfig(
        command="scatter", word_spec="fib:m=4", gamma=2.0,
        beta_min=0.5, beta_max=3.0, steps=100, out_path=str(out),
    )
    assert run(cfg) == 0
    header, rows = read_csv(out)
    assert len(rows) == 101
    assert header[-2:] == ["abs_s_pp", "abs_s_mp"]
    for row in rows[:: 20]:
        assert float(row[-2]) ** 2 + float(row[-1]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_wave_command_plane_initial_free_string(tmp_path):
    out = tmp_path / "wave.csv"
    cfg = RunConfig(
        command="wave", word_spec="fib:m=5", gamma=0.0, beta=1.3,
        initial="plane", regime=Regime.SCATTERING, out_path=str(out),
    )
    assert run(cfg) == 0
    header, rows = read_csv(out)
    assert header == ["position", "psi_re", "psi_im", "dpsi_re", "dpsi_im", "abs_psi"]
    for row in rows:
        assert float(row[5]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "regime_args", [[], ["--regime", "bound", "--beta", "1.0"]], ids=["scattering", "bound"]
)
def test_wave_abs_psi_is_python_abs(regime_args, tmp_path):
    # np.abs(complex) differs from Python's abs in the last bit on about a
    # third of these rows; the written column must be abs(complex(re, im)).
    out = tmp_path / "wave.csv"
    argv = ["wave", "--word", "fib:m=10", "--gamma", "2", *regime_args, "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_csv(out)
    assert header[1:3] == ["psi_re", "psi_im"] and header[5] == "abs_psi"
    assert len(rows) == 1 + 64 * 55
    for row in rows:
        assert float(row[5]) == abs(complex(float(row[1]), float(row[2])))


def test_wave_command_default_energy_is_commuting(tmp_path):
    out = tmp_path / "wave.csv"
    cfg = RunConfig(
        command="wave", word_spec="fib:m=6", gamma=2.0,
        regime=Regime.SCATTERING, out_path=str(out),
    )
    assert run(cfg) == 0
    _, rows = read_csv(out)
    # Positions span the word length in units of b: 3 + 5*tau for W_6.
    assert float(rows[-1][0]) == pytest.approx(3 + 5 * TAU, abs=1e-9)


def test_dos_command_rejects_composite_words(tmp_path, capsys):
    cfg = RunConfig(command="dos", word_spec="SL", out_path=str(tmp_path / "x.csv"))
    assert run(cfg) == 1
    assert "ParseError" in capsys.readouterr().err


def test_binding_command_rejects_long_cells(tmp_path, capsys):
    cfg = RunConfig(command="binding", word_spec="SLS", out_path=str(tmp_path / "x.csv"))
    assert run(cfg) == 1
    assert "ParseError" in capsys.readouterr().err


def test_grid_error_surfaces_token(tmp_path, capsys, monkeypatch):
    # Band edges are counted exactly, so a refusal needs an injected count
    # that rises with beta.
    def rising(word, q, betas, cells, regime, dirichlet=False):
        return (betas > 3.0).astype(np.int64)

    monkeypatch.setattr("deltachain.spectra._sturm", rising)
    out = tmp_path / "x.csv"
    cfg = RunConfig(command="bands", word_spec="fib:m=6", gamma=10.0, out_path=str(out))
    assert run(cfg) == 1
    assert capsys.readouterr().err.startswith("GridTooCoarse:")
    assert not out.exists()


def test_atlas_refusal_names_the_first_refused_query(tmp_path, capsys, monkeypatch):
    # A count rising with beta is injected for two queries.  The atlas runs
    # one batch per cell and regime, yet names the first refused query in
    # its (gamma, cell, regime) row order, and writes no file.
    real = spectra._edge_count
    refused = {("L", Regime.SCATTERING): 1.0, ("S", Regime.BOUND): 2.0}

    def count(word, gamma, q, betas, regime):
        at = np.broadcast_to(gamma, betas.shape) == refused.get((str(word), regime), math.nan)
        return np.where(at, (betas > 3.0).astype(np.int64), real(word, gamma, q, betas, regime))

    monkeypatch.setattr(spectra, "_edge_count", count)
    out = tmp_path / "atlas.csv"
    cfg = RunConfig(
        command="atlas", gamma_min=-2.0, gamma_max=2.0, gamma_steps=5, steps=400, out_path=str(out)
    )
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("GridTooCoarse: the band-edge count rises with beta on [")
    assert err.rstrip().endswith("(word L, gamma = 1.0, scattering regime)")
    assert not out.exists()


def test_fib_info_command(tmp_path):
    out = tmp_path / "info.csv"
    cfg = RunConfig(command="fib-info", word_spec="fib:m=8", out_path=str(out))
    assert run(cfg) == 0
    header, rows = read_csv(out)
    assert header == ["m", "word", "length", "count_S", "count_L"]
    assert rows[0][0] == "8"
    assert rows[0][2:] == ["21", "8", "13"]


def test_commute_command(tmp_path):
    out = tmp_path / "commute.csv"
    cfg = RunConfig(command="commute", gamma=0.5, p_max=2, out_path=str(out))
    assert run(cfg) == 0
    header, rows = read_csv(out)
    assert header[0] == "p"
    assert len(rows) == 2
    assert float(rows[0][1]) == pytest.approx(TAU * math.pi, abs=1e-12)
    assert rows[0][2] == "true"
    assert float(rows[0][4]) < 1e-9


def test_atlas_comment_and_marker_rows(tmp_path):
    out = tmp_path / "atlas.csv"
    cfg = RunConfig(
        command="atlas", gamma_min=-2.0, gamma_max=2.0, gamma_steps=5,
        steps=400, beta_max=6.0, out_path=str(out),
    )
    assert run(cfg) == 0
    with open(out) as fh:
        first = fh.readline()
    assert first.startswith("# ")
    header, rows = read_csv(out)
    assert header == ["gamma", "cell", "edge_kind", "beta"]
    markers = [r for r in rows if r[2] == "commuting_line"]
    assert len(markers) == 1  # only tau*pi fits below beta_max = 6
    assert markers[0][0] == ""  # no gamma on a marker row
    assert float(markers[0][3]) == pytest.approx(-TAU * math.pi, abs=1e-12)
    # scattering edges are serialized negative, bound edges positive
    assert any(float(r[3]) < 0 for r in rows if r[2] != "commuting_line")
    assert any(float(r[3]) > 0 for r in rows)


def test_json_envelope(tmp_path):
    out = tmp_path / "bound.json"
    cfg = RunConfig(
        command="bound", word_spec="S", gamma=4.0, q=1.0,
        out_path=str(out), format="json",
    )
    assert run(cfg) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["command"] == "bound"
    assert doc["config"]["regime"] == "bound"
    assert doc["config"]["word_spec"] == "S"
    assert doc["columns"][-1] == "beta_star"
    assert doc["rows"][0][-1] == pytest.approx(2.0, abs=1e-9)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        cfg = RunConfig(
            command="scatter", word_spec="fib:m=5", gamma=2.0,
            beta_min=0.3, beta_max=4.0, steps=200, out_path=str(path),
        )
        assert run(cfg) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_main_happy_path(tmp_path, capsys):
    out = tmp_path / "info.csv"
    code = main(["fib-info", "--word", "fib:m=5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert out.exists()


def test_main_rejects_invalid_config(tmp_path, capsys):
    code = main(["dos", "--steps", "50", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("InvalidConfig:")


def test_main_surfaces_parse_errors(tmp_path, capsys):
    code = main(["bound", "--word", "SLX", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("ParseError:")


def test_main_builds_the_named_commands_parser_alone(tmp_path, monkeypatch, capsys):
    # A named command gets its own subparser; --help, --version and an
    # unknown command get all nine, so their text lists every command.
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda commands=COMMANDS: built.append(tuple(commands)) or real(commands))
    assert main(["fib-info", "--out", str(tmp_path / "x.csv")]) == 0
    for argv, code in ((["--help"], 0), (["--version"], 0), (["bogus"], 2)):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
    assert built == [("fib-info",), COMMANDS, COMMANDS, COMMANDS]
    out, err = capsys.readouterr()
    assert all(c in out and c in err for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_one_command_parser_helps_as_the_full_one(command, capsys):
    helps = []
    for commands in (COMMANDS, (command,)):
        with pytest.raises(SystemExit) as exit_:
            _build_parser(commands).parse_known_args([command, "--help"])
        helps.append((exit_.value.code, capsys.readouterr().out))
    assert helps[0] == helps[1] and helps[0][0] == 0


def test_module_entry_point(tmp_path):
    out = tmp_path / "info.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "deltachain", "fib-info", "--word", "S^3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(out)
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--word", "fib:m=4", "--gamma", "nan"],
        ["bound", "--gamma", "inf"],
        ["bands", "--q=-inf"],
        ["scatter", "--beta-max", "inf"],
        ["atlas", "--gamma-min", "nan"],
    ],
)
def test_main_rejects_non_finite_inputs(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma_steps", ["-1", "0"])
def test_atlas_rejects_fewer_than_one_gamma(gamma_steps, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["atlas", "--gamma-steps", gamma_steps, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("InvalidConfig: gamma_steps must be >= 1")
    assert not out.exists()


def test_atlas_rejects_a_reversed_gamma_window(tmp_path, capsys):
    # As every beta window refuses lo >= hi; gamma_min = gamma_max is one gamma.
    out = tmp_path / "x.csv"
    assert main(["atlas", "--gamma-min", "2", "--gamma-max", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("InvalidConfig: gamma_min must be <= gamma_max")
    assert not out.exists()
    RunConfig(command="atlas", gamma_min=1.0, gamma_max=1.0)


def test_non_finite_gamma_exits_2_without_traceback(tmp_path):
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "deltachain", "bands", "--word", "fib:m=4", "--gamma", "nan",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("InvalidConfig:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_config_rejects_non_positive_scales():
    with pytest.raises(ValueError):
        RunConfig(command="bands", q=0.0)
    with pytest.raises(ValueError):
        RunConfig(command="bands", beta_min=0.0)
    with pytest.raises(ValueError):
        RunConfig(command="wave", beta=-1.0)


def test_run_config_checks_initial_and_the_wave_energy(tmp_path):
    # Only the parser checked these: a library caller got a plane wave for
    # any initial but "bloch", and tau*pi in the Bound regime without beta.
    with pytest.raises(ValueError, match="initial must be bloch or plane"):
        RunConfig(command="wave", initial="Bloch", regime=Regime.SCATTERING)
    with pytest.raises(ValueError, match="wave --regime bound needs --beta"):
        RunConfig(command="wave")
    RunConfig(command="wave", regime=Regime.BOUND, beta=1.0)
    RunConfig(command="bands", initial="bloch")
    # Without beta the library call writes what the command line writes.
    lib, cli = tmp_path / "lib.csv", tmp_path / "cli.csv"
    assert run(RunConfig(command="wave", regime=Regime.SCATTERING, out_path=str(lib))) == 0
    assert main(["wave", "--out", str(cli)]) == 0
    assert lib.read_bytes() == cli.read_bytes()


def test_atlas_tables_each_chunk_once_per_letter(tmp_path, monkeypatch):
    # Each scan tables its points once per letter, for all 401 gammas of a
    # cell and regime: the first count tables every gamma's window ends and
    # first cut (401 x 17 points) in one call, and the atlas makes 57 calls
    # in all.  A scan that tabled them once per gamma would make 401 calls
    # per scan; unlike wall time, the count repeats exactly on any host.
    calls = []
    real = kernel._cell_table

    def counted(betas, regime, ratio):
        calls.append((betas.size, regime, ratio))
        return real(betas, regime, ratio)

    monkeypatch.setattr(kernel, "_cell_table", counted)
    config = RunConfig(command="atlas", gamma_steps=401, out_path=str(tmp_path / "atlas.csv"))
    assert run(config) == 0
    first = config.gamma_steps * (spectra._PIECES + 1)
    assert first <= kernel._CHUNK  # one chunk
    scans = [(regime, ratio) for size, regime, ratio in calls if size == first]
    assert sorted(scans, key=repr) == sorted(((r, ratio) for r in Regime for ratio in (1.0, TAU)), key=repr)
    assert len(calls) <= 60


def test_dos_without_a_germ_surfaces_token(tmp_path, capsys):
    code = main(["dos", "--gamma", "-2", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("OutOfBand: expected one single-cell germ, found 0")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="_sturm's Dirichlet carry cancels to 0/0")
def test_dos_at_strong_coupling_reports_no_germ(tmp_path, capsys):
    # The single cell's germ lies near gamma/2, out of range, but the edge
    # count refuses first with a false OverflowRisk (see
    # test_strong_single_cell_has_no_germ_in_range).
    code = main(["dos", "--gamma", "1e15", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("OutOfBand: expected one single-cell germ, found 0")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scatter_rows_are_the_scalar_s_matrix(fmt, tmp_path):
    # The whole-grid evaluation writes, row for row, the tokens of the
    # one-point s_matrix at each beta.
    out = tmp_path / f"scatter.{fmt}"
    cfg = RunConfig(
        command="scatter", word_spec="fib:m=6", gamma=-2.0,
        beta_min=0.05, beta_max=9.0, steps=300, out_path=str(out), format=fmt,
    )
    assert run(cfg) == 0
    if fmt == "csv":
        header, rows = read_csv(out)
        token = lambda v: _token(v, "csv")  # noqa: E731
    else:
        text = out.read_text()
        header = json.loads(text)["columns"]
        body = text[text.index('"rows":[[') + len('"rows":[[') : -len("]]}\n")]
        rows = [row.split(",") for row in body.split("],[")]
        token = lambda v: _token(v, "json")  # noqa: E731
    assert header == ["beta", *S_COLUMNS]
    word = fibonacci_word(6)
    betas = np.linspace(0.05, 9.0, 301)
    assert len(rows) == betas.size
    for beta, row in zip(betas.tolist(), rows):
        S = s_matrix(word, ChainParams(beta, -2.0, TAU, Regime.SCATTERING))
        values = (
            beta,
            S.s_pp.real, S.s_pp.imag, S.s_pm.real, S.s_pm.imag,
            S.s_mp.real, S.s_mp.imag, S.s_mm.real, S.s_mm.imag,
            abs(S.s_pp), abs(S.s_mp),
        )
        assert row == [token(v) for v in values]


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "deltachain", *argv], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--word", "fib:m=15", "--gamma", "30", "--beta-max", "0.3"],
        ["scatter", "--word", "fib:m=14", "--gamma", "200", "--beta-min", "0.001",
         "--beta-max", "0.01", "--steps", "100"],
        ["atlas", "--beta-min", "1e-300", "--gamma-min", "0", "--gamma-max", "1e10", "--gamma-steps", "5"],
        ["atlas", "--beta-min", "1e-305", "--gamma-min", "-5", "--gamma-max", "5", "--gamma-steps", "5"],
        ["commute", "--gamma", "1e100"],
        ["bands", "--word", "fib:m=12", "--gamma", "10"],
    ],
)
def test_overflow_exits_1_with_token_and_no_file(argv, tmp_path):
    # Entries that outgrow float64 used to leave a header-only file (bands)
    # or rows of empty tokens (scatter, commute) behind an exit status of 0.
    # The atlas's screened one-cell scan must refuse as the per-gamma scan
    # does, and must not divide by a zero slope where lam == 1/lam == 1.0.
    # W_12's Bound entries at gamma = 10 reach about exp(1195) by beta = 6.
    out = tmp_path / "x.csv"
    proc = _run_module(*argv, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("OverflowRisk: transfer-matrix entries are not finite")
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, token",
    [
        (["fib-info", "--word", "fib:m=0"], 1, "ParseError: Fibonacci order must be >= 1"),
        (["bands", "--word", "fib:m=0"], 1, "ParseError: Fibonacci order must be >= 1"),
        (["commute", "--p-max", "0"], 2, "InvalidConfig: p_max must be >= 1"),
        (["wave", "--word", "S", "--beta", "1e-320"], 2, "InvalidConfig: gamma and gamma/beta must be"),
        (["wave", "--word", "fib:m=14", "--regime", "scattering", "--beta", "1e-150",
          "--initial", "plane"], 1, "OverflowRisk: wavefunction coefficients are not finite"),
        (["wave", "--word", "fib:m=10", "--gamma", "1", "--regime", "bound", "--beta", "9.39",
          "--initial", "plane"], 1, "OverflowRisk: wavefunction samples are not finite in cells 0-54"),
    ],
)
def test_out_of_range_orders_and_energies_exit_with_token_and_no_file(argv, code, token, tmp_path):
    # Each used to end in a ValueError traceback, or (wave) in blank rows
    # behind an exit status of 0: gamma/beta overflowed to inf (65 rows), or
    # the wavefunction coefficients did (2,496 of 24,129 rows).  In the Bound
    # case the coefficients stay finite but the last cell's samples grow
    # past float64 (beta*length is about 714) after the file is opened.
    out = tmp_path / "x.csv"
    proc = _run_module(*argv, "--out", str(out))
    assert proc.returncode == code
    assert proc.stderr.startswith(token)
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "size, code, token",
    [
        # Exabytes of grid: above any address space, so the allocator
        # refuses at once and nothing is allocated.
        (10**17, 1, "MemoryError: "),
        # More bytes than intp holds: refused before anything runs.
        (10**30, 2, "InvalidConfig: steps or gamma_steps asks for a grid larger than numpy can index"),
    ],
)
@pytest.mark.parametrize("command", ["scatter", "dos", "binding", "atlas"])
def test_absurd_grid_sizes_exit_with_token_and_no_file(command, size, code, token, tmp_path, capsys):
    # Each used to end in numpy's _ArrayMemoryError or ValueError traceback.
    out = tmp_path / "x.csv"
    flag = "--gamma-steps" if command == "atlas" else "--steps"
    assert main([command, flag, str(size), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(token)
    assert not out.exists()


@pytest.mark.parametrize("size", [pytest.param(10**17, id="1e17"), pytest.param(10**30, id="1e30")])
@pytest.mark.parametrize("command", ["bands", "bound"])
def test_absurd_steps_are_refused_where_no_grid_is_scanned(command, size, tmp_path, capsys):
    # bands and bound scan no grid, so they refuse --steps whatever its size:
    # neither the allocator's MemoryError nor the intp bound is reached.
    out = tmp_path / "x.csv"
    assert main([command, "--steps", str(size), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"InvalidConfig: --steps does not apply to {command}")
    assert not out.exists()


# The flags each command would ignore, and so refuses: --regime everywhere
# but in bands and wave, and each flag of a field the command does not read.
# bands, bound and atlas scan no grid, so they refuse --steps.
IGNORED = {
    "bands": ["--steps"],
    "bound": ["--regime", "--steps"],
    "scatter": ["--regime"],
    "atlas": ["--regime", "--word", "--gamma", "--steps"],
    "wave": ["--beta-min", "--beta-max", "--steps"],
    "dos": ["--regime", "--q"],
    "binding": ["--regime", "--q"],
    "fib-info": ["--regime", "--gamma", "--q", "--beta-min", "--beta-max", "--steps"],
    "commute": ["--regime", "--word", "--q", "--beta-min", "--beta-max", "--steps"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(command, flag, id=command if flag == "--regime" else command + flag)
        for command, flags in IGNORED.items()
        for flag in flags
    ],
)
def test_regime_is_rejected_where_it_is_ignored(command, flag, tmp_path):
    out = tmp_path / "x.csv"
    value = {"--regime": "bound", "--word": "S", "--steps": "200"}.get(flag, "1")
    proc = _run_module(command, flag, value, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"InvalidConfig: {flag} does not apply to {command}")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_regime_is_read_by_bands_and_wave(tmp_path, capsys):
    bands = tmp_path / "bands.json"
    assert main(["bands", "--regime", "scattering", "--format", "json", "--out", str(bands)]) == 0
    assert json.loads(bands.read_text())["config"]["regime"] == "scattering"
    wave = tmp_path / "wave.csv"
    assert main(["wave", "--regime", "bound", "--beta", "1.0", "--out", str(wave)]) == 0
    # Without --beta, wave runs at tau*pi in the scattering regime, so an
    # explicit bound regime there would be dropped.
    assert main(["wave", "--regime", "scattering", "--out", str(wave)]) == 0
    no_beta = tmp_path / "no_beta.csv"
    assert main(["wave", "--regime", "bound", "--out", str(no_beta)]) == 2
    assert "InvalidConfig: wave --regime bound needs --beta" in capsys.readouterr().err
    assert not no_beta.exists()
    # Without --regime the envelope keeps the configuration default.
    scatter = tmp_path / "scatter.json"
    assert main(["scatter", "--steps", "100", "--format", "json", "--out", str(scatter)]) == 0
    assert json.loads(scatter.read_text())["config"]["regime"] == "bound"


# Each RunConfig field's flag, and a value unlike the field's default.
FLAG_VALUES = {
    "word_spec": ("--word", "SL"),
    "gamma": ("--gamma", 2.5),
    "q": ("--q", 1.5),
    "beta_min": ("--beta-min", 0.5),
    "beta_max": ("--beta-max", 5.0),
    "steps": ("--steps", 200),
    "regime": ("--regime", Regime.SCATTERING),
    "beta": ("--beta", 1.25),
    "initial": ("--initial", "plane"),
    "p_max": ("--p-max", 2),
    "gamma_min": ("--gamma-min", -1.0),
    "gamma_max": ("--gamma-max", 1.0),
    "gamma_steps": ("--gamma-steps", 3),
    "out_path": ("--out", "x.json"),
    "format": ("--format", "json"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_flag_lands_in_its_field_and_defaults_to_run_config(command):
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    reads = (*READS[command], "out_path", "format")
    assert set(FLAGS) == set(defaults) - {"command"}
    assert {f: v[0] for f, v in FLAG_VALUES.items()} == {f: v[0] for f, v in FLAGS.items()}

    def config(*left_out):
        argv = [command]
        for field in reads:
            if field not in left_out:
                flag, value = FLAG_VALUES[field]
                argv += [flag, getattr(value, "value", str(value))]
        args, extra = _build_parser().parse_known_args(argv)
        assert extra == []
        return _config_from_args(args, extra)

    given = config()  # every flag the command reads; the other fields keep their defaults
    for field in FLAGS:
        if field in reads:
            assert FLAG_VALUES[field][1] != defaults[field]
            assert getattr(given, field) == FLAG_VALUES[field][1], field
        else:
            assert getattr(given, field) == defaults[field], field
    for field in reads:  # each flag left out in turn
        want = f"{command}.json" if field == "out_path" else defaults[field]
        assert getattr(config(field), field) == want, field


def test_readme_cli_lines_parse_and_list_each_commands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("deltachain ")]
    assert sorted({argv[0] for argv in lines}) == sorted(COMMANDS)
    for argv in lines:
        assert _build_parser().parse_known_args(argv)[1] == [], argv
    # One "- `<command>`: `--flag`, ..." line per command names the flags it reads.
    listed = dict(re.findall(r"^- `([a-z-]+)`: (.*)$", section, flags=re.M))
    assert sorted(listed) == sorted(COMMANDS)
    for command, text in listed.items():
        want = [FLAGS[f][0] for f in (*READS[command], "out_path", "format")]
        assert sorted(re.findall(r"`(--[a-z-]+)", text)) == sorted(want), command


@pytest.mark.parametrize(
    "out, token",
    [("missing/x.csv", "FileNotFoundError: "), (".", "IsADirectoryError: ")],
    ids=["missing-dir", "directory"],
)
def test_unwritable_out_exits_1_with_token_and_no_file(out, token, tmp_path, capsys):
    # Both used to end in a traceback.
    assert main(["fib-info", "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(token) and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _first_block_then(err, resumed):
    """A _g17.blocks that yields the first block of a file, then raises err."""

    def failing(parts, fmt, size):
        yield next(blocks(parts, fmt, size))
        resumed.append(True)  # the first block was written
        raise err

    return failing


@pytest.mark.parametrize(
    "err, token",
    [(OSError(errno.ENOSPC, "No space left on device"), "OSError: [Errno 28] "), (MemoryError(), "MemoryError: ")],
    ids=["enospc", "memory"],
)
def test_a_failure_after_the_first_block_leaves_no_file(err, token, tmp_path, capsys, monkeypatch):
    # Both used to leave a truncated file behind an exit status of 1.
    resumed = []
    monkeypatch.setattr(cli, "blocks", _first_block_then(err, resumed))
    assert main(["scatter", "--steps", "3000", "--out", str(tmp_path / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert resumed and captured.err.startswith(token) and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_refusal_in_a_later_wave_part_leaves_no_file(tmp_path, capsys, monkeypatch):
    # W_12's 144 cells make two parts; the second refuses after the initial
    # row and the first part's 8,192 rows are written.
    sampled = []

    def refusing(*args):
        for part in states._cell_samples(*args):
            sampled.append(part)
            if len(sampled) == 2:
                raise OverflowRisk("wavefunction samples are not finite")
            yield part

    monkeypatch.setattr(cli, "_cell_samples", refusing)
    assert main(["wave", "--word", "fib:m=12", "--out", str(tmp_path / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert len(sampled) == 2 and captured.err.startswith("OverflowRisk: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_failed_run_never_removes_what_is_not_a_regular_file(tmp_path, capsys, monkeypatch):
    # --out may name a device or a FIFO (/dev/null, say), which a failed run
    # must leave in place; a regular file reported as not regular stands in.
    out = tmp_path / "x.csv"
    monkeypatch.setattr(cli, "blocks", _first_block_then(OSError(errno.ENOSPC, "No space left on device"), []))
    monkeypatch.setattr(stat, "S_ISREG", lambda mode: False)
    assert main(["scatter", "--steps", "3000", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("OSError: [Errno 28] ")
    assert out.read_text().startswith("beta,s_pp_re,")


def test_wave_memory_stays_bounded_by_the_part(tmp_path):
    # W_19: 4,181 cells, 267,585 rows.  Holding the whole table peaked at
    # 21.8 MB of traced memory; sampling 128 cells at a time while the file
    # is written peaks at about 2.1 MB.
    out = tmp_path / "wave.csv"
    cfg = RunConfig(command="wave", word_spec="fib:m=19", regime=Regime.SCATTERING, out_path=str(out))
    tracemalloc.start()
    try:
        assert run(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


_FAULT_PROBE = """
import resource, sys
from deltachain import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap trimming")
def test_scatter_keeps_its_heap_pages(tmp_path):
    # W_12 over 20,001 betas: with glibc's start-up thresholds the heap top is
    # trimmed after each kernel chunk and writer block and faulted back in,
    # about 7,100 minor faults in all; main's freed 1 MB block keeps it (about
    # 1,400).
    argv = ["scatter", "--word", "fib:m=12", "--steps", "20000", "--gamma", "4", "--out", str(tmp_path / "s.csv")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) < 3500


_FLOAT_FLAG_RUNS = {  # one command per float flag; -1e-3 is invalid for q, beta_min, beta_max and beta
    "gamma": ["bands", "--word", "S"],
    "q": ["bands"],
    "beta_min": ["bands"],
    "beta_max": ["bands"],
    "beta": ["wave", "--regime", "scattering"],
    "gamma_min": ["atlas", "--gamma-steps", "3"],
    "gamma_max": ["atlas", "--gamma-steps", "3"],
}


@pytest.mark.parametrize("field", sorted(_FLOAT_FLAG_RUNS))
def test_float_flags_take_a_negative_number_in_exponent_notation(field, tmp_path, capsys):
    # argparse takes -1e-3 for a flag ("expected one argument") unless it is
    # written --flag=-1e-3; both forms must write the same bytes, or refuse
    # with the same InvalidConfig token.
    assert {f for f, (_, kw) in FLAGS.items() if kw.get("type") is float} == set(_FLOAT_FLAG_RUNS)
    flag, argv = FLAGS[field][0], _FLOAT_FLAG_RUNS[field]
    results = []
    for i, value in enumerate(([flag, "-1e-3"], [f"{flag}=-1e-3"])):
        out = tmp_path / f"{i}.csv"
        code = main([*argv, *value, "--out", str(out)])
        results.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]
    code, err, data = results[0]
    if field in ("gamma", "gamma_min", "gamma_max"):
        assert code == 0 and data
    else:
        assert code == 2 and err.startswith("InvalidConfig: ") and data is None


def test_a_negative_gamma_in_exponent_notation_from_the_shell(tmp_path):
    # The same through sys.argv.
    argv = ["bands", "--word", "S"]
    proc = _run_module(*argv, "--gamma", "-1e-3", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 0 and proc.stderr == ""
    assert main([*argv, "--gamma=-1e-3", "--out", str(tmp_path / "y.csv")]) == 0
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
