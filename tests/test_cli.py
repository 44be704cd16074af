"""Word-spec parsing, command execution, output formats, and determinism."""

import csv
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deltachain import kernel, spectra
from deltachain._g17 import _digits, block_text
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
from deltachain.errors import ParseError
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
        _write_output(RunConfig(command="scatter", out_path=str(out), format=fmt), columns, table)
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
        # Compare through the first differing character: a failure then shows a
        # short excerpt instead of pytest's diff of two 1 MB strings.
        at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b), None)
        if at is None and len(text) != len(want):
            at = min(len(text), len(want))
        assert at is None, (cols, at, text[max(at - 40, 0) : at + 40], want[max(at - 40, 0) : at + 40])
        if fmt == "json":
            rows = json.loads(text)["rows"]
            assert len(rows) == len(table) and all(len(row) == cols for row in rows)
            assert rows[_BLOCK_ROWS + 3][cols // 2] is None
            assert rows[-1][:4] == [None, None, None, -0.0][:cols]


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
    got = block_text(values[:, None], "csv").decode()
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got.split(), want.split())) if a != b)
        pytest.fail(f"{values[bad]!r}: {got.split()[bad]} != {want.split()[bad]}")


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
    code = main(["bands", "--steps", "50", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("InvalidConfig:")


def test_main_surfaces_parse_errors(tmp_path, capsys):
    code = main(["bound", "--word", "SLX", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("ParseError:")


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
    # The x scan tables each chunk of the x4 grid once per letter, for all
    # 401 gammas of a cell and regime.  A scan that tabled it once per gamma
    # would make 401 such calls per cell and regime; unlike wall time, the
    # count repeats exactly on any host.
    calls = []
    real = kernel._cell_table

    def counted(betas, regime, ratio):
        calls.append((betas.size, regime, ratio))
        return real(betas, regime, ratio)

    monkeypatch.setattr(kernel, "_cell_table", counted)
    config = RunConfig(command="atlas", gamma_steps=401, out_path=str(tmp_path / "atlas.csv"))
    assert run(config) == 0
    grid = 4 * config.steps + 1
    assert grid <= kernel._CHUNK + 1  # one chunk
    scans = [(regime, ratio) for size, regime, ratio in calls if size == grid]
    assert sorted(scans, key=repr) == sorted(((r, ratio) for r in Regime for ratio in (1.0, TAU)), key=repr)


def test_dos_without_a_germ_surfaces_token(tmp_path, capsys):
    code = main(["dos", "--gamma", "-2", "--out", str(tmp_path / "x.csv")])
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
    ],
)
def test_overflow_exits_1_with_token_and_no_file(argv, tmp_path):
    # Entries that outgrow float64 used to leave a header-only file (bands)
    # or rows of empty tokens (scatter, commute) behind an exit status of 0.
    # The atlas's screened one-cell scan must refuse as the per-gamma scan
    # does, and must not divide by a zero slope where lam == 1/lam == 1.0.
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
    ],
)
def test_out_of_range_orders_and_energies_exit_with_token_and_no_file(argv, code, token, tmp_path):
    # Each used to end in a ValueError traceback, or (wave) in blank rows
    # behind an exit status of 0: gamma/beta overflowed to inf (65 rows), or
    # the wavefunction coefficients did (2,496 of 24,129 rows).
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
@pytest.mark.parametrize("command", ["bands", "bound", "scatter", "dos", "binding", "atlas"])
def test_absurd_grid_sizes_exit_with_token_and_no_file(command, size, code, token, tmp_path, capsys):
    # Each used to end in numpy's _ArrayMemoryError or ValueError traceback.
    out = tmp_path / "x.csv"
    flag = "--gamma-steps" if command == "atlas" else "--steps"
    assert main([command, flag, str(size), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(token)
    assert not out.exists()


# The flags each command would ignore, and so refuses: --regime everywhere
# but in bands and wave, and each flag of a field the command does not read.
IGNORED = {
    "bound": ["--regime"],
    "scatter": ["--regime"],
    "atlas": ["--regime", "--word", "--gamma"],
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
