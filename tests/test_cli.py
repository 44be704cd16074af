"""Word-spec parsing, command execution, output formats, and determinism."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from deltachain.cli import RunConfig, main, parse_word_spec, run, _fmt, _json_token
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
    assert _fmt(None) == ""
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(3) == "3"
    assert _fmt(1.5) == "1.5"
    assert _fmt(float("nan")) == ""
    assert _json_token(float("inf")) == "null"
    assert _json_token('a"b') == '"a\\"b"'
    assert _json_token(None) == "null"


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


def test_grid_error_surfaces_token(tmp_path, capsys):
    cfg = RunConfig(
        command="bound", word_spec="fib:m=6", gamma=10.0, out_path=str(tmp_path / "x.csv")
    )
    assert run(cfg) == 1
    assert capsys.readouterr().err.startswith("GridTooCoarse:")


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


@pytest.mark.parametrize("raw", ["0", "abc"])
def test_main_rejects_bad_thread_count(raw, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELTACHAIN_THREADS", raw)
    code = main(["bands", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig:") and "DELTACHAIN_THREADS" in err


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
        token = _fmt
    else:
        text = out.read_text()
        header = json.loads(text)["columns"]
        body = text[text.index('"rows":[[') + len('"rows":[[') : -len("]]}\n")]
        rows = [row.split(",") for row in body.split("],[")]
        token = _json_token
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
    ],
)
def test_overflow_exits_1_with_token_and_no_file(argv, tmp_path):
    # Entries that outgrow float64 used to leave a header-only file (bands)
    # or rows of empty tokens (scatter) behind an exit status of 0.
    out = tmp_path / "x.csv"
    proc = _run_module(*argv, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("OverflowRisk: transfer-matrix entries are not finite")
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["bound", "scatter", "atlas", "dos", "binding", "fib-info", "commute"]
)
def test_regime_is_rejected_where_it_is_ignored(command, tmp_path):
    out = tmp_path / "x.csv"
    proc = _run_module(command, "--regime", "bound", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"InvalidConfig: --regime does not apply to {command}")
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
