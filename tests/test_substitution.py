"""Fibonacci words and the two routes to string matrices.

The blocked cell product (core._fold) and the matrix recursion are implemented
independently; these tests drive each against the other and against
closed forms that hold in degenerate limits (gamma = 0, q = 1).
"""

import itertools
import math

import pytest

from deltachain.core import TAU, ChainParams, Regime, _fold, cell_matrix, CellKind, compose
from deltachain.errors import OrderTooLarge, OverflowRisk
from deltachain.substitution import (
    MAX_ORDER,
    Word,
    fibonacci_number,
    fibonacci_word,
    trace_map_sequence,
    word_counts,
    word_matrix,
)
from deltachain.spectra import band_germs
from deltachain.states import cell_coefficients


def test_fibonacci_numbers():
    assert [fibonacci_number(m) for m in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fibonacci_number(0)


def test_first_words():
    assert str(fibonacci_word(1)) == "S"
    assert str(fibonacci_word(2)) == "L"
    assert str(fibonacci_word(3)) == "SL"
    assert str(fibonacci_word(4)) == "LSL"
    assert str(fibonacci_word(5)) == "SLLSL"
    assert str(fibonacci_word(6)) == "LSLSLLSL"


def test_concatenation_recursion():
    # W_{m+1} = W_{m-1} W_m as plain string concatenation.
    for m in range(3, 15):
        assert str(fibonacci_word(m)) == str(fibonacci_word(m - 2)) + str(fibonacci_word(m - 1))


def test_word_counts_match_direct_count():
    for m in range(1, 16):
        assert fibonacci_word(m).counts() == word_counts(m)
    assert word_counts(1) == (1, 1, 0)
    assert word_counts(2) == (1, 0, 1)
    assert word_counts(12) == (144, 55, 89)


def test_word_length_in_units_of_b():
    w = fibonacci_word(5)  # SLLSL: 2 short, 3 long cells
    assert w.total_ratio(TAU) == pytest.approx(2 + 3 * TAU, abs=1e-15)
    assert w.total_ratio(1.0) == pytest.approx(5.0, abs=0.0)


def test_order_guard():
    with pytest.raises(OrderTooLarge):
        fibonacci_word(MAX_ORDER + 1)
    assert len(fibonacci_word(MAX_ORDER)) == fibonacci_number(MAX_ORDER)


def test_word_validation():
    with pytest.raises(ValueError):
        Word("")
    with pytest.raises(ValueError, match="position 2"):
        Word("SLXSL")


def test_word_matrix_is_left_to_right_product():
    p = ChainParams(0.9, 3.0, TAU)
    S = cell_matrix(p, CellKind.S)
    L = cell_matrix(p, CellKind.L)
    want = compose(compose(S, L), L)
    got = word_matrix(Word("SLL"), p)
    assert got.max_abs_diff(want) == 0.0


def test_fold_multiplies_each_distinct_block_once():
    # W_m has at most 5 distinct 4-letter blocks: W_12 (144 letters) takes
    # 5*3 + 35 = 50 products, not 143.  Sixteen distinct blocks take the
    # letter fold's 63, so no word takes more than its N - 1.  With
    # concatenation as the product, every plan must spell the word back.
    def count(letters):
        calls = []
        got = _fold(letters, {"S": "S", "L": "L"}, lambda u, v: calls.append(1) or u + v)
        assert got == letters
        return len(calls)

    every_block = "".join("".join(b) for b in itertools.product("SL", repeat=4))
    assert len(every_block) == 64
    assert count(fibonacci_word(12).letters) == 50
    assert count(fibonacci_word(19).letters) == 1060
    assert count("S" * 40) == 12
    assert count(every_block) == 63


def test_fold_order_letters_then_blocks():
    # Up to five letters the plan is the letter fold; past that, 4-letter blocks.
    def plan(letters):
        return _fold(letters, {"S": "S", "L": "L"}, lambda u, v: f"({u}{v})")

    assert plan("SLLSL") == "((((SL)L)S)L)"
    assert plan("L") == "L"
    assert plan(fibonacci_word(6).letters) == "((((LS)L)S)(((LL)S)L))"
    assert plan("SLLSLLSLS") == "(((((SL)L)S)(((LL)S)L))S)"


def test_word_matrix_overflow_guard():
    with pytest.raises(OverflowRisk):
        word_matrix(fibonacci_word(10), ChainParams(20.0, 1.0))


def test_word_matrix_refuses_entries_that_overflow():
    # beta*length is only 42, yet the letter product of W_15 at strong
    # coupling outgrows float64: it used to return a matrix of NaN.
    with pytest.raises(OverflowRisk, match="transfer-matrix entries are not finite"):
        word_matrix(fibonacci_word(15), ChainParams(0.05, 30.0))


def test_cross_path_agreement_both_regimes():
    # Letter product vs matrix recursion, m = 1..10, relative 1e-12.
    for regime in (Regime.BOUND, Regime.SCATTERING):
        for beta, gamma in ((0.6, 2.0), (1.4, 5.0), (2.2, 0.7)):
            p = ChainParams(beta, gamma, TAU, regime)
            rows = trace_map_sequence(p, 10)
            for row in rows:
                direct = word_matrix(fibonacci_word(row.m), p)
                scale = max(1.0, direct.max_abs())
                assert row.matrix().max_abs_diff(direct) / scale < 1e-12, (regime, row.m)


def test_recursion_rows_expose_half_traces():
    p = ChainParams(1.0, 4.0, TAU, Regime.SCATTERING)
    rows = trace_map_sequence(p, 8)
    for row in rows:
        assert row.x == pytest.approx((row.a + row.d) / 2, abs=0.0)
        assert row.y == pytest.approx((row.a - row.d) / 2, abs=0.0)


def test_trace_map_requires_three_rows():
    with pytest.raises(ValueError):
        trace_map_sequence(ChainParams(1.0, 1.0), 2)


def test_trace_map_overflow_guard():
    # Bound entries grow doubly fast under the recursion at large beta; the
    # rows that overflow used to come back inf and NaN, and NaN passed the
    # comparison with the scalar trace map.
    with pytest.raises(OverflowRisk, match="^transfer-matrix entries are not finite$"):
        trace_map_sequence(ChainParams(30.0, 1.0), 24)


def test_free_string_traces():
    # gamma = 0: every cell is a bare tunnel, so x_m depends only on the
    # total string length.
    for m in (3, 5, 8):
        w = fibonacci_word(m)
        t = w.total_ratio(TAU)
        pb = ChainParams(0.4, 0.0, TAU)
        assert word_matrix(w, pb).x.real == pytest.approx(math.cosh(0.4 * t), rel=1e-12)
        ps = ChainParams(0.4, 0.0, TAU, Regime.SCATTERING)
        xs = word_matrix(w, ps).x
        assert xs.real == pytest.approx(math.cos(0.4 * t), abs=1e-12)
        assert abs(xs.imag) < 1e-12


def test_equal_cells_give_chebyshev_traces():
    # q = 1 collapses W_m to f_m identical cells, so x_m = T_{f_m}(x_1).
    p = ChainParams(1.1, 2.0, 1.0, Regime.SCATTERING)
    x1 = cell_matrix(p, CellKind.S).x.real
    assert abs(x1) < 1.0
    for m in (4, 6, 9):
        xm = word_matrix(fibonacci_word(m), p).x
        want = math.cos(fibonacci_number(m) * math.acos(x1))
        assert xm.real == pytest.approx(want, abs=1e-9)
        assert abs(xm.imag) < 1e-9


def test_scalar_trace_map_recurrence_holds():
    # x_{m+1} = 2 x_m x_{m-1} - x_{m-2} read off the returned rows.
    p = ChainParams(0.8, 3.0, TAU, Regime.SCATTERING)
    xs = [row.x for row in trace_map_sequence(p, 12)]
    for k in range(3, 12):
        assert xs[k] == pytest.approx(2 * xs[k - 1] * xs[k - 2] - xs[k - 3], rel=1e-9, abs=1e-9)


def test_trace_map_disagreement_raises_typed_error(monkeypatch):
    # Inject a relative error into every recursion row's a entry so the
    # matrix route's half traces drift away from the scalar trace map.
    from deltachain import substitution
    from deltachain.core import TransferMatrix
    from deltachain.errors import ChainError, TraceMapMismatch

    def skewed(a, b, c, d):
        return TransferMatrix(a * (1 + 1e-3), b, c, d)

    monkeypatch.setattr(substitution, "TransferMatrix", skewed)
    with pytest.raises(TraceMapMismatch, match="m = 4") as err:
        trace_map_sequence(ChainParams(1.0, 4.0, TAU, Regime.SCATTERING), 8)
    assert isinstance(err.value, ChainError) and isinstance(err.value, ArithmeticError)
    assert err.value.token == "TraceMapMismatch"


def test_one_exponent_guard_for_products_scans_and_coefficients():
    # W_10 spans 21 + 34*tau = 76.0 b, so at beta = 20 its Bound entries
    # grow like exp(1520), past float64: each route refuses the value that
    # is not finite.
    word, params = fibonacci_word(10), ChainParams(20.0, 1.0)
    with pytest.raises(OverflowRisk, match="^transfer-matrix entries are not finite$"):
        word_matrix(word, params)
    with pytest.raises(OverflowRisk, match="^wavefunction coefficients are not finite at cell 26$"):
        cell_coefficients(word, params, (1.0, -20.0))
    with pytest.raises(OverflowRisk, match=r"^transfer-matrix entries are not finite \(overflow"):
        band_germs(word, 1.0, TAU, (0.05, 20.0))
    # The Scattering regime has no exponential growth: it answers.
    word_matrix(word, ChainParams(20.0, 1.0, TAU, Regime.SCATTERING))
