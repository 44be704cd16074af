"""Fibonacci words over {S, L} and the two independent routes to string matrices.

Route one multiplies cell matrices in word order, each distinct 4-letter
block once (:func:`word_matrix`, ``core._fold``); route two runs the
matrix-valued recursion ``M_{m+1} = tr(M_m) M_{m-1} - adj(M_{m-2})``
together with the standalone scalar trace map (:func:`trace_map_sequence`).
The two routes are kept deliberately separate so each can serve as the
other's oracle.
"""

from dataclasses import dataclass

import numpy as np

from .core import (EXP_LIMIT, CellKind, ChainParams, Regime, TransferMatrix, _finite_matrix, _fold, _from_real, _mul,
                   _real_cell, cell_matrix, compose)
from .errors import OrderTooLarge, OverflowRisk, TraceMapMismatch

# f_24 = 46368 letters; deeper words are refused rather than built.
MAX_ORDER = 24

ENTRY_LIMIT = 1e300

_ALPHABET = {"S", "L"}


@dataclass(frozen=True)
class Word:
    """A finite string of cells over the alphabet {S, L}.

    ``order_m`` tags Fibonacci words W_m; it is None for ad-hoc words.
    """

    letters: str
    order_m: int | None = None

    def __post_init__(self):
        if not self.letters:
            raise ValueError("word must be nonempty")
        bad = next((i for i, ch in enumerate(self.letters) if ch not in _ALPHABET), None)
        if bad is not None:
            raise ValueError(
                f"invalid letter {self.letters[bad]!r} at position {bad}; alphabet is S, L"
            )

    def __str__(self) -> str:
        return self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def kinds(self) -> list[CellKind]:
        return [CellKind(ch) for ch in self.letters]

    def counts(self) -> tuple[int, int, int]:
        """(total, count of S, count of L) by direct counting."""
        n_s = self.letters.count("S")
        return (len(self.letters), n_s, len(self.letters) - n_s)

    def total_ratio(self, q: float) -> float:
        """String length in units of b: count(S) + q*count(L)."""
        _, n_s, n_l = self.counts()
        return n_s + q * n_l


@dataclass(frozen=True)
class RecursionRow:
    """One row of the matrix recursion: M_m entries plus half trace/difference."""

    m: int
    a: complex
    b: complex
    c: complex
    d: complex
    x: complex
    y: complex

    def matrix(self) -> TransferMatrix:
        return TransferMatrix(self.a, self.b, self.c, self.d)


def fibonacci_number(m: int) -> int:
    """f_m with f_1 = f_2 = 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a, b = 1, 1
    for _ in range(m - 2):
        a, b = b, a + b
    return b if m > 1 else a


def fibonacci_word(m: int) -> Word:
    """W_m from W_{m+1} = W_{m-1} W_m with W_1 = S, W_2 = L."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > MAX_ORDER:
        raise OrderTooLarge(f"order {m} exceeds the guard {MAX_ORDER} (f_{MAX_ORDER} = 46368 letters)")
    prev, cur = "S", "L"
    if m == 1:
        return Word("S", order_m=1)
    for _ in range(m - 2):
        prev, cur = cur, prev + cur
    return Word(cur, order_m=m)


def guard_exponent(word: Word, beta: float, q: float, regime: Regime) -> None:
    """Raise OverflowRisk when beta*length exceeds EXP_LIMIT in the Bound regime.

    Bound-regime entries of the word's matrix grow like exp(beta*length),
    with length = count(S) + q*count(L) in units of b.
    """
    if regime is Regime.BOUND:
        length = beta * word.total_ratio(q)
        if length > EXP_LIMIT:
            raise OverflowRisk(f"beta*length = {length:.3g} exceeds the exponent guard")


def word_matrix(word: Word, params: ChainParams) -> TransferMatrix:
    """Product of cell matrices in word order (leftmost letter leftmost), by core._fold; OverflowRisk if it overflows."""
    guard_exponent(word, params.beta, params.q, params.regime)
    if params.regime is Regime.SCATTERING:  # the kernel's real cells and product, in Python floats
        t = {ch: params.beta * CellKind(ch).ratio(params.q) for ch in set(word.letters)}
        cells = {ch: _real_cell(params.delta, float(np.cos(v)), float(np.sin(v))) for ch, v in t.items()}
        return _finite_matrix(TransferMatrix(*map(complex, _from_real(*_fold(word.letters, cells, _mul)))))
    return _finite_matrix(_fold(word.letters, {k.value: cell_matrix(params, k) for k in CellKind}, compose))


def _row(m: int, M: TransferMatrix) -> RecursionRow:
    return RecursionRow(m, M.a, M.b, M.c, M.d, M.x, M.y)


def trace_map_sequence(params: ChainParams, m_max: int) -> list[RecursionRow]:
    """Rows 1..m_max of the Fibonacci matrix recursion.

    Seeds are M_1 = cell S, M_2 = cell L and M_3 = M_1 M_2; subsequent rows
    follow M_{m+1} = tr(M_m) M_{m-1} - adj(M_{m-2}).  The scalar trace map
    x_{m+1} = 2 x_m x_{m-1} - x_{m-2} is run standalone alongside and must
    agree with the matrix route's half traces; disagreement raises
    TraceMapMismatch.
    """
    if m_max < 3:
        raise ValueError(f"m_max must be >= 3, got {m_max}")
    m1 = cell_matrix(params, CellKind.S)
    m2 = cell_matrix(params, CellKind.L)
    m3 = compose(m1, m2)
    mats = [m1, m2, m3]
    while len(mats) < m_max:
        prev2, prev1, cur = mats[-3], mats[-2], mats[-1]
        nxt = TransferMatrix(
            cur.trace * prev1.a - prev2.d,
            cur.trace * prev1.b + prev2.b,
            cur.trace * prev1.c + prev2.c,
            cur.trace * prev1.d - prev2.a,
        )
        if nxt.max_abs() > ENTRY_LIMIT:
            raise OverflowRisk(f"entries exceed {ENTRY_LIMIT:g} at order {len(mats) + 1}")
        mats.append(nxt)
    # standalone scalar trace map, seeded from the same three matrices
    xs = [m1.x, m2.x, m3.x]
    while len(xs) < m_max:
        xs.append(2 * xs[-1] * xs[-2] - xs[-3])
    for k in range(min(m_max, len(mats))):
        scale = max(1.0, abs(mats[k].x))
        if abs(mats[k].x - xs[k]) > 1e-6 * scale:
            raise TraceMapMismatch(
                f"scalar trace map disagrees with the matrix recursion at m = {k + 1}"
            )
    return [_row(k + 1, M) for k, M in enumerate(mats[:m_max])]


def word_counts(m: int) -> tuple[int, int, int]:
    """(f_m, count of S, count of L) for W_m.

    The recursion forces (f_m, f_{m-2}, f_{m-1}) for m >= 3, with
    (1, 1, 0) for m = 1 and (1, 0, 1) for m = 2.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1:
        return (1, 1, 0)
    if m == 2:
        return (1, 0, 1)
    return (fibonacci_number(m), fibonacci_number(m - 2), fibonacci_number(m - 1))
