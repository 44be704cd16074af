"""Vectorized transfer-matrix kernel shared by spectra and scattering.

Cell and word matrix entries over a vector of betas, in _CHUNK-point
chunks.  _chunks tables the gamma-free terms of each letter's cell once per
chunk (_cell_table: lam and 1/lam) and a gamma step makes the entries from
a table (_cell_entries).  _scan makes each chunk's cells once and hands
them, not the table, to one fill, which reads all it needs from them;
_x_crossings alone keeps the tables, to step them at many gammas.
In the Bound regime the kernel multiplies real float64 entries, with the
np.exp that tunnel_matrix also takes; in the Scattering regime it
multiplies (re, im) float64 pairs with CPython's complex formulas.  In
both, each sample equals cell_matrix and word_matrix at that beta bit for
bit.  Entries that overflow float64 raise OverflowRisk instead of leaving
inf or NaN samples behind.

_scan broadcasts gamma, a scalar or one coupling per point, to the betas;
the arithmetic is elementwise, so a point's value does not depend on the
points scanned beside it.
"""

import operator

import numpy as np

from .core import CellKind, Regime
from .errors import OverflowRisk
from .substitution import Word


def _pair_mul(z, w):
    """Product of two (re, im) float64 pairs, rounded as CPython's complex product."""
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _pair_add(z, w):
    return z[0] + w[0], z[1] + w[1]


def _pair_quot(z, w):
    """Quotient z / w of (re, im) pairs by Smith's method, as CPython divides.

    CPython's complex division scales by w's real part when |re w| >= |im w|
    and by its imaginary part otherwise; both branches are taken elementwise
    and chosen with np.where, with the operands in CPython's order.
    """
    m = np.abs(w[0]) >= np.abs(w[1])
    num, den = np.where(m, w[1], w[0]), np.where(m, w[0], w[1])
    ratio = num / den
    den = den + num * ratio
    x, y = np.where(m, z[0], z[1]), np.where(m, z[1], z[0])
    xr = x * ratio
    return (x + y * ratio) / den, np.where(m, y - xr, xr - y) / den


def _cell_table(betas: np.ndarray, regime: Regime, ratio: float) -> tuple:
    """The gamma-free terms of a cell with tunnel ratio ``ratio`` over a beta slice.

    (lam, inv) = (exp(beta*ratio), 1/lam) in the Bound regime; (lc, ls) = lam =
    cmath.exp(-1j*beta*ratio) and (ir, ii) = 1/lam, by Smith's method, in the Scattering one.
    """
    if regime is Regime.BOUND:
        lam = np.exp(betas * ratio)
        return lam, 1.0 / lam
    t = betas * ratio
    lc, ls = np.cos(t), -np.sin(t)
    return (lc, ls, *_pair_quot((1.0, 0.0), (lc, ls)))


def _cell_entries(gamma, betas: np.ndarray, regime: Regime, table: tuple, diagonal=False):
    """Cell-matrix entries over a beta slice from its _cell_table, equal to cell_matrix bit for bit.

    Real float64 in the Bound regime; in the Scattering regime (re, im) pairs of
    float64 arrays, from the float operations of cell_matrix's complex arithmetic
    (numpy's complex multiply and divide round differently in the last bit).  The
    zero terms of the scalar product are kept where they fix the sign of a zero
    entry (gamma = 0), as 0.0 - v and v + 0.0.  diagonal=True returns the real
    parts of a and d only, all that x and d of one cell read.
    """
    if regime is Regime.BOUND:
        lam, inv = table
        h = (gamma / betas) / 2
        a, d = (1 + h) * inv, lam * (1 - h)
        return (a, d) if diagonal else (a, h * lam + 0.0, 0.0 - h * inv, d)
    lc, ls, ir, ii = table
    h = ((gamma + 0.0) / betas) * 0.5  # delta/2; a zero gamma counts as +0.0
    h_ii, h_ls = h * ii, h * ls
    re_a, re_d = ir - h_ii, lc + h_ls  # the scalar lc - (0.0 - h)*ls, as lc = cos(t) is never 0
    if diagonal:
        return re_a, re_d
    h_ir, mh = h * ir, 0.0 - h
    a, d = (re_a, ii + h_ir), (re_d, ls + mh * lc)
    # c is (0.0 - mh*ii, mh*ir + 0.0), from the products a already took
    return a, (0.0 - h_ls, h * lc + 0.0), (h_ii + 0.0, 0.0 - h_ir), d


def _word_grid(word: Word, cells: dict, regime: Regime):
    """Entries (a, b, c, d) of the word's transfer matrix from the _cells of its letters.

    Real arrays in the Bound regime, (re, im) pairs in the Scattering
    regime, multiplied in word_matrix's order, so each value equals
    word_matrix's bit for bit.  The product starts from the first cell, not
    from the identity: for finite entries 1*a + 0*c == a, and the cell's
    zero entries already carry the sign that the identity product gives.
    """
    mul, add = (operator.mul, operator.add) if regime is Regime.BOUND else (_pair_mul, _pair_add)
    A, B, C, D = cells[word.letters[0]]
    for ch in word.letters[1:]:
        a2, b2, c2, d2 = cells[ch]
        A, B, C, D = (
            add(mul(A, a2), mul(B, c2)),
            add(mul(A, b2), mul(B, d2)),
            add(mul(C, a2), mul(D, c2)),
            add(mul(C, b2), mul(D, d2)),
        )
    return A, B, C, D


def _cells(gamma, betas: np.ndarray, regime: Regime, tables: dict) -> dict:
    """The _cell_entries of each tabled letter at gamma over the tables' beta slice."""
    return {ch: _cell_entries(gamma, betas, regime, table) for ch, table in tables.items()}


def _word_value(word: Word, cells: dict, regime: Regime, which: str):
    """Real x (which = "x") or d (which = "d") over a slice, from the _cells of its letters."""
    A, _, _, D = _word_grid(word, cells, regime)
    if regime is Regime.SCATTERING:
        A, D = A[0], D[0]
    return 0.5 * (A + D) if which == "x" else D


# Points per scan chunk: the per-letter temporaries of one chunk stay in cache.
_CHUNK = 1 << 13


def _chunks(word: Word, q: float, betas: np.ndarray, regime: Regime, seam=0):
    """Yield (start, slice, tables) per _CHUNK-point slice of betas, the only place that tables cells.

    tables maps each distinct letter of the word to its _cell_table over the
    slice.  With seam=1 consecutive slices share their boundary point.
    """
    ratios = {ch: CellKind(ch).ratio(q) for ch in set(word.letters)}
    for start in range(0, betas.size - seam, _CHUNK):
        part = slice(start, start + _CHUNK + seam)
        yield start, part, {ch: _cell_table(betas[part], regime, r) for ch, r in ratios.items()}


def _finite(scan):
    """scan, raising OverflowRisk where float64 overflows (long words, strong coupling) or turns invalid."""
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return scan(*args, **kwargs)
        except FloatingPointError as err:
            raise OverflowRisk(f"transfer-matrix entries are not finite ({err})") from None
    return guarded


@_finite
def _scan(word: Word, gamma, q: float, betas: np.ndarray, regime: Regime, fill, rows=(), dtype=float):
    """fill(beta, cells) on every chunk of betas (_chunks), gathered in one array.

    gamma, a scalar or one value per beta, is broadcast to the betas once,
    and each chunk's _cells are made once; its tables are dropped before
    fill runs, so a long product does not hold them.  The result has shape
    rows + (betas.size,), and each call fills its slice of the last axis.
    An overflow inside fill raises OverflowRisk (_finite).
    """
    out = np.empty((*rows, betas.size), dtype)
    gamma = np.full(betas.shape, gamma, dtype=float)
    for _, part, tables in _chunks(word, q, betas, regime):
        cells = _cells(gamma[part], betas[part], regime, tables)
        del tables
        out[..., part] = fill(betas[part], cells)
    return out


def _word_scan(word: Word, gamma, q: float, betas: np.ndarray, regime: Regime, which: str):
    """Real x(beta) (which = "x") or d(beta) (which = "d") of the word matrix; gamma scalar or per beta."""
    return _scan(word, gamma, q, betas, regime, lambda beta, cells: _word_value(word, cells, regime, which))


@_finite
def _x_crossings(word: Word, gammas: list, q: float, betas: np.ndarray, regime: Regime):
    """Per gamma, the indices i where x crosses +-1 between betas i and i+1, and x at both ends.

    A sample at +-1 or NaN never counts.  Chunk-outer, gamma-inner: each
    chunk of betas is tabled once per letter, then stepped at every gamma;
    chunks share a seam point, so a crossing there is found once.
    """
    cross, ends = [[] for _ in gammas], np.empty((len(gammas), 2))
    for start, part, tables in _chunks(word, q, betas, regime, seam=1):
        for i, gamma in enumerate(gammas):
            if len(word.letters) == 1:  # x of one cell needs only its real diagonal
                A, D = _cell_entries(gamma, betas[part], regime, tables[word.letters], True)
                x = 0.5 * (A + D)
            else:
                x = _word_value(word, _cells(gamma, betas[part], regime, tables), regime, "x")
            for t in (1.0, -1.0):
                hi, lo = x > t, x < t
                cross[i].append(start + np.nonzero((hi[1:] & lo[:-1]) | (lo[1:] & hi[:-1]))[0])
            ends[i] = x[0] if start == 0 else ends[i, 0], x[-1]
    return [np.concatenate(c) for c in cross], ends
