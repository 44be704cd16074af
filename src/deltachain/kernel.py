"""Vectorized transfer-matrix kernel shared by spectra and scattering.

Cell and word matrix entries over a vector of betas, in _CHUNK-point
chunks.  _chunks tables the gamma-free terms of each letter's cell once per
chunk (_cell_table) and a gamma step makes the entries from a table
(_cell_entries).  _scan, the one chunk loop, makes each chunk's cells once
and hands them, not the table, to one fill, which reads all it needs from
them: a count of spectra.py, or x or d (_word_scan).
One real float64 product (_word_grid) serves both regimes: Bound cells are
cell_matrix's, with the np.exp that tunnel_matrix also takes, and
Scattering cells act on (psi, psi'/beta) (core._real_cell), where strong
coupling does not cancel.  Both multiply in core._fold's order, each
distinct 4-letter block once, so each sample equals word_matrix's product
at that beta bit for bit.  Entries that overflow float64 raise OverflowRisk
instead of leaving inf or NaN samples behind.

_scan broadcasts gamma, a scalar or one coupling per point, to the betas;
the arithmetic is elementwise, so a point's value does not depend on the
points scanned beside it.
"""

import numpy as np

from .core import CellKind, Regime, _fold, _mul, _real_cell
from .errors import OverflowRisk
from .substitution import Word


def _cell_table(betas: np.ndarray, regime: Regime, ratio: float) -> tuple:
    """The gamma-free terms of a cell with tunnel ratio ``ratio`` over a beta slice.

    (lam, 1/lam) with lam = exp(beta*ratio) in the Bound regime, (cos t, sin t)
    with t = beta*ratio in the Scattering one.
    """
    if regime is Regime.BOUND:
        lam = np.exp(betas * ratio)
        return lam, 1.0 / lam
    return np.cos(betas * ratio), np.sin(betas * ratio)


def _cell_entries(gamma, betas: np.ndarray, regime: Regime, table: tuple):
    """A cell's real entries over a beta slice from its _cell_table.

    Bound: cell_matrix's, bit for bit; the zero terms of its product are
    kept where they fix the sign of a zero entry (gamma = 0), as 0.0 - v and
    v + 0.0.  Scattering: core._real_cell's, on (psi, psi'/beta).
    """
    if regime is Regime.BOUND:
        lam, inv = table
        h = (gamma / betas) / 2
        return (1 + h) * inv, h * lam + 0.0, 0.0 - h * inv, lam * (1 - h)
    return _real_cell(gamma / betas, *table)


def _word_grid(word: Word, cells: dict):
    """Entries (A, B, C, D) of the product of the word's _cells, in word_matrix's block order (core._fold).

    One real product for both regimes' cells, so each value equals
    word_matrix's product bit for bit (in the Scattering regime, its real
    product before the basis change).
    """
    return _fold(word.letters, cells, _mul)


def _cells(gamma, betas: np.ndarray, regime: Regime, tables: dict) -> dict:
    """The _cell_entries of each tabled letter at gamma over the tables' beta slice."""
    return {ch: _cell_entries(gamma, betas, regime, table) for ch, table in tables.items()}


def _word_value(word: Word, cells: dict, which: str):
    """x = (A + D)/2, in either basis (which = "x"), or the Bound d = D (which = "d"), from a slice's _cells."""
    A, _, _, D = _word_grid(word, cells)
    return 0.5 * (A + D) if which == "x" else D


# Points per scan chunk: the per-letter temporaries of one chunk stay in cache.
_CHUNK = 1 << 13


def _chunks(word: Word, q: float, betas: np.ndarray, regime: Regime):
    """Yield (slice, tables) per _CHUNK-point slice of betas, the only place that tables cells.

    tables maps each distinct letter of the word to its _cell_table over the slice.
    """
    ratios = {ch: CellKind(ch).ratio(q) for ch in set(word.letters)}
    for start in range(0, betas.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        yield part, {ch: _cell_table(betas[part], regime, r) for ch, r in ratios.items()}


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
    for part, tables in _chunks(word, q, betas, regime):
        cells = _cells(gamma[part], betas[part], regime, tables)
        del tables
        out[..., part] = fill(betas[part], cells)
    return out


def _word_scan(word: Word, gamma, q: float, betas: np.ndarray, regime: Regime, which: str):
    """Real x(beta) (which = "x") or d(beta) (which = "d") of the word matrix; gamma scalar or per beta."""
    return _scan(word, gamma, q, betas, regime, lambda beta, cells: _word_value(word, cells, which))

