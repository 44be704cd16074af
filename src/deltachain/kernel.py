"""Vectorized transfer-matrix kernel shared by spectra and scattering.

Cell and word matrix entries over a vector of betas, in _CHUNK-point
chunks.  _chunks tables the gamma-free terms of each letter's cell once per
chunk (_cell_table) and a gamma step makes the entries from a table
(_cell_entries).  _scan, the one dense chunk loop, makes each chunk's cells
once and hands them, not the table, to one fill, which reads all it needs
from them.  _x_crossings returns the crossings of +-1 at many gammas as
flat (row, index) arrays: a word's x comes from one _word_scan per gamma,
and one cell keeps its tables (_cell_crossings) to evaluate x only where a
screen finds it can cross.
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
    return _scan(word, gamma, q, betas, regime, lambda beta, cells: _word_value(word, cells, which))


def _crosses(x0, x1, t: float):
    """Where x goes strictly across t from x0 to x1; a sample at t or NaN never counts."""
    return ((x1 > t) & (x0 < t)) | ((x1 < t) & (x0 > t))


def _x_crossings(word: Word, gammas: list, q: float, betas: np.ndarray, regime: Regime):
    """Flat (row, index): x crosses +-1 between betas index and index + 1 at gammas[row].

    The pairs come unordered, one per crossing of +1 and one per crossing
    of -1.  One cell is screened (_cell_crossings); a longer word is scanned
    (_word_scan) once per gamma, so each x tested is _word_scan's.
    """
    if len(word.letters) == 1:
        return _cell_crossings(word, gammas, q, betas, regime)
    hits = []
    for i, gamma in enumerate(gammas):
        x = _word_scan(word, gamma, q, betas, regime, "x")
        index = np.concatenate([np.flatnonzero(_crosses(x[:-1], x[1:], t)) for t in (1.0, -1.0)])
        hits.append((np.full(index.size, i), index))
    return tuple(np.concatenate(v) for v in zip(*hits))


@_finite
def _cell_crossings(word: Word, gammas: list, q: float, betas: np.ndarray, regime: Regime):
    """_x_crossings' (row, index) for one cell, with x evaluated only where it can cross +-1.

    At each beta x is P + gamma*S up to rounding, P and S read from x at gamma
    = 0 and beta (Bound: P = (inv + lam)/2, S = (inv - lam)/(4 beta);
    Scattering: P = cos t, S = -sin t/(2 beta)).  Pair (i, i + 1) can cross t
    only at gammas in the hull of its roots (t - P -+ m)/S, m being 1e4 ulps
    of x's terms at the largest |gamma| (by the table's two terms), or at any
    gamma if its slopes differ in sign or one is 0.  Only these are tested.
    x's terms peak at an extreme gamma, so x over each chunk at the smallest
    and largest gamma raises every OverflowRisk any gamma would.
    """
    g = np.asarray(gammas, dtype=float)
    order = np.argsort(g, kind="stable")
    gs, hits = g[order], []
    for start, part, tables in _chunks(word, q, betas, regime, seam=1):
        beta, table = betas[part], tables[word.letters]

        def x(gamma, k):  # at gamma and beta[k] from the chunk's table, as _word_scan computes it
            cell = _cell_entries(gamma, beta[k], regime, tuple(v[k] for v in table))
            return _word_value(word, {word.letters: cell}, "x")

        x(gs[0], slice(None)), x(gs[-1], slice(None))  # any gamma's OverflowRisk
        P = x(0.0, slice(None))
        S = (x(beta, slice(None)) - P) / beta  # delta/2 is 1/2 at gamma = beta
        every = np.sign(S[1:]) * np.sign(S[:-1]) <= 0.0
        S[S == 0.0] = 1.0
        with np.errstate(over="ignore"):  # a root past float64 is +-inf, beyond every gamma
            m = 1e4 * np.finfo(float).eps * (1.0 + 0.5 * max(abs(gs[0]), abs(gs[-1])) / beta)
            m *= sum(np.abs(v) for v in table)
        for t in (1.0, -1.0):
            with np.errstate(over="ignore"):
                lo, hi = (t - P - m) / S, (t - P + m) / S
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
            k0 = np.where(every, 0, np.searchsorted(gs, np.minimum(lo[1:], lo[:-1])))
            n = np.where(every, gs.size, np.searchsorted(gs, np.maximum(hi[1:], hi[:-1]), "right")) - k0
            i = np.repeat(np.arange(n.size), n)
            k = np.arange(i.size) + np.repeat(k0 + n - np.cumsum(n), n)
            hit = _crosses(x(gs[k], i), x(gs[k], i + 1), t)
            hits.append((order[k[hit]], start + i[hit]))
    return tuple(np.concatenate(v) for v in zip(*hits))
