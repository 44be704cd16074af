"""Vectorized transfer-matrix kernel shared by spectra and scattering.

Cell and word matrix entries over a vector of betas, in _CHUNK-point
chunks.  _chunks tables the gamma-free terms of each letter's cell once per
chunk (_cell_table: lam and 1/lam) and a gamma step makes the entries from
a table (_cell_entries).  _scan makes each chunk's cells once and hands
them, not the table, to one fill, which reads all it needs from them.
_x_crossings alone keeps the tables: it steps a word's at every gamma, or
evaluates one cell's x only where a screen finds it can cross +-1, and
returns only the crossings of all gammas, as flat (row, index) arrays.
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


def _cell_entries(gamma, betas: np.ndarray, regime: Regime, table: tuple):
    """Cell-matrix entries over a beta slice from its _cell_table, equal to cell_matrix bit for bit.

    Real float64 in the Bound regime; in the Scattering regime (re, im) pairs of
    float64 arrays, from the float operations of cell_matrix's complex arithmetic
    (numpy's complex multiply and divide round differently in the last bit).  The
    zero terms of the scalar product are kept where they fix the sign of a zero
    entry (gamma = 0), as 0.0 - v and v + 0.0.
    """
    if regime is Regime.BOUND:
        lam, inv = table
        h = (gamma / betas) / 2
        return (1 + h) * inv, h * lam + 0.0, 0.0 - h * inv, lam * (1 - h)
    lc, ls, ir, ii = table
    h = ((gamma + 0.0) / betas) * 0.5  # delta/2; a zero gamma counts as +0.0
    h_ii, h_ls, h_ir, mh = h * ii, h * ls, h * ir, 0.0 - h
    # re d is the scalar lc - (0.0 - h)*ls, as lc = cos(t) is never 0
    a, d = (ir - h_ii, ii + h_ir), (lc + h_ls, ls + mh * lc)
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


def _crosses(x0, x1, t: float):
    """Where x goes strictly across t from x0 to x1; a sample at t or NaN never counts."""
    return ((x1 > t) & (x0 < t)) | ((x1 < t) & (x0 > t))


@_finite
def _x_crossings(word: Word, gammas: list, q: float, betas: np.ndarray, regime: Regime):
    """Flat (row, index): x crosses +-1 between betas index and index + 1 at gammas[row].

    The pairs come unordered, one per crossing of +1 and one per crossing
    of -1.  Chunks share a seam point, so a crossing there is found once.
    One cell is screened (_cell_crossings); a longer word, whose x is a
    polynomial in gamma, is scanned chunk-outer, gamma-inner, each chunk
    tabled once per letter and stepped at every gamma.  Each x tested is
    _word_scan's.
    """
    if len(word.letters) == 1:
        return _cell_crossings(word, gammas, q, betas, regime)
    hits = []
    for start, part, tables in _chunks(word, q, betas, regime, seam=1):
        for i, gamma in enumerate(gammas):
            x = _word_value(word, _cells(gamma, betas[part], regime, tables), regime, "x")
            index = start + np.concatenate([np.flatnonzero(_crosses(x[:-1], x[1:], t)) for t in (1.0, -1.0)])
            hits.append((np.full(index.size, i), index))
    return tuple(np.concatenate(v) for v in zip(*hits))


def _cell_crossings(word: Word, gammas: list, q: float, betas: np.ndarray, regime: Regime):
    """_x_crossings' (row, index) for one cell, with x evaluated only where it can cross +-1.

    At each beta x is P + gamma*S up to rounding, P and S read from x at gamma
    = 0 and beta (Bound: P = (inv + lam)/2, S = (inv - lam)/(4 beta);
    Scattering: P = (ir + lc)/2, S = (ls - ii)/(4 beta)).
    Pair (i, i + 1) can cross t only at gammas in the hull of its roots
    (t - P -+ m)/S, m being 1e4 ulps of x's terms at the largest |gamma|, or
    at any gamma if its slopes differ in sign or one is 0.  Only these are
    tested.  x's terms peak at an extreme gamma, so x over each chunk at the
    smallest and largest gamma raises every OverflowRisk any gamma would.
    """
    g = np.asarray(gammas, dtype=float)
    order = np.argsort(g, kind="stable")
    gs, hits = g[order], []
    for start, part, tables in _chunks(word, q, betas, regime, seam=1):
        beta, table = betas[part], tables[word.letters]

        def x(gamma, k):  # at gamma and beta[k] from the chunk's table, as _word_scan computes it
            cell = _cell_entries(gamma, beta[k], regime, tuple(v[k] for v in table))
            return _word_value(word, {word.letters: cell}, regime, "x")

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
