"""Vectorized transfer-matrix kernel shared by spectra and scattering.

Cell and word matrix entries over a vector of betas, in _CHUNK-point
chunks.  In the Bound regime the kernel multiplies real float64 entries,
with the np.exp that tunnel_matrix also takes; in the Scattering regime it
multiplies (re, im) float64 pairs with CPython's complex formulas (see
_cell_entries).  In both, each sample equals cell_matrix and word_matrix at
that beta bit for bit.  Entries that overflow float64 raise OverflowRisk
instead of leaving inf or NaN samples behind.

gamma may be a scalar or an array the shape of the betas, one coupling per
point; the arithmetic is elementwise, so a point's value does not depend on
the points scanned beside it.
"""

import operator

import numpy as np

from .core import Regime
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


def _cell_entries(gamma: float, betas: np.ndarray, regime: Regime, ratio: float, diagonal=False):
    """Vectorized cell-matrix entries over a beta grid, equal to cell_matrix bit for bit.

    Bound entries are real float64, the products that cell_matrix's delta
    factor makes with the tunnel's diag(1/lam, lam).

    Scattering entries are (re, im) pairs of float64 arrays.  numpy's
    complex multiply and divide round differently from CPython's in the last
    bit, so each entry is built from the float operations that
    cell_matrix's complex arithmetic makes: lam = (cos t, -sin t), 1/lam by
    Smith's method, and delta/2 on the imaginary axis.

    In both regimes the zero terms of the scalar product are kept where they
    fix the sign of a zero entry (gamma = 0), as 0.0 - v and v + 0.0.
    diagonal=True returns (a, d) only.
    """
    if regime is Regime.BOUND:
        lam = np.exp(betas * ratio)
        inv = 1.0 / lam
        h = (gamma / betas) / 2
        a, d = (1 + h) * inv, lam * (1 - h)
        return (a, d) if diagonal else (a, h * lam + 0.0, 0.0 - h * inv, d)
    t = betas * ratio
    lc, ls = np.cos(t), -np.sin(t)  # cmath.exp(-1j * t)
    ir, ii = _pair_quot((1.0, 0.0), (lc, ls))
    h = ((gamma + 0.0) / betas) * 0.5  # delta/2; a zero gamma counts as +0.0
    mh = 0.0 - h
    a, d = (ir - h * ii, ii + h * ir), (lc - mh * ls, ls + mh * lc)
    return (a, d) if diagonal else (a, (0.0 - h * ls, h * lc + 0.0), (0.0 - mh * ii, mh * ir + 0.0), d)


def _word_grid(word: Word, gamma: float, q: float, betas: np.ndarray, regime: Regime):
    """Entries (a, b, c, d) of the word's transfer matrix over a beta grid.

    Real arrays in the Bound regime, (re, im) pairs in the Scattering
    regime, multiplied in word_matrix's order, so each value equals
    word_matrix's bit for bit.  The product starts from the first cell, not
    from the identity: for finite entries 1*a + 0*c == a, and the cell's
    zero entries already carry the sign that the identity product gives.
    """
    if regime is Regime.BOUND:
        mul, add = operator.mul, operator.add
    else:
        mul, add = _pair_mul, _pair_add
    cells = {}
    for ch in set(word.letters):
        cells[ch] = _cell_entries(gamma, betas, regime, 1.0 if ch == "S" else q)
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


# Points per scan chunk: the per-letter temporaries of one chunk stay in cache.
_CHUNK = 1 << 13


def _run_chunks(betas: np.ndarray, gamma, fill, rows=(), dtype=float) -> np.ndarray:
    """fill(beta, gamma) on every _CHUNK-point slice of betas, gathered in one array.

    gamma is a scalar or an array the shape of betas, sliced with them.  The
    result has shape rows + (betas.size,), and each call fills its slice of
    the last axis.  An overflow or invalid operation inside fill (the
    entries of a long word at strong coupling outgrow float64) raises
    OverflowRisk.
    """
    out = np.empty((*rows, betas.size), dtype)
    per_point = isinstance(gamma, np.ndarray) and gamma.ndim > 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, betas.size, _CHUNK):
                part = slice(start, start + _CHUNK)
                out[..., part] = fill(betas[part], gamma[part] if per_point else gamma)
    except FloatingPointError as err:
        raise OverflowRisk(f"transfer-matrix entries are not finite ({err})") from None
    return out


def _word_scan(word: Word, gamma, q: float, betas: np.ndarray, regime: Regime, which: str):
    """Real x(beta) (which = "x") or d(beta) (which = "d") of the word matrix over a grid.

    gamma is a scalar or one value per beta.
    """

    def fill(beta: np.ndarray, gamma) -> np.ndarray:
        if len(word.letters) == 1:  # x and d of one cell need only its diagonal
            A, D = _cell_entries(gamma, beta, regime, 1.0 if word.letters == "S" else q, True)
        else:
            A, _, _, D = _word_grid(word, gamma, q, beta, regime)
        if regime is Regime.SCATTERING:
            A, D = A[0], D[0]
        return 0.5 * (A + D) if which == "x" else D

    return _run_chunks(betas, gamma, fill)
