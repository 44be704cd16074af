"""Negative-energy spectral analysis of finite chains.

Everything here scans the dimensionless energy variable beta at fixed
(gamma, q, word): the energy gauge, maximal band germs (|x| <= 1), bound
roots of d(beta) = 0, rational Bloch labels and partial bands, the binding
equation, and a density-of-states estimate for the single cell.

Root finding follows one policy throughout: a uniform grid scan brackets
sign changes, bisection refines them to |dbeta| <= 1e-10, and a one-level
x4 grid refinement re-censuses the sign changes; any disagreement raises
GridTooCoarse instead of silently returning a partial census.

Each query makes one fine scan, on the x4 grid.  The base grid is every
4th sample of it (np.linspace(lo, hi, n + 1) equals
np.linspace(lo, hi, 4n + 1)[::4] bit for bit), so its census is read off
the same samples.  bound_states takes x and d from one product pass.  In
the Bound regime the scan multiplies real float64 entries; they equal the
real parts of the complex-arithmetic entries bit for bit, so every sample,
bracket and GridTooCoarse decision is the one complex arithmetic gives.
In the Scattering regime it multiplies (re, im) float64 pairs with
CPython's complex formulas (see _cell_entries), so each sample equals
word_matrix at that beta bit for bit.  Entries that overflow float64 raise
OverflowRisk instead of leaving inf or NaN samples behind.
"""

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import EXP_LIMIT, ChainParams, Regime, cell_matrix, CellKind
from .errors import GridTooCoarse, OutOfBand, OverflowRisk
from .substitution import Word, word_matrix

DEFAULT_BETA_RANGE = (0.05, 6.0)
DEFAULT_GRID_STEPS = 2000
ROOT_TOL = 1e-10

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class EdgeKind(Enum):
    """Which band-edge condition x = +1 or x = -1 terminates a germ."""

    X_PLUS_ONE = "XPlusOne"
    X_MINUS_ONE = "XMinusOne"


@dataclass(frozen=True)
class BandGerm:
    """Maximal beta interval with |x(beta)| <= 1 at fixed (word, gamma, q).

    A clipped edge means the germ reached the scan boundary while still in
    band; its edge kind then records the nearer of x = +1 / x = -1 rather
    than a refined root.
    """

    beta_lo: float
    beta_hi: float
    edge_kind_lo: EdgeKind
    edge_kind_hi: EdgeKind
    clipped_lo: bool = False
    clipped_hi: bool = False


@dataclass(frozen=True)
class BoundState:
    """A root of d(beta) = 0, refined to |dbeta| <= 1e-10."""

    beta_star: float
    index: int


@dataclass(frozen=True)
class RationalLabel:
    """Rational Bloch label n*Kb = mu*pi with its partial band.

    The mu = n label sits at the top band edge and has no partial band of
    its own, so partial_band is None there.
    """

    n: int
    mu: int
    kb: float
    partial_band: tuple[float, float] | None


@dataclass(frozen=True)
class PartialBandCount:
    """One partial band (in Kb and beta) and the number of bound roots inside."""

    mu: int
    kb_lo: float
    kb_hi: float
    beta_lo: float
    beta_hi: float
    count: int


@dataclass(frozen=True)
class DosSamples:
    """Density-of-states samples for the single cell over its band germ."""

    beta: np.ndarray
    energy: np.ndarray
    kb: np.ndarray
    density: np.ndarray


def _thread_count() -> int:
    """Worker threads for grid scans from DELTACHAIN_THREADS (default 1).

    The value must be an integer >= 1; it is clamped to the CPU count.
    """
    raw = os.environ.get("DELTACHAIN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"DELTACHAIN_THREADS must be an integer >= 1, got {raw!r}")
    return min(n, os.cpu_count() or 1)


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


def _cell_entries(gamma: float, betas: np.ndarray, regime: Regime, ratio: float):
    """Vectorized cell-matrix entries over a beta grid, equal to cell_matrix bit for bit.

    Bound entries are real float64.  They are written as products with the
    reciprocal 1/lam because that is how numpy divides by a real lam + 0j,
    so they equal the real parts of the complex entries bit for bit.

    Scattering entries are (re, im) pairs of float64 arrays.  numpy's
    complex multiply and divide round differently from CPython's in the last
    bit, so each entry is built from the float operations that
    cell_matrix's complex arithmetic makes: lam = (cos t, -sin t), 1/lam by
    Smith's method, and delta/2 on the imaginary axis.  The zero terms of
    the scalar product are kept where they fix the sign of a zero entry
    (gamma = 0), as 0.0 - v and v + 0.0.
    """
    if regime is Regime.BOUND:
        de = gamma / betas
        lam = np.exp(betas * ratio)
        inv = 1.0 / lam
        h = de / 2
        return (1 + h) * inv, (lam * de) * 0.5, -h * inv, lam * (1 - h)
    t = betas * ratio
    lc, ls = np.cos(t), -np.sin(t)  # cmath.exp(-1j * t)
    ir, ii = _pair_quot((1.0, 0.0), (lc, ls))
    h = ((gamma + 0.0) / betas) * 0.5  # delta/2; a zero gamma counts as +0.0
    mh = 0.0 - h
    return (
        (ir - h * ii, ii + h * ir),
        (0.0 - h * ls, h * lc + 0.0),
        (0.0 - mh * ii, mh * ir + 0.0),
        (lc - mh * ls, ls + mh * lc),
    )


def _word_grid(word: Word, gamma: float, q: float, betas: np.ndarray, regime: Regime):
    """Entries (a, b, c, d) of the word's transfer matrix over a beta grid.

    Real arrays in the Bound regime, (re, im) pairs in the Scattering
    regime, multiplied in word_matrix's order, so every value equals
    word_matrix's bit for bit.  The product starts from the first cell, not
    from the identity: for finite entries 1*a + 0*c == a, so only the sign
    of an exact zero could differ.
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


def _run_chunks(size: int, fill) -> None:
    """Call fill(part) for every _CHUNK-point slice of range(size).

    Chunks run on the DELTACHAIN_THREADS pool.  Each writes its own slice of
    a preallocated output, so the values do not depend on the chunking or
    the thread count.  An overflow or invalid operation inside fill (the
    entries of a long word at strong coupling outgrow float64) raises
    OverflowRisk; numpy's error state is per thread, so it is set here.
    """

    def one(start: int) -> None:
        try:
            with np.errstate(over="raise", invalid="raise"):
                fill(slice(start, start + _CHUNK))
        except FloatingPointError as err:
            raise OverflowRisk(f"transfer-matrix entries are not finite ({err})") from None

    starts = range(0, size, _CHUNK)
    n = _thread_count()
    if n > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(one, starts))
    else:
        for start in starts:
            one(start)


def _word_scan(word: Word, gamma: float, q: float, betas: np.ndarray, regime: Regime, which: str):
    """Real x(beta) and/or d(beta) of the word matrix over a grid, chunked.

    ``which`` names the rows of the result, one letter each ("x", "d" or
    "xd"), so a single product pass can serve both.
    """
    out = np.empty((len(which), betas.size))

    def fill(part: slice) -> None:
        A, _, _, D = _word_grid(word, gamma, q, betas[part], regime)
        if regime is Regime.SCATTERING:
            A, D = A[0], D[0]
        for row, name in zip(out, which):
            row[part] = 0.5 * (A + D) if name == "x" else D

    _run_chunks(betas.size, fill)
    return out


def _check_scan_inputs(word: Word, gamma: float, q: float, beta_range, grid_steps: int, regime: Regime):
    """Validate a scan's inputs; returns the finite range (lo, hi)."""
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be >= 100, got {grid_steps}")
    if not (math.isfinite(gamma) and math.isfinite(q)):
        raise ValueError(f"gamma and q must be finite, got gamma = {gamma}, q = {q}")
    lo, hi = beta_range
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"beta_range must satisfy 0 < lo < hi, got {beta_range}")
    if regime is Regime.BOUND and hi * word.total_ratio(q) > EXP_LIMIT:
        raise OverflowRisk(
            f"beta*length = {hi * word.total_ratio(q):.3g} exceeds the exponent guard"
        )
    return lo, hi


def _crossings(values: np.ndarray, target: float) -> np.ndarray:
    """Indices i where values crosses target strictly between samples i and i+1.

    Samples equal to target or NaN never count, as for a sign product.
    """
    above, below = values > target, values < target
    return np.nonzero((above[1:] & below[:-1]) | (below[1:] & above[:-1]))[0]


def _require_same_census(values: np.ndarray, target: float, label: str, grid_steps: int) -> None:
    """Raise GridTooCoarse unless the base grid and the x4 grid count the
    same crossings of target.

    ``values`` is the x4 scan; the base grid is every 4th sample of it.
    """
    if _crossings(values[::4], target).size != _crossings(values, target).size:
        raise GridTooCoarse(
            f"{label} crossings differ between {grid_steps} and "
            f"{4 * grid_steps} grid steps; increase grid_steps"
        )


def _require_same_x_census(x: np.ndarray, grid_steps: int) -> None:
    for target in (1.0, -1.0):
        _require_same_census(x, target, f"x = {target:+g}", grid_steps)


def _bisect(fn, lo, hi, flo, tol=ROOT_TOL) -> float:
    """Derivative-free sign-change bisection down to a beta bracket of width tol."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_x(word: Word, gamma: float, q: float, regime: Regime):
    def fx(beta: float) -> float:
        return word_matrix(word, ChainParams(beta, gamma, q, regime)).x.real

    return fx


def energy_gauge(word: Word, gamma: float, q: float, beta: float) -> int:
    """0 if |x(beta)| <= 1 for the word's transfer matrix, else 1.

    Repetition-invariant: S^n has the same gauge as S, because |x| <= 1 holds
    for a power exactly when it holds for the base matrix.
    """
    params = ChainParams(beta, gamma, q, Regime.BOUND)
    x = word_matrix(word, params).x.real
    return 0 if abs(x) <= 1.0 else 1


def _germs_from_scan(
    word: Word, gamma: float, q: float, regime: Regime, betas: np.ndarray, x: np.ndarray
) -> list[BandGerm]:
    """Maximal |x| <= 1 intervals from a verified scan x over the grid betas."""
    fx = _scalar_x(word, gamma, q, regime)

    # Refine every edge crossing first.  A band narrower than the grid
    # spacing leaves no in-band sample, but it still shows up as one x = +1
    # and one x = -1 crossing inside the same grid interval, so germs are
    # assembled from the refined crossings, not from in-band samples.
    edges: list[tuple[float, EdgeKind]] = []
    for target, kind in ((1.0, EdgeKind.X_PLUS_ONE), (-1.0, EdgeKind.X_MINUS_ONE)):
        for i in _crossings(x, target):
            root = _bisect(lambda b, t=target: fx(b) - t, betas[i], betas[i + 1], x[i] - target)
            edges.append((root, kind))
    edges.sort(key=lambda e: e[0])

    # Between consecutive crossings the in-band predicate is constant;
    # classify each segment by its midpoint and emit maximal in-band runs.
    bounds = [betas[0]] + [e[0] for e in edges] + [betas[-1]]
    germs: list[BandGerm] = []
    open_lo: tuple[float, EdgeKind, bool] | None = None
    for k in range(len(bounds) - 1):
        inside = abs(fx(0.5 * (bounds[k] + bounds[k + 1]))) <= 1.0
        if inside and open_lo is None:
            if k == 0:
                kind = EdgeKind.X_PLUS_ONE if x[0] >= 0.0 else EdgeKind.X_MINUS_ONE
                open_lo = (float(betas[0]), kind, True)
            else:
                open_lo = (bounds[k], edges[k - 1][1], False)
        elif not inside and open_lo is not None:
            beta_lo, kind_lo, clipped_lo = open_lo
            germs.append(
                BandGerm(beta_lo, bounds[k], kind_lo, edges[k - 1][1], clipped_lo, False)
            )
            open_lo = None
    if open_lo is not None:
        beta_lo, kind_lo, clipped_lo = open_lo
        kind_hi = EdgeKind.X_PLUS_ONE if x[-1] >= 0.0 else EdgeKind.X_MINUS_ONE
        germs.append(BandGerm(beta_lo, float(betas[-1]), kind_lo, kind_hi, clipped_lo, True))
    return germs


def band_germs(
    word: Word,
    gamma: float,
    q: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
    regime: Regime = Regime.BOUND,
) -> list[BandGerm]:
    """Maximal beta intervals with |x| <= 1, edges refined by bisection.

    The x4-refined scan must reproduce the base grid's edge-crossing census
    for both x = +1 and x = -1, else GridTooCoarse is raised.
    """
    lo, hi = _check_scan_inputs(word, gamma, q, beta_range, grid_steps, regime)
    fine = np.linspace(lo, hi, 4 * grid_steps + 1)
    (x,) = _word_scan(word, gamma, q, fine, regime, "x")
    _require_same_x_census(x, grid_steps)
    return _germs_from_scan(word, gamma, q, regime, fine, x)


def bound_states(
    word: Word,
    gamma: float,
    q: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> list[BoundState]:
    """Sign-change roots of d(beta) in range, bisection-refined.

    Bound regime only: d = 0 is the decaying-boundary-condition equation.
    One product pass gives d and x; the d census is checked first, then
    the band-germ census of band_germs (same grid, same GridTooCoarse).

    The census is only as complete as the grid.  A close pair of roots
    between two samples cancels in the sign count on both the base and the
    x4 grid, so it can be missed without GridTooCoarse.  Roots of the open
    chain need not lie inside band germs of the closed one, so the
    germ-local rescan below adds roots but guarantees none.  At gamma = 10,
    q = tau, beta in (0.05, 6], W_5 at 2,000 steps returns 1 of its 5
    roots, and W_6 at 32,000 and 128,000 steps returns 6 of its 8.  The
    certified census of ROADMAP item 3 closes this gap.
    """
    lo, hi = _check_scan_inputs(word, gamma, q, beta_range, grid_steps, Regime.BOUND)
    fine = np.linspace(lo, hi, 4 * grid_steps + 1)
    x, d = _word_scan(word, gamma, q, fine, Regime.BOUND, "xd")
    _require_same_census(d, 0.0, "d = 0", grid_steps)
    _require_same_x_census(x, grid_steps)

    def fd(beta: float) -> float:
        return word_matrix(word, ChainParams(beta, gamma, q, Regime.BOUND)).d.real

    roots = [_bisect(fd, fine[i], fine[i + 1], d[i]) for i in _crossings(d, 0.0)]

    # A narrow band can hide a whole dip of d through zero between adjacent
    # samples of the global grid.  Some bound roots lie inside band germs, so
    # rescan each germ on a local grid and merge the findings.  Roots outside
    # every germ get no such second look (see the docstring).
    for germ in _germs_from_scan(word, gamma, q, Regime.BOUND, fine, x):
        local = np.linspace(germ.beta_lo, germ.beta_hi, 65)
        dl = np.array([fd(b) for b in local])
        for i in _crossings(dl, 0.0):
            roots.append(_bisect(fd, local[i], local[i + 1], dl[i]))

    roots.sort()
    unique = [b for k, b in enumerate(roots) if k == 0 or b - roots[k - 1] > 1e-9]
    return [BoundState(b, k) for k, b in enumerate(unique)]


def bloch_label(x: float) -> float:
    """Kb = arccos(x) on the principal branch [0, pi]."""
    if abs(x) > 1.0 + 1e-12:
        raise OutOfBand(f"|x| = {abs(x):.6g} > 1")
    return math.acos(min(1.0, max(-1.0, x)))


def rational_labels(n: int) -> list[RationalLabel]:
    """Labels mu = 0..n at Kb = mu*pi/n with the n partial-band intervals."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    for mu in range(n + 1):
        kb = mu * math.pi / n
        band = (kb, (mu + 1) * math.pi / n) if mu < n else None
        out.append(RationalLabel(n, mu, kb, band))
    return out


def supercell_label(kb: float, n: int) -> tuple[int, float]:
    """Fold Kb in [0, pi] into (mu, K_reduced) with K_reduced in [0, pi/n]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kb < -1e-12 or kb > math.pi + 1e-12:
        raise ValueError(f"Kb must lie in [0, pi], got {kb}")
    kb = min(math.pi, max(0.0, kb))
    mu = min(int(kb * n / math.pi), n - 1)
    return mu, kb - mu * math.pi / n


def _single_cell_x(gamma: float, beta: float) -> float:
    params = ChainParams(beta, gamma, 1.0, Regime.BOUND)
    return cell_matrix(params, CellKind.S).x.real


def binding_equation_residual(n: int, beta: float, gamma: float) -> tuple[float, float]:
    """(lhs, rhs) of tan(n*Kb) = sin(Kb)/y1 at the single-cell dispersion point.

    Bound states of S^n sit where lhs = rhs; rhs diverges at y1 = 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    params = ChainParams(beta, gamma, 1.0, Regime.BOUND)
    M = cell_matrix(params, CellKind.S)
    x1 = M.x.real
    if abs(x1) > 1.0 + 1e-12:
        raise OutOfBand(f"beta = {beta:.6g} lies outside the single-cell germ")
    kb = bloch_label(x1)
    y1 = M.y.real
    lhs = math.tan(n * kb)
    try:
        rhs = math.sin(kb) / y1
    except ZeroDivisionError:
        rhs = math.inf
    return lhs, rhs


def partial_band_census(
    n: int,
    gamma: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> list[PartialBandCount]:
    """Bound-root count of S^n inside each of the n partial bands of the cell.

    Partial-band beta boundaries come from inverting the single-cell
    dispersion x1(beta) = cos(mu*pi/n) inside the germ; x1 must be monotone
    there (checked; violation raises ValueError).  Without exactly one
    single-cell germ in range it raises OutOfBand.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    word_s = Word("S")
    germs = band_germs(word_s, gamma, 1.0, beta_range, grid_steps)
    if len(germs) != 1:
        raise OutOfBand(f"expected one single-cell germ, found {len(germs)}")
    germ = germs[0]

    betas = np.linspace(germ.beta_lo, germ.beta_hi, grid_steps + 1)
    (x,) = _word_scan(word_s, gamma, 1.0, betas, Regime.BOUND, "x")
    dx = np.diff(x)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise ValueError("single-cell dispersion x1 is not monotone inside the germ")
    increasing = bool(dx[0] > 0)

    def beta_of_x(target: float) -> float:
        xs = x if increasing else x[::-1]
        bs = betas if increasing else betas[::-1]
        if target <= xs[0]:
            return float(bs[0])
        if target >= xs[-1]:
            return float(bs[-1])
        i = int(np.searchsorted(xs, target)) - 1
        lo_b, hi_b = sorted((bs[i], bs[i + 1]))
        return _bisect(
            lambda b: _single_cell_x(gamma, b) - target,
            lo_b,
            hi_b,
            _single_cell_x(gamma, lo_b) - target,
        )

    # beta boundary for each rational label Kb = j*pi/n, j = 0..n
    bounds = [beta_of_x(math.cos(j * math.pi / n)) for j in range(n + 1)]
    roots = bound_states(Word("S" * n), gamma, 1.0, beta_range, grid_steps)
    out = []
    for mu in range(n):
        kb_lo, kb_hi = mu * math.pi / n, (mu + 1) * math.pi / n
        b_lo, b_hi = sorted((bounds[mu], bounds[mu + 1]))
        pad = 1e-12 * max(1.0, abs(b_lo))
        count = sum(1 for r in roots if b_lo - pad < r.beta_star <= b_hi + pad)
        out.append(PartialBandCount(mu, kb_lo, kb_hi, b_lo, b_hi, count))
    return out


def dos_estimate(
    gamma: float,
    grid_steps: int = DEFAULT_GRID_STEPS,
    beta_range=DEFAULT_BETA_RANGE,
) -> DosSamples:
    """Density of states dN/dE ~ dK/dE over the single-cell band germ.

    E = -beta**2 is the dimensionless Bound-regime energy (the physical
    prefactor hbar^2/(2 m b^2) is a documented constant, not computed).
    Centered differences on the interior, one-sided at the germ edges;
    the returned density is normalized to unit integral over the band.
    Without exactly one single-cell germ in range it raises OutOfBand.
    """
    word_s = Word("S")
    germs = band_germs(word_s, gamma, 1.0, beta_range, grid_steps)
    if len(germs) != 1:
        raise OutOfBand(f"expected one single-cell germ, found {len(germs)}")
    germ = germs[0]
    betas = np.linspace(germ.beta_lo, germ.beta_hi, grid_steps + 2)[1:-1]
    (x,) = _word_scan(word_s, gamma, 1.0, betas, Regime.BOUND, "x")
    kb = np.arccos(np.clip(x, -1.0, 1.0))
    energy = -betas * betas
    density = np.abs(np.gradient(kb, energy))
    norm = abs(float(_trapezoid(density, energy)))
    density = density / norm
    return DosSamples(beta=betas, energy=energy, kb=kb, density=density)
