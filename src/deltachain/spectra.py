"""Negative-energy spectral analysis of finite chains.

Everything here scans the dimensionless energy variable beta at fixed
(gamma, q, word): the energy gauge, maximal band germs (|x| <= 1), bound
roots of d(beta) = 0, rational Bloch labels and partial bands, the binding
equation, and a density-of-states estimate for the single cell.

Bound roots are counted: by the Sturm oscillation theorem N(lo) - N(hi) of
them lie in range, however the grid falls (see _node_count), and
bound_states bisects on N until each sits alone.  Band germs keep the grid
census: a uniform scan brackets the x = +1 and x = -1 crossings, and a
one-level x4 refinement re-censuses them; a disagreement raises
GridTooCoarse instead of returning a partial census.  Roots and edges are
refined to |dbeta| <= 1e-10 on the grid kernel, all brackets of a query in
lockstep, one kernel call on the vector of midpoints per step (see
_bisect).  cell_matrix serves only the one-point binding_equation_residual.

Each query makes one fine scan, on the x4 grid; the base grid of the germ
census is every 4th sample of it (np.linspace(lo, hi, n + 1) equals
np.linspace(lo, hi, 4n + 1)[::4] bit for bit).  In the Bound regime the
scan multiplies real float64 entries; they equal the real parts of the
complex-arithmetic entries bit for bit, so every sample, bracket and
GridTooCoarse decision is the one complex arithmetic gives.  Its
exponentials come from np.exp, which can differ from math.exp (and so from
word_matrix) in the last bit; with numpy's AVX-512 exp that happens at
about 5% of points.  In the Scattering regime it multiplies (re, im)
float64 pairs with CPython's complex formulas (see _cell_entries), so each
sample equals word_matrix at that beta bit for bit.  Entries that overflow
float64 raise OverflowRisk instead of leaving inf or NaN samples behind.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ChainParams, Regime, cell_matrix, CellKind
from .errors import GridTooCoarse, OutOfBand, OverflowRisk
from .substitution import Word, guard_exponent

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
    regime, multiplied in word_matrix's order.  Scattering values equal
    word_matrix's bit for bit; Bound values do up to np.exp's last bit (see
    the module docstring).  The product starts from the first cell, not
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

    Each call writes its own slice of a preallocated output.  An overflow
    or invalid operation inside fill (the entries of a long word at strong
    coupling outgrow float64) raises OverflowRisk.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, size, _CHUNK):
                fill(slice(start, start + _CHUNK))
    except FloatingPointError as err:
        raise OverflowRisk(f"transfer-matrix entries are not finite ({err})") from None


def _word_scan(word: Word, gamma: float, q: float, betas: np.ndarray, regime: Regime, which: str):
    """Real x(beta) (which = "x") or d(beta) (which = "d") of the word matrix over a grid."""
    out = np.empty(betas.size)

    def fill(part: slice) -> None:
        A, _, _, D = _word_grid(word, gamma, q, betas[part], regime)
        if regime is Regime.SCATTERING:
            A, D = A[0], D[0]
        out[part] = 0.5 * (A + D) if which == "x" else D

    _run_chunks(betas.size, fill)
    return out


def _node_count(word: Word, gamma: float, q: float, betas: np.ndarray) -> np.ndarray:
    """Number of bound states with beta* > beta, at every beta of the grid.

    By the Sturm oscillation theorem it is the number of zeros of the
    solution that decays on the left (psi = 1, psi' = beta before the first
    delta).  The solution is carried in the exponential basis, psi =
    cm*exp(-beta*xi) + cp*exp(beta*xi), so psi = cm + cp at a cell boundary.
    A delta jump adds no zero and a tunnel at most one, where psi changes
    sign across it.  The free tail adds one when psi*psi' < 0 and
    |psi'| > beta*|psi|, i.e. cm*cp < 0 and |cm| > |cp|.  Each cell divides
    (cm, cp) by |cm| + |cp|, so the carry never overflows.
    """
    out = np.empty(betas.size, dtype=np.int64)

    def fill(part: slice) -> None:
        beta = betas[part]
        # One cell maps (cm, cp) by [[a, -c], [-b, d]] of its cell matrix:
        # the delta jump first, then the tunnel.
        cells = {}
        for ch in set(word.letters):
            a, b, c, d = _cell_entries(gamma, beta, Regime.BOUND, 1.0 if ch == "S" else q)
            cells[ch] = a, -c, -b, d
        cm, cp = np.zeros(beta.size), np.ones(beta.size)
        positive = np.ones(beta.size, dtype=bool)
        n = np.zeros(beta.size, dtype=np.int64)
        for ch in word.letters:
            a, b, c, d = cells[ch]
            cm, cp = a * cm + b * cp, c * cm + d * cp
            norm = np.abs(cm) + np.abs(cp)
            cm, cp = cm / norm, cp / norm
            now = cm + cp > 0.0
            n += now != positive
            positive = now
        n += (cm * cp < 0.0) & (np.abs(cm) > np.abs(cp))
        out[part] = n

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
    guard_exponent(word, hi, q, regime)
    return lo, hi


def _crossings(values: np.ndarray, target: float) -> np.ndarray:
    """Indices i where values crosses target strictly between samples i and i+1.

    Samples equal to target or NaN never count, as for a sign product.
    """
    above, below = values > target, values < target
    return np.nonzero((above[1:] & below[:-1]) | (below[1:] & above[:-1]))[0]


def _bisect(
    word: Word, gamma: float, q: float, regime: Regime, which: str, lo, hi, flo, target=0.0
) -> np.ndarray:
    """Sign-change bisection of f = x - target or d - target on all brackets at once.

    ``which`` is "x" or "d"; lo, hi and flo = f(lo) are arrays with one
    entry per bracket, and target is a scalar or one value per bracket.
    The brackets move in lockstep on the grid kernel: each step evaluates
    the midpoints 0.5*(lo + hi) of all unconverged brackets in one
    _word_scan call.  A bracket stops once its width is <= ROOT_TOL, and an
    exact zero f(mid) == 0 collapses it to lo = hi = mid.  Each bracket
    thus takes the float operations of a scalar bisection on the same
    kernel and returns the same root, 0.5*(lo + hi).
    """
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    for _ in range(200):
        live = np.nonzero(hi - lo > ROOT_TOL)[0]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = _word_scan(word, gamma, q, mid, regime, which)
        fm -= target[live]
        zero = fm == 0.0
        up = zero | ((fm > 0.0) == (flo[live] > 0.0))
        down = zero | ~up
        lo[live[up]], flo[live[up]] = mid[up], fm[up]
        hi[live[down]] = mid[down]
    return 0.5 * (lo + hi)


def energy_gauge(word: Word, gamma: float, q: float, beta: float) -> int:
    """0 if |x(beta)| <= 1 for the word's transfer matrix, else 1.

    x is the grid kernel's value at the one point beta, so at a germ edge
    the gauge reads the same side as band_germs' scan.  Repetition-invariant:
    S^n has the same gauge as S, because |x| <= 1 holds for a power exactly
    when it holds for the base matrix.
    """
    ChainParams(beta, gamma, q, Regime.BOUND)  # validates beta, gamma and q
    guard_exponent(word, beta, q, Regime.BOUND)
    x = _word_scan(word, gamma, q, np.array([beta], dtype=float), Regime.BOUND, "x")[0]
    return 0 if abs(x) <= 1.0 else 1


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
    betas = np.linspace(lo, hi, 4 * grid_steps + 1)
    x = _word_scan(word, gamma, q, betas, regime, "x")
    for target in (1.0, -1.0):
        if _crossings(x[::4], target).size != _crossings(x, target).size:
            raise GridTooCoarse(
                f"x = {target:+g} crossings differ between {grid_steps} and "
                f"{4 * grid_steps} grid steps; increase grid_steps"
            )

    # Refine every edge crossing first.  A band narrower than the grid
    # spacing leaves no in-band sample, but it still shows up as one x = +1
    # and one x = -1 crossing inside the same grid interval, so germs are
    # assembled from the refined crossings, not from in-band samples.
    up, down = _crossings(x, 1.0), _crossings(x, -1.0)
    i = np.concatenate([up, down])
    target = np.repeat([1.0, -1.0], [up.size, down.size])
    roots = _bisect(word, gamma, q, regime, "x", betas[i], betas[i + 1], x[i] - target, target)
    edge_kinds = [EdgeKind.X_PLUS_ONE] * up.size + [EdgeKind.X_MINUS_ONE] * down.size
    edges = sorted(zip(roots.tolist(), edge_kinds), key=lambda e: e[0])

    # Between consecutive crossings the in-band predicate is constant, so
    # one kernel call on the segment midpoints classifies every segment.  A
    # germ spans a maximal in-band run; at the scan ends it is clipped and
    # takes the nearer edge kind from the sign of x.
    def clip_kind(value: float) -> EdgeKind:
        return EdgeKind.X_PLUS_ONE if value >= 0.0 else EdgeKind.X_MINUS_ONE

    bounds = [float(betas[0])] + [b for b, _ in edges] + [float(betas[-1])]
    kinds = [clip_kind(x[0])] + [k for _, k in edges] + [clip_kind(x[-1])]
    b = np.array(bounds)
    xm = _word_scan(word, gamma, q, 0.5 * (b[:-1] + b[1:]), regime, "x")
    run = np.diff(np.concatenate([[0], np.abs(xm) <= 1.0, [0]]).astype(np.int8))
    last = len(bounds) - 1
    return [
        BandGerm(bounds[k0], bounds[k1], kinds[k0], kinds[k1], k0 == 0, k1 == last)
        for k0, k1 in zip(np.nonzero(run == 1)[0].tolist(), np.nonzero(run == -1)[0].tolist())
    ]


def _refuse(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray, what: str) -> None:
    """Raise GridTooCoarse naming the first interval [lo, hi] where mask holds."""
    if np.any(mask):
        k = np.argmax(mask)
        raise GridTooCoarse(f"{what} on [{float(lo[k])!r}, {float(hi[k])!r}]")


def bound_states(
    word: Word,
    gamma: float,
    q: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> list[BoundState]:
    """Roots of d(beta) in range, counted by _node_count and bisection-refined.

    Bound regime only: d = 0 is the decaying-boundary-condition equation.
    The count on the x4 grid puts N(lo) - N(hi) roots in range.  Intervals
    whose count drops by 2 or more are split by lockstep bisection on the
    count until each holds one root, which _bisect refines on d (from the
    grid ends for a grid interval).  GridTooCoarse names the first interval
    where the count rises, two roots stay within ROOT_TOL, or d does not
    change sign across one root, so a list always holds N(lo) - N(hi) roots.
    The same roots are the S-matrix poles; ``scattering.bound_poles`` is
    that public alias.
    """
    lo, hi = _check_scan_inputs(word, gamma, q, beta_range, grid_steps, Regime.BOUND)
    fine = np.linspace(lo, hi, 4 * grid_steps + 1)
    n = _node_count(word, gamma, q, fine)
    a, b, na, nb = fine[:-1], fine[1:], n[:-1], n[1:]
    one_lo, one_hi = [], []
    while a.size:
        drop = na - nb
        _refuse(drop < 0, a, b, "the bound-state count rises with beta")
        one_lo.append(a[drop == 1])
        one_hi.append(b[drop == 1])
        split = drop >= 2
        a, b, na, nb = a[split], b[split], na[split], nb[split]
        _refuse(b - a <= ROOT_TOL, a, b, f"bound roots closer than {ROOT_TOL:g}")
        mid = 0.5 * (a + b)
        nm = _node_count(word, gamma, q, mid)
        a, b, na, nb = (np.concatenate(pair) for pair in ((a, mid), (mid, b), (na, nm), (nm, nb)))

    r_lo, r_hi = np.concatenate(one_lo), np.concatenate(one_hi)
    order = np.argsort(r_lo)
    r_lo, r_hi = r_lo[order], r_hi[order]
    d = _word_scan(word, gamma, q, np.concatenate([r_lo, r_hi]), Regime.BOUND, "d")
    d_lo, d_hi = d[: r_lo.size], d[r_lo.size :]
    flips = np.sign(d_lo) * np.sign(d_hi) == -1.0
    _refuse(~flips, r_lo, r_hi, "no sign change of d at one bound root")
    roots = _bisect(word, gamma, q, Regime.BOUND, "d", r_lo, r_hi, d_lo)
    return [BoundState(r, k) for k, r in enumerate(roots.tolist())]


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


def _single_cell_germ(gamma: float, beta_range, grid_steps: int) -> BandGerm:
    """The single cell's one Bound-regime band germ in range; OutOfBand otherwise."""
    germs = band_germs(Word("S"), gamma, 1.0, beta_range, grid_steps)
    if len(germs) != 1:
        raise OutOfBand(f"expected one single-cell germ, found {len(germs)}")
    return germs[0]


def binding_equation_residual(n: int, beta: float, gamma: float) -> tuple[float, float]:
    """(lhs, rhs) of tan(n*Kb) = sin(Kb)/y1 at the single-cell dispersion point.

    Bound states of S^n sit where lhs = rhs; rhs diverges at y1 = 0.
    """
    return _binding_terms(n, beta, gamma)[1:]


def _binding_terms(n: int, beta: float, gamma: float) -> tuple[float, float, float]:
    """(Kb, lhs, rhs) of the binding equation from one single-cell matrix."""
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
    return kb, lhs, rhs


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
    germ = _single_cell_germ(gamma, beta_range, grid_steps)
    betas = np.linspace(germ.beta_lo, germ.beta_hi, grid_steps + 1)
    x = _word_scan(word_s, gamma, 1.0, betas, Regime.BOUND, "x")
    dx = np.diff(x)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise ValueError("single-cell dispersion x1 is not monotone inside the germ")

    # beta boundary for each rational label Kb = j*pi/n, j = 0..n: targets
    # beyond the germ's x1 range clip to its ends, the rest are bisected.
    xs, bs = (x, betas) if dx[0] > 0 else (x[::-1], betas[::-1])
    targets = np.array([math.cos(j * math.pi / n) for j in range(n + 1)])
    bounds = np.where(targets <= xs[0], bs[0], bs[-1])
    inner = np.nonzero((targets > xs[0]) & (targets < xs[-1]))[0]
    i = np.searchsorted(xs, targets[inner]) - 1
    a, b = (i, i + 1) if dx[0] > 0 else (i + 1, i)  # sample indices of the lower, upper beta
    t = targets[inner]
    bounds[inner] = _bisect(word_s, gamma, 1.0, Regime.BOUND, "x", bs[a], bs[b], xs[a] - t, t)
    bounds = bounds.tolist()
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
    germ = _single_cell_germ(gamma, beta_range, grid_steps)
    betas = np.linspace(germ.beta_lo, germ.beta_hi, grid_steps + 2)[1:-1]
    x = _word_scan(Word("S"), gamma, 1.0, betas, Regime.BOUND, "x")
    kb = np.arccos(np.clip(x, -1.0, 1.0))
    energy = -betas * betas
    density = np.abs(np.gradient(kb, energy))
    norm = abs(float(_trapezoid(density, energy)))
    density = density / norm
    return DosSamples(beta=betas, energy=energy, kb=kb, density=density)
