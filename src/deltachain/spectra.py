"""Negative-energy spectral analysis of finite chains.

Everything here scans the dimensionless energy variable beta at fixed
(gamma, q, word): the energy gauge, maximal band germs (|x| <= 1), bound
roots of d(beta) = 0, rational Bloch labels and partial bands, the binding
equation, and a density-of-states estimate for the single cell.

Roots and band edges are counted, so how many lie in range does not
depend on how the grid falls: by the Sturm oscillation theorem N(lo) -
N(hi) bound roots (see _node_count), and from the Dirichlet count and x the
number of band edges below each energy, twice the rotation number (see
_edge_count).  One fold, _sturm, counts the zeros behind both, in either
regime; Scattering cells act on (psi, psi'/beta), where strong coupling
does not cancel.  One isolation rule serves both: the exact count says how
many an interval holds, _isolate bisects on it until each sits alone, and
_bisect refines each one to |dbeta| <= 1e-10 on the grid kernel, all
brackets of a query in lockstep, one kernel call on the vector of midpoints
per step.

Each query makes one scan, on the x4 grid of grid_steps, with the
vectorized kernel of kernel.py, whose samples equal word_matrix's product
bit for bit.  Each count is a fill of kernel._scan; the edge count reads N
and x from one chunk's cells.  gamma is broadcast to one value per point
or bracket, so band germs at many gammas (_germ_rows) share one isolation
and one bisection; each value is the one a single-gamma query computes.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CellKind, ChainParams, Regime
from .errors import GridTooCoarse, OutOfBand
from .kernel import _scan, _word_scan, _word_value, _x_crossings
from .substitution import Word, guard_exponent

DEFAULT_BETA_RANGE = (0.05, 6.0)
DEFAULT_GRID_STEPS = 2000
ROOT_TOL = 1e-10
# |x| <= 1 + BAND_TOL is in band; it absorbs rounding where x only touches +-1.
BAND_TOL = 1e-12

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


def _sturm(word: Word, q: float, beta: np.ndarray, cells: dict, regime: Regime, dirichlet=False) -> np.ndarray:
    """Zeros of one solution along the word, over one chunk of _scan cells, in both regimes.

    From psi = 1, psi' = beta before the first delta (the solution that
    decays on the left) they count the bound states with beta* > beta, by
    the Sturm oscillation theorem.  dirichlet=True starts from psi = 0,
    psi' > 0 and drops the tail: they then count the Dirichlet eigenvalues
    of one period below the energy (the rotation number).

    A cell maps the carry (cm, cp) by [[a, -c], [-b, d]], and the carry is
    divided by |cm| + |cp| after each cell so that it never overflows.  In
    the Bound regime the carry is the exponential-basis coefficients
    ((psi - psi'/beta)/2, (psi + psi'/beta)/2), so psi = cm + cp; in the
    Scattering regime it is (psi'/beta, psi) under the real cells, so psi =
    cp.  A tunnel of phase t = beta*ratio adds floor(t/pi) zeros (none in
    the Bound regime), and one more where psi's sign at its end differs from
    (-1)**floor(t/pi) times its sign at its start; the map is taken times
    (-1)**floor(t/pi), so that reads as a plain sign change.  The tail
    (Bound regime) adds one when psi*psi' < 0 and |psi'| > beta*|psi|, i.e.
    cm*cp < 0 and |cm| > |cp|.
    """
    n = np.zeros(beta.size, dtype=np.int64)
    bound = regime is Regime.BOUND
    if not bound:  # turns counted, and each map taken times (-1)**turns, once per chunk and letter
        turns = {ch: np.floor(beta * CellKind(ch).ratio(q) / np.pi) for ch in cells}
        n += sum(word.letters.count(ch) * t.astype(np.int64) for ch, t in turns.items())
        sign = {ch: (-1.0) ** t for ch, t in turns.items()}
        cells = {ch: tuple(sign[ch] * v for v in cell) for ch, cell in cells.items()}
    start = np.full(beta.size, 0.0 if dirichlet else 1.0)  # psi
    cm, cp = (start - 1.0, np.ones(beta.size)) if bound else (np.ones(beta.size), start)
    positive = np.ones(beta.size, dtype=bool)
    for ch in word.letters:
        a, b, c, d = cells[ch]
        cm, cp = a * cm - c * cp, d * cp - b * cm
        norm = np.abs(cm) + np.abs(cp)
        cm, cp = cm / norm, cp / norm
        now = (cm + cp if bound else cp) > 0.0
        n += now != positive
        positive = now
    if not dirichlet:
        n += (cm * cp < 0.0) & (np.abs(cm) > np.abs(cp))
    return n


def _node_count(word: Word, gamma, q: float, betas: np.ndarray) -> np.ndarray:
    """Bound states above every beta of the grid (_sturm); gamma is a scalar or one value per beta."""
    return _scan(word, gamma, q, betas, Regime.BOUND,
                 lambda beta, cells: _sturm(word, q, beta, cells, Regime.BOUND), dtype=np.int64)


def _edge_count(word: Word, gamma, q: float, betas: np.ndarray, regime: Regime):
    """Band edges below the energy at each beta: twice the rotation number.

    One Dirichlet eigenvalue of a period lies in each gap, open or closed,
    so with N below the energy a band (|x| <= 1 + BAND_TOL) has 2N + 1 edges
    below it and a gap 2k, k being N or N + 1, even where x > 1 and odd where
    x < -1; negated in the Scattering regime, it never increases with beta.
    A power W^n (at q = 1 every word is S^n) has the bands of W, so x is
    read from W and the closed gaps of W^n do not hang on rounding.  N (_sturm)
    and x read one chunk's cells; gamma is a scalar or one value per beta.
    """
    bound = regime is Regime.BOUND
    word = Word(word.letters.replace("L", "S")) if q == 1.0 else word  # at q = 1, L is S
    size = (word.letters * 2).find(word.letters, 1)  # the primitive root's length
    root, odd = word if size == len(word) else Word(word.letters[:size]), len(word) // size % 2 == 1

    def fill(beta: np.ndarray, cells: dict) -> np.ndarray:
        n = _sturm(word, q, beta, cells, regime, dirichlet=True)
        x = _word_value(root, cells, "x")
        k = n + ((n % 2 == 1) != ((x < 0.0) & odd))
        c = np.where(np.abs(x) <= 1.0 + BAND_TOL, 2 * n + 1, 2 * k)
        return c if bound else -c

    return _scan(word, gamma, q, betas, regime, fill, dtype=np.int64)


def _check_scan_inputs(word: Word, gamma, q: float, beta_range, grid_steps: int, regime: Regime):
    """Validate a scan's inputs (gamma a scalar or a vector); returns the finite range (lo, hi)."""
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be >= 100, got {grid_steps}")
    if not (np.isfinite(gamma).all() and 0.0 < q < math.inf):
        raise ValueError(f"gamma must be finite and q in (0, inf), got gamma = {gamma}, q = {q}")
    lo, hi = beta_range
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"beta_range must satisfy 0 < lo < hi, got {beta_range}")
    guard_exponent(word, hi, q, regime)
    return lo, hi


def _bisect(
    word: Word, gamma, q: float, regime: Regime, which: str, lo, hi, flo, target=0.0
) -> np.ndarray:
    """Sign-change bisection of f = x - target or d - target on all brackets at once.

    ``which`` is "x" or "d"; lo, hi and flo = f(lo) are arrays with one
    entry per bracket, and gamma and target are scalars or one value per
    bracket.
    The brackets move in lockstep on the grid kernel: each step evaluates
    the midpoints 0.5*(lo + hi) of all unconverged brackets in one
    _word_scan call.  A bracket stops once its width is <= ROOT_TOL, and an
    exact zero f(mid) == 0 collapses it to lo = hi = mid.  Each bracket
    thus takes the float operations of a scalar bisection on the same
    kernel and returns the same root, 0.5*(lo + hi).
    """
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    gamma, target = (np.full(lo.shape, v, dtype=float) for v in (gamma, target))
    for _ in range(200):
        live = np.nonzero(hi - lo > ROOT_TOL)[0]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = _word_scan(word, gamma[live], q, mid, regime, which)
        fm -= target[live]
        zero = fm == 0.0
        up = zero | ((fm > 0.0) == (flo[live] > 0.0))
        down = zero | ~up
        lo[live[up]], flo[live[up]] = mid[up], fm[up]
        hi[live[down]] = mid[down]
    return 0.5 * (lo + hi)


def energy_gauge(word: Word, gamma: float, q: float, beta: float) -> int:
    """0 if beta is in band for the word's transfer matrix, else 1.

    In band is read as band_germs reads it, from the parity of _edge_count:
    |x| <= 1 + BAND_TOL, with x from the word's root on the grid kernel.
    Repetition-invariant: S^n has the gauge of S.
    """
    ChainParams(beta, gamma, q, Regime.BOUND)  # validates beta, gamma and q
    guard_exponent(word, beta, q, Regime.BOUND)
    return int(_edge_count(word, gamma, q, np.array([beta], dtype=float), Regime.BOUND)[0] % 2 == 0)


def _refuse(failed: dict, mask, row, lo, hi, what: str) -> None:
    """Refuse each query row where mask holds, naming its first interval [lo, hi] there.

    failed maps a row to its message; a row keeps the first one it gets, so
    a query is refused for what a query run on its own would raise first.
    """
    for k in np.flatnonzero(mask).tolist():
        failed.setdefault(int(row[k]), f"{what} on [{float(lo[k])!r}, {float(hi[k])!r}]")


def _isolate(count, a, b, na, nb, row, what: str, failed: dict):
    """Bisect intervals [a, b] on a count(betas, row) that never increases with beta.

    [a, b] of query ``row`` holds na - nb roots or edges; those holding more
    are halved in lockstep, one count call per step, until one is left or
    they are ROOT_TOL wide.  Returns (lo, hi, n_lo, n_hi, row) of those
    holding any; an interval whose count rises is dropped and refuses its
    row (see _refuse).
    """
    done = []
    while a.size:
        drop = na - nb
        _refuse(failed, drop < 0, row, a, b, f"the {what} count rises with beta")
        split = (drop >= 2) & (b - a > ROOT_TOL)
        hold = (drop >= 1) & ~split
        done.append((a[hold], b[hold], na[hold], nb[hold], row[hold]))
        if not split.any():
            break
        a, b, na, nb, row = (v[split] for v in (a, b, na, nb, row))
        mid = 0.5 * (a + b)
        nm = count(mid, row)
        pairs = (a, mid), (mid, b), (na, nm), (nm, nb), (row, row)
        a, b, na, nb, row = (np.concatenate(pair) for pair in pairs)
    return tuple(np.concatenate(v) for v in zip(*done)) if done else (a, b, na, nb, row)


def band_germs(
    word: Word,
    gamma: float,
    q: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
    regime: Regime = Regime.BOUND,
) -> list[BandGerm]:
    """Maximal beta intervals with |x| <= 1, edges counted and bisection-refined.

    The edge count (_edge_count) is taken at the window ends and at both
    ends of every x = +-1 crossing interval of the x4 grid; _isolate splits
    the pieces between them until each edge sits alone, its kind taken from
    the count, and _bisect refines it on x.  The one builder of BandGerms,
    it pairs the edges _germ_rows finds at one gamma; its refusal, a
    GridTooCoarse, names where the count rises or x misses a counted edge.
    """
    (_, bound, plus, clipped), refused = _germ_rows(word, [gamma], q, beta_range, grid_steps, regime)
    if refused:
        raise refused[0]
    kinds = np.where(plus, EdgeKind.X_PLUS_ONE, EdgeKind.X_MINUS_ONE).tolist()
    edges = zip(bound.tolist(), kinds, clipped.tolist())  # zip(edges, edges) pairs consecutive edges
    return [BandGerm(lo, hi, k_lo, k_hi, c_lo, c_hi) for (lo, k_lo, c_lo), (hi, k_hi, c_hi) in zip(edges, edges)]


def _germ_rows(word: Word, gammas, q: float, beta_range, grid_steps: int, regime: Regime):
    """((row, bound, plus, clipped), refused): band_germs' edges at every gamma of a vector, in one pass.

    One entry per edge, a germ's low edge then its high one, germs by gamma
    index row, then beta: bound is the edge, plus marks x = +1 (else -1) and
    clipped a window end; refused maps a refused gamma's index to its
    GridTooCoarse.  The count points (window ends and both ends of every
    crossing interval of _x_crossings) are one sorted table over row * n +
    index, unique by a neighbour mask.  The edge count, _isolate, one x scan
    (bracket ends, and window ends for clipped edges) and _bisect run once
    over all gammas' pieces, each with its gamma; the kernel is elementwise,
    so each edge is bit for bit a query's at its gamma alone.
    """
    gammas = np.asarray(gammas, dtype=float)
    lo, hi = _check_scan_inputs(word, gammas, q, beta_range, grid_steps, regime)
    betas = np.linspace(lo, hi, 4 * grid_steps + 1)
    n, every = betas.size, np.arange(gammas.size)
    row, index = _x_crossings(word, gammas.tolist(), q, betas, regime)
    point = np.sort(np.concatenate([row * n + index, row * n + index + 1, every * n, every * n + n - 1]))
    # unique by hand: np.unique imports numpy.ma, about 8 ms and 1.3 MB in a fresh process
    row, p = np.divmod(point[np.append(True, point[1:] != point[:-1])], n)
    c = _edge_count(word, gammas[row], q, betas[p], regime)

    # An isolated interval keeps its first edge if its low end is in a gap
    # (even count) and its last if its high end is; edges within ROOT_TOL
    # close every gap among them.  x crosses each edge's kind t (from the
    # count), or at least t*(1 + BAND_TOL), unless the two disagree.
    failed = {}
    piece = row[1:] == row[:-1]  # consecutive count points of one gamma
    pieces = (v[piece] for v in (betas[p[:-1]], betas[p[1:]], c[:-1], c[1:], row[:-1]))
    left, right, ca, cb, r = _isolate(
        lambda mid, r: _edge_count(word, gammas[r], q, mid, regime), *pieces, "band-edge", failed
    )
    gap_lo, gap_hi = ca % 2 == 0, cb % 2 == 0
    a, b, one, r = (np.append(v[gap_lo], v[gap_hi]) for v in (left, right, ca - cb == 1, r))
    t = np.where(np.append(ca[gap_lo], cb[gap_hi] + 1) % 4 <= 1, 1.0, -1.0)
    ends = np.repeat(betas[[0, -1]], every.size)
    x = _word_scan(word, gammas[np.concatenate([r, r, every, every])], q, np.concatenate([a, b, ends]), regime, "x")
    x_lo, x_hi, x_first, x_last = np.split(x, np.cumsum([r.size, r.size, every.size]))
    target = np.where(np.sign(x_lo - t) * np.sign(x_hi - t) < 0.0, t, t * (1.0 + BAND_TOL))
    miss = one & (np.sign(x_lo - target) * np.sign(x_hi - target) >= 0.0)  # signs: |x| may pass 1e154
    _refuse(failed, miss, r, a, b, "x does not cross +-1 at a counted edge")
    roots = _bisect(word, gammas[r], q, regime, "x", a, b, x_lo - target, target)

    # Each gamma's bounds are the window start, its edges in beta order and
    # the window end; a stable sort keeps that order, as every root lies in
    # the window.  Bands and gaps alternate from the start, in band if its
    # count is odd.  A clipped germ takes the nearer edge kind from the sign of x.
    at = np.concatenate([every, r, every])
    bound = np.concatenate([ends[:every.size], roots, ends[every.size:]])
    order = np.lexsort((bound, at))
    at, bound, plus = at[order], bound[order], np.concatenate([x_first, target, x_last])[order] >= 0.0
    pos, start, stop = np.arange(at.size), np.searchsorted(at, at), np.searchsorted(at, at, "right")
    first = c[p == 0] % 2 == 0  # the window starts in a gap
    k = np.flatnonzero((pos + 1 < stop) & ((pos - start) % 2 == first[at]) & ~np.isin(at, list(failed)))
    e = np.stack([k, k + 1], axis=1).ravel()  # each germ's low edge, then its high edge
    refused = {i: GridTooCoarse(f"{why} (word {word}, gamma = {float(gammas[i])!r}, {regime.value} regime)")
               for i, why in failed.items()}
    return (at[e], bound[e], plus[e], ((pos == start) | (pos + 1 == stop))[e]), refused


def bound_states(
    word: Word,
    gamma: float,
    q: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> list[BoundState]:
    """Roots of d(beta) in range, counted by _node_count and bisection-refined.

    Bound regime only: d = 0 is the decaying-boundary-condition equation.
    The count on the x4 grid puts N(lo) - N(hi) roots in range; _isolate
    splits the grid intervals until each holds one root, which _bisect
    refines on d (from the grid ends for a grid interval).  GridTooCoarse
    names the first interval where the count rises, two roots stay within
    ROOT_TOL, or d does not change sign across one root, so a list always
    holds N(lo) - N(hi) roots.  The count places a root in (lo, hi], so one
    where d is exactly 0 at an interval's upper end is that end.  The same
    roots are the S-matrix poles; ``scattering.bound_poles`` is that public
    alias.
    """
    lo, hi = _check_scan_inputs(word, gamma, q, beta_range, grid_steps, Regime.BOUND)
    fine = np.linspace(lo, hi, 4 * grid_steps + 1)
    n = _node_count(word, gamma, q, fine)

    failed = {}
    r_lo, r_hi, n_lo, n_hi, row = _isolate(
        lambda mid, _: _node_count(word, gamma, q, mid),
        fine[:-1], fine[1:], n[:-1], n[1:], np.zeros(n.size - 1, dtype=np.int64), "bound-state", failed,
    )
    _refuse(failed, n_lo - n_hi > 1, row, r_lo, r_hi, f"bound roots closer than {ROOT_TOL:g}")
    if failed:
        raise GridTooCoarse(failed[0])
    d_lo, d_hi = _word_scan(word, gamma, q, np.append(r_lo, r_hi), Regime.BOUND, "d").reshape(2, -1)
    at_hi = (d_hi == 0.0) & (d_lo != 0.0)
    no_sign = (np.sign(d_lo) * np.sign(d_hi) != -1.0) & ~at_hi
    _refuse(failed, no_sign, row, r_lo, r_hi, "no sign change of d at one bound root")
    if failed:
        raise GridTooCoarse(failed[0])
    roots = np.sort(np.where(at_hi, r_hi, _bisect(word, gamma, q, Regime.BOUND, "d", r_lo, r_hi, d_lo)))
    return [BoundState(r, k) for k, r in enumerate(roots.tolist())]


def bloch_label(x: float) -> float:
    """Kb = arccos(x) on the principal branch [0, pi]; OutOfBand for |x| > 1 or NaN."""
    if not abs(x) <= 1.0 + BAND_TOL:
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
    if not -1e-12 <= kb <= math.pi + 1e-12:  # NaN too
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

    Bound states of S^n sit where lhs = rhs; rhs diverges at y1 = 0.  This
    is _binding_terms at one beta.
    """
    ChainParams(beta, gamma, 1.0, Regime.BOUND)  # validates beta and gamma
    guard_exponent(Word("S"), beta, 1.0, Regime.BOUND)
    [(_, lhs, rhs)] = _binding_terms(n, np.array([beta], dtype=float), gamma).tolist()
    return lhs, rhs


def _binding_terms(n: int, betas: np.ndarray, gamma: float) -> np.ndarray:
    """Rows (Kb, lhs, rhs) of the binding equation, one per beta.

    x1 and y1 come from one scan of the single cell's diagonal on the grid
    kernel; acos, tan and sin are math's, taken point by point, because
    numpy's round differently in the last bit.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    a, d = _scan(Word("S"), gamma, 1.0, betas, Regime.BOUND,  # the cell's diagonal (a, d)
                 lambda b, cells: cells["S"][::3], (2,))
    rows = []
    for beta, x1, y1 in zip(betas.tolist(), (0.5 * (a + d)).tolist(), (0.5 * (a - d)).tolist()):
        if abs(x1) > 1.0 + BAND_TOL:
            raise OutOfBand(f"beta = {beta:.6g} lies outside the single-cell germ")
        kb = bloch_label(x1)
        rows.append((kb, math.tan(n * kb), math.sin(kb) / y1 if y1 != 0.0 else math.inf))
    return np.array(rows, dtype=float).reshape(-1, 3)


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
    above = _node_count(Word("S" * n), gamma, 1.0, bounds).tolist()  # roots of S^n above each bound
    bounds = bounds.tolist()
    out = []
    for mu in range(n):
        kb_lo, kb_hi = mu * math.pi / n, (mu + 1) * math.pi / n
        (b_lo, n_lo), (b_hi, n_hi) = sorted(((bounds[mu], above[mu]), (bounds[mu + 1], above[mu + 1])))
        out.append(PartialBandCount(mu, kb_lo, kb_hi, b_lo, b_hi, n_lo - n_hi))
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
