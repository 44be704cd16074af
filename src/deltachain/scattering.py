"""Positive-energy analysis: S-matrix, poles, backscattering, commuting energies.

The S-matrix comes from the amplitude relation r = M l between the
exponential-basis coefficients on the two sides of the string, solved under
the two incidence boundary conditions and referenced with the free
propagation phases exp(-i beta h), exp(-2 i beta h) over the string length
h (in units of b) so that the free string gives S = identity exactly:

    s_pp = e^{-i beta h} / d      s_pm = b e^{-2 i beta h} / d
    s_mp = -c / d                 s_mm = e^{-i beta h} / d

In the scattering regime |d| = |a| = sqrt(1 + |b|^2) >= 1, so the
ResonancePole guard is defensive; poles live on the Bound-regime axis where
d(beta) = 0, which is exactly the bound-state condition.

s_matrix_grid evaluates these forms over a whole beta grid in numpy's
complex128 arithmetic, and s_matrix is its one-point case.  M is the
kernel's real product on (psi, psi'/beta), taken to the exponential basis
by core._from_real (d = conj(a), c = conj(b) exactly).  The abs columns are
hypot of the parts, as Python's abs rounds a complex.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CellKind,
    ChainParams,
    Regime,
    TAU,
    TransferMatrix,
    _from_real,
    cell_matrix,
    commutator,
    power_closed,
)
from .errors import ResonancePole
from .kernel import _scan, _word_grid, _word_scan
from .spectra import DEFAULT_BETA_RANGE, DEFAULT_GRID_STEPS, _check_scan_inputs, bound_states
from .substitution import Word, fibonacci_number, fibonacci_word, word_matrix


@dataclass(frozen=True)
class SMatrix:
    """2x2 unitary scattering matrix plus the string length h (units of b)."""

    s_pp: complex
    s_pm: complex
    s_mp: complex
    s_mm: complex
    h_ratio: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.s_pp, self.s_pm], [self.s_mp, self.s_mm]], dtype=complex)

    def unitarity_defect(self) -> float:
        S = self.as_array()
        return float(np.max(np.abs(S @ S.conj().T - np.eye(2))))


@dataclass(frozen=True)
class CommutingPoint:
    """beta(p) = tau*p*pi, where the S and L cell matrices are proportional."""

    p: int
    beta_p: float


@dataclass(frozen=True)
class BackscatterPoint:
    """One scan sample: |s_mp| for S^n at beta, with the Bloch label when in band.

    ``is_max`` tags discrete local maxima; ``mu`` is then the nearest
    reciprocal-lattice index round(beta/pi) labeling the band edge Kb = mu*pi.
    """

    beta: float
    s_mp_abs: float
    kb: float
    is_max: bool = False
    mu: int | None = None


# Rows of s_matrix_grid.  s_mm equals s_pp (both are e^{-i beta h} / d);
# the output keeps both columns.
S_COLUMNS = (
    "s_pp_re", "s_pp_im", "s_pm_re", "s_pm_im",
    "s_mp_re", "s_mp_im", "s_mm_re", "s_mm_im",
    "abs_s_pp", "abs_s_mp",
)


def s_matrix_grid(word: Word, gamma: float, q: float, betas) -> np.ndarray:
    """Scattering matrix of a string over a beta grid, one row per S_COLUMNS name.

    Evaluated in _CHUNK-point chunks written into one preallocated array, so
    memory stays bounded at any grid size.  Raises ResonancePole at the
    first beta with |d| < 1e-12 and OverflowRisk when entries overflow.
    """
    betas = np.asarray(betas, dtype=float)
    if not (betas.ndim == 1 and np.all(betas > 0.0) and np.all(np.isfinite(betas))):
        raise ValueError("betas must be a 1-d grid of positive, finite values")
    if not (math.isfinite(gamma) and 0.0 < q < math.inf):
        raise ValueError(f"gamma must be finite and q positive and finite, got {gamma}, {q}")
    h = word.total_ratio(q)

    def fill(beta: np.ndarray, cells: dict) -> tuple:
        _, b, c, d = _from_real(*_word_grid(word, cells))
        abs_d = np.abs(d)
        low = np.flatnonzero(abs_d < 1e-12)
        if low.size:
            raise ResonancePole(f"|d| = {abs_d[low[0]]:.3g} below threshold")
        ph = np.exp(-1j * (beta * h))
        s_pp, s_pm, s_mp = ph / d, b * ph * ph / d, -c / d
        parts = [v for z in (s_pp, s_pm, s_mp, s_pp) for v in (z.real, z.imag)]
        return (*parts, np.hypot(*parts[0:2]), np.hypot(*parts[4:6]))

    return _scan(word, gamma, q, betas, Regime.SCATTERING, fill, rows=(len(S_COLUMNS),))


def s_matrix(word: Word, params: ChainParams) -> SMatrix:
    """Scattering matrix of a string at one energy: s_matrix_grid at one point."""
    if params.regime is not Regime.SCATTERING:
        raise ValueError("s_matrix requires the Scattering regime")
    v = s_matrix_grid(word, params.gamma, params.q, [params.beta])[:8, 0].tolist()
    return SMatrix(
        s_pp=complex(v[0], v[1]),
        s_pm=complex(v[2], v[3]),
        s_mp=complex(v[4], v[5]),
        s_mm=complex(v[6], v[7]),
        h_ratio=word.total_ratio(params.q),
    )


def bound_poles(
    word: Word,
    gamma: float,
    q: float,
    kappa_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
):
    """Poles of the analytically continued S-matrix: the roots of d(kappa) = 0.

    An alias of ``spectra.bound_states``, kept on purpose: it is the public
    name for the pole/bound-state correspondence (continuing k -> i*kappa
    turns the S-matrix poles into the decaying-boundary roots of d), and
    ``tests/test_scattering.py`` pins that the two return the same roots.
    """
    return bound_states(word, gamma, q, kappa_range, grid_steps)


def backscatter_scan(
    n: int,
    gamma: float,
    beta_range=DEFAULT_BETA_RANGE,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> list[BackscatterPoint]:
    """|s_mp| of S^n over a beta grid, local maxima tagged with mu = round(beta/pi)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    word = Word("S" * n)
    lo, hi = _check_scan_inputs(gamma, 1.0, beta_range, grid_steps)
    betas = np.linspace(lo, hi, grid_steps + 1)
    x = _word_scan(Word("S"), gamma, 1.0, betas, Regime.SCATTERING, "x")
    s_mp_abs = s_matrix_grid(word, gamma, 1.0, betas)[S_COLUMNS.index("abs_s_mp")]
    kb = np.where(np.abs(x) <= 1.0, np.arccos(np.clip(x, -1.0, 1.0)), np.nan)
    is_max = np.zeros(betas.shape, dtype=bool)
    interior = (s_mp_abs[1:-1] > s_mp_abs[:-2]) & (s_mp_abs[1:-1] >= s_mp_abs[2:])
    is_max[1:-1] = interior
    out = []
    for i, beta in enumerate(betas):
        mu = int(round(beta / math.pi)) if is_max[i] else None
        out.append(
            BackscatterPoint(float(beta), float(s_mp_abs[i]), float(kb[i]), bool(is_max[i]), mu)
        )
    return out


def band_edge_limit(n: int, delta: float) -> tuple[complex, complex]:
    """High-energy band-edge amplitudes (S_pp, S_mp) for S^n.

    S_pp = 1/(1 - i n delta/2), S_mp = i (n delta/2)/(1 - i n delta/2);
    |S_pp|^2 + |S_mp|^2 = 1 identically.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    denom = 1.0 - 0.5j * n * delta
    return 1.0 / denom, 0.5j * n * delta / denom


def _commuting_cells(p: int, gamma: float):
    """(params, M1, M2, max-entry deviation of M2 from (-1)^p M1) at beta(p) = tau*p*pi."""
    params = ChainParams(TAU * p * math.pi, gamma, TAU, Regime.SCATTERING)
    m1, m2 = cell_matrix(params, CellKind.S), cell_matrix(params, CellKind.L)
    return params, m1, m2, m2.max_abs_diff(m1.scaled(-1.0 if p % 2 else 1.0))


def commuting_points(
    p_max: int, gamma: float
) -> list[tuple[CommutingPoint, bool, bool]]:
    """(point, proportional, in_overlap) at beta(p) = tau*p*pi for p = 1..p_max.

    proportional: M2 = (-1)^p M1 within 1e-9 max-entry deviation.
    in_overlap: both half traces |x1|, |x2| <= 1 at this gamma (the point
    lies inside the overlap of the two cells' scattering bands).
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    out = []
    for p in range(1, p_max + 1):
        params, m1, m2, prop_dev = _commuting_cells(p, gamma)
        in_overlap = abs(m1.x.real) <= 1.0 and abs(m2.x.real) <= 1.0
        out.append((CommutingPoint(p, params.beta), prop_dev <= 1e-9, in_overlap))
    return out


def commuting_deviations(p: int, gamma: float) -> tuple[float, float]:
    """(commutator deviation from identity, proportionality deviation) at beta(p)."""
    _, m1, m2, prop_dev = _commuting_cells(p, gamma)
    return commutator(m1, m2).max_abs_diff(TransferMatrix.identity()), prop_dev


def fibonacci_periodic_equivalence(m: int, p: int, gamma: float) -> float:
    """Max-entry deviation of M_m from (-1)^(p f_{m-1}) M1^{f_m} at beta(p).

    Zero in exact arithmetic: at commuting energies a Fibonacci string is
    spectrally equivalent to a periodic string of f_m cells.
    """
    params, m1, _, _ = _commuting_cells(p, gamma)
    lhs = word_matrix(fibonacci_word(m), params)
    f_m = fibonacci_number(m)
    f_m1 = fibonacci_number(m - 1) if m >= 2 else 0  # f_0 = 0
    sign = -1.0 if (p * f_m1) % 2 else 1.0
    rhs = power_closed(m1, f_m).scaled(sign)
    return lhs.max_abs_diff(rhs)
