"""Wavefunction-level objects: Bloch states, scalar products, bound pairs, sampling.

Spatial convention, fixed once and used consistently: a cell carries its
delta potential at the LEFT boundary followed by its tunnel, and a word lays
its cells out left to right in word order.  Positions are measured in units
of b, derivatives are taken with respect to xi = x/b, so the delta jump is
psi' -> psi' - gamma*psi and a tunnel solution reads
psi(xi) = cm*exp(-kappa*xi) + cp*exp(+kappa*xi) with kappa = beta (Bound)
or kappa = -i*beta (Scattering), xi measured from the cell's delta.  The
scattering sign puts the first coefficient slot on exp(+i*beta*xi), which
is what the cell matrices act on (it reproduces x1 = cos(beta) -
(delta/2) sin(beta) from the jump map; the opposite order would flip the
sign of the sine term).

With this convention the single-well bound state is the decaying
exponential (lambda1/sqrt(2 beta)) exp(-beta*xi), i.e. it grows toward the
delta; all tested quantities (brackets, Wronskians, spectra, |S| elements)
are independent of the left/right choice.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CellKind,
    ChainParams,
    Regime,
    TAU,
    TransferMatrix,
    cell_matrix,
    tunnel_matrix,
)
from .errors import BoundOutsideGerm, DegenerateCell, OutOfBand, OverflowRisk
from .substitution import Word, guard_exponent


@dataclass(frozen=True)
class BlochEigensystem:
    """Eigenvalues on the unit circle and the normalized eigenvector column.

    For a real (Bound) cell V = [[p, conj(p)], [v, conj(v)]] with
    det(V) = p*conj(v) - v*conj(p) = -i and the phase fixed so
    conj(p) = -p (p purely imaginary).  A complex (Scattering) cell is not
    real, so its theta2 eigenvector is the swapped conjugate (conj(v),
    conj(p)) instead; conjugate_pair records which rule applies.
    """

    theta1: complex
    theta2: complex
    p: complex
    v: complex
    conjugate_pair: bool = True

    def vmatrix(self) -> np.ndarray:
        if self.conjugate_pair:
            col2 = (self.p.conjugate(), self.v.conjugate())
        else:
            col2 = (self.v.conjugate(), self.p.conjugate())
        return np.array([[self.p, col2[0]], [self.v, col2[1]]], dtype=complex)

    def det_v(self) -> complex:
        m = self.vmatrix()
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@dataclass(frozen=True)
class WaveSamples:
    """psi and psi' on a position grid (units of b).

    Positions are duplicated at each delta: the sample ending a tunnel carries
    the pre-jump derivative, the sample starting the next cell the post-jump
    one.  psi itself is continuous everywhere.
    """

    positions: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray


def _local_kappa(params: ChainParams) -> complex:
    # Scattering: -i*beta so that the first coefficient slot rides
    # exp(+i*beta*xi), matching the cell-matrix convention (see module doc).
    return params.beta if params.regime is Regime.BOUND else -1j * params.beta


def bloch_eigensystem(M: TransferMatrix, params: ChainParams) -> BlochEigensystem:
    """Diagonalize a cell matrix inside its band: M V = V diag(theta1, theta2).

    theta1 = x + i sqrt(1 - x^2); the eigenvector ratio is
    v/p = (theta1 - a)/b, and the normalization fixes
    p*conj(p) = delta*lambda1 / (4 sqrt(1 - x1^2)) for the Bound cell.
    """
    x = M.x.real
    if abs(x) >= 1.0:
        raise OutOfBand(f"|x| = {abs(x):.6g} >= 1; no Bloch eigensystem")
    if abs(M.b) == 0.0:
        raise DegenerateCell("b entry vanishes (zero-strength potential)")
    theta1 = complex(x, math.sqrt(1.0 - x * x))
    ratio = (theta1 - M.a) / M.b
    if ratio.imag > 0.0:
        # Bound cells in band always land here; this phase makes the
        # indefinite brackets come out +1/-1/0 and det V = -i.
        s = 1.0 / math.sqrt(2.0 * ratio.imag)
        p = 1j * s
    else:
        # Scattering cells (complex a, b) can put the bracket-normalizing
        # branch on theta2; keep the eigensystem usable with a plain
        # unit-vector normalization and the same phase convention.
        p = 1j / math.sqrt(1.0 + abs(ratio) ** 2)
    v = p * ratio
    return BlochEigensystem(
        theta1, theta1.conjugate(), p, v, conjugate_pair=params.regime is Regime.BOUND
    )


def _tunnel_samples(cm, cp, kappa, em, ep, scale=1.0):
    """psi and psi' of cm*em + cp*ep, with em, ep = exp(-+kappa*xi), times scale."""
    values = scale * (cm * em + cp * ep)
    derivs = scale * kappa * (-cm * em + cp * ep)
    return values, derivs


def bloch_wavefunction(
    params: ChainParams, kind: CellKind, branch: int, x_grid=None
) -> WaveSamples:
    """Bloch state Phi_branch sampled on one cell, delta at xi = 0.

    The tunnel coefficients are theta1*(p, v) (branch 1) or their conjugates
    (branch 2), scaled by 1/sqrt(2 beta); the cell-boundary values satisfy
    Phi(ratio)/Phi(0) = theta_branch and the indefinite brackets are
    <Phi_1, Phi_1> = +1, <Phi_2, Phi_2> = -1, <Phi_1, Phi_2> = 0.
    """
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    ratio = kind.ratio(params.q)
    eig = bloch_eigensystem(cell_matrix(params, kind), params)
    if x_grid is None:
        x_grid = np.linspace(0.0, ratio, 65)
    xi = np.asarray(x_grid, dtype=float)
    cm = eig.theta1 * eig.p
    cp = eig.theta1 * eig.v
    if branch == 2:
        cm, cp = cm.conjugate(), cp.conjugate()
    kappa = _local_kappa(params)
    scale = 1.0 / math.sqrt(2.0 * params.beta)
    values, derivs = _tunnel_samples(cm, cp, kappa, np.exp(-kappa * xi), np.exp(kappa * xi), scale)
    return WaveSamples(positions=xi, values=values, derivative_values=derivs)


def scalar_product(f: tuple[complex, complex], g: tuple[complex, complex]) -> complex:
    """Indefinite hermitian bracket -i (conj(f) g' - conj(f') g) at one point.

    Takes (value, derivative) pairs; constant across position for two
    solutions at the same energy.
    """
    fv, fd = f
    gv, gd = g
    return -1j * (fv.conjugate() * gd - fd.conjugate() * gv)


def scalar_product_samples(f: WaveSamples, g: WaveSamples) -> np.ndarray:
    """The bracket evaluated at every common grid point."""
    return -1j * (
        np.conjugate(f.values) * g.derivative_values
        - np.conjugate(f.derivative_values) * g.values
    )


def bound_companion_pair(
    gamma: float,
    kind: CellKind = CellKind.S,
    q: float = TAU,
    grid_per_cell: int = 64,
) -> tuple[WaveSamples, WaveSamples]:
    """(psi1, psi2) at the single-well bound energy delta = 2 (beta = gamma/2).

    psi2 = -1/2 sqrt(2 lambda / sqrt(1 - lambda^-2)) (Phi1 + Phi2) is the
    real bound combination of the two Bloch states (a pure exponential
    growing toward the delta); psi1 = i (conj(v) Phi1 - v Phi2) is the real
    unbound companion.  Their Wronskian psi1 psi2' - psi1' psi2 is exactly 1.
    """
    if gamma <= 0.0:
        raise ValueError(f"bound pair needs an attractive well, got gamma = {gamma}")
    beta = gamma / 2.0
    params = ChainParams(beta, gamma, q, Regime.BOUND)
    M = cell_matrix(params, kind)
    if abs(M.x.real) > 1.0:
        raise BoundOutsideGerm(
            f"|x1(gamma/2)| = {abs(M.x.real):.6g} > 1; bound energy outside the germ"
        )
    eig = bloch_eigensystem(M, params)
    ratio = kind.ratio(params.q)
    lam = tunnel_matrix(params, ratio).d
    xi = np.linspace(0.0, ratio, grid_per_cell + 1)
    scale = 1.0 / math.sqrt(2.0 * beta)
    kappa = _local_kappa(params)

    cm1, cp1 = eig.theta1 * eig.p, eig.theta1 * eig.v  # Phi1 tunnel coefficients
    c2 = -0.5 * math.sqrt(2.0 * lam / math.sqrt(1.0 - lam ** -2))
    # psi2 = c2*(Phi1 + Phi2); psi1 = i*(conj(v)*Phi1 - v*Phi2)
    cm_psi2 = c2 * 2.0 * cm1.real
    cp_psi2 = c2 * 2.0 * cp1.real
    cm_psi1 = 1j * (eig.v.conjugate() * cm1 - eig.v * cm1.conjugate())
    cp_psi1 = 1j * (eig.v.conjugate() * cp1 - eig.v * cp1.conjugate())

    waves = np.exp(-kappa * xi), np.exp(kappa * xi)
    v2, d2 = _tunnel_samples(cm_psi2, cp_psi2, kappa, *waves, scale)
    v1, d1 = _tunnel_samples(cm_psi1, cp_psi1, kappa, *waves, scale)
    psi1 = WaveSamples(positions=xi, values=v1, derivative_values=d1)
    psi2 = WaveSamples(positions=xi, values=v2, derivative_values=d2)
    return psi1, psi2


def _ratios(word: Word, q: float) -> dict:
    """The tunnel ratio of each distinct letter of the word."""
    return {ch: CellKind(ch).ratio(q) for ch in set(word.letters)}


def cell_coefficients(
    word: Word, params: ChainParams, initial: tuple[complex, complex]
) -> list[tuple[complex, complex]]:
    """Post-delta tunnel coefficients (cm, cp) for every cell of the string.

    ``initial`` is (psi, psi') at the left end, just before the first delta.
    Each cell's pair refers to the local basis exp(-+kappa*xi) with xi
    measured from that cell's delta.  A pair that is not finite raises
    OverflowRisk.
    """
    guard_exponent(word, params.beta, params.q, params.regime)
    kappa = _local_kappa(params)
    ratio = _ratios(word, params.q)  # one exp(-+kappa*ratio) pair per letter
    tunnels = {ch: (cmath.exp(-kappa * r), cmath.exp(kappa * r)) for ch, r in ratio.items()}
    psi, dpsi = complex(initial[0]), complex(initial[1])
    out = []
    for i, ch in enumerate(word.letters):
        dpsi = dpsi - params.gamma * psi  # delta jump at the cell's left edge
        cm = (psi - dpsi / kappa) / 2.0
        cp = (psi + dpsi / kappa) / 2.0
        if not (cmath.isfinite(cm) and cmath.isfinite(cp)):
            raise OverflowRisk(f"wavefunction coefficients are not finite at cell {i}")
        out.append((cm, cp))
        em, ep = tunnels[ch]
        psi = cm * em + cp * ep
        dpsi = kappa * (-cm * em + cp * ep)
    return out


def _cell_samples(word: Word, params: ChainParams, coeffs, cells: int, grid_per_cell: int = 64):
    """(positions, values, derivatives) of consecutive runs of ``cells`` whole cells.

    coeffs are the word's cell_coefficients.  Each cell contributes
    grid_per_cell samples from its delta (post jump) to its tunnel end; a
    part holds cells * grid_per_cell of them (the last part fewer), and the
    parts laid end to end are the samples of sample_wavefunction after its
    first.  A sample's bytes do not depend on the part it falls in.
    """
    coeffs = np.array(coeffs, dtype=complex)
    kappa = _local_kappa(params)
    ratio = _ratios(word, params.q)
    # each cell starts where the running left-to-right sum of ratios ends
    offsets = np.array(list(itertools.accumulate(map(ratio.get, word.letters[:-1]), initial=0.0)))
    # one row of xi and of exp(-+kappa*xi) per letter, gathered by each cell's letter code
    names = sorted(ratio)
    codes = np.searchsorted(names, np.array(list(word.letters)))
    xi = np.array([np.linspace(0.0, ratio[ch], grid_per_cell) for ch in names])
    em, ep = np.exp(-kappa * xi), np.exp(kappa * xi)
    for start in range(0, codes.size, cells):
        part = slice(start, start + cells)
        rows = codes[part]
        values, derivs = _tunnel_samples(coeffs[part, 0, None], coeffs[part, 1, None], kappa, em[rows], ep[rows])
        yield (offsets[part, None] + xi[rows]).ravel(), values.ravel(), derivs.ravel()


def sample_wavefunction(
    word: Word,
    params: ChainParams,
    initial: tuple[complex, complex],
    grid_per_cell: int = 64,
) -> WaveSamples:
    """psi across the whole string from piecewise-exact exponentials.

    The first sample carries the initial data just before the first delta;
    every cell then contributes grid_per_cell samples from its delta (post
    jump) to its tunnel end, duplicating interface positions so both
    one-sided derivatives are available.  The cells are sampled as one
    part of _cell_samples, which the CLI's ``wave`` runs a few cells at a
    time so that it never holds the whole table.
    """
    if grid_per_cell < 2:
        raise ValueError(f"grid_per_cell must be >= 2, got {grid_per_cell}")
    coeffs = cell_coefficients(word, params, initial)
    positions, values, derivs = next(_cell_samples(word, params, coeffs, len(word.letters), grid_per_cell))
    return WaveSamples(
        positions=np.concatenate(([0.0], positions)),
        values=np.concatenate(([complex(initial[0])], values)),
        derivative_values=np.concatenate(([complex(initial[1])], derivs)),
    )
