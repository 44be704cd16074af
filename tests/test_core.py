"""Cell matrices, closed-form powers, and the commutator invariant.

Every closed form is checked against a brute-force oracle built from plain
2x2 composition, so the algebraic identities and the matrix code cannot
share a bug.
"""

import cmath
import math

import numpy as np
import pytest

from deltachain.core import (
    TAU,
    CellKind,
    ChainParams,
    Regime,
    TransferMatrix,
    cell_matrix,
    commutator,
    commutator_invariant,
    compose,
    delta_matrix,
    power_closed,
    tunnel_matrix,
)
from deltachain.errors import OverflowRisk


def brute_power(M: TransferMatrix, n: int) -> TransferMatrix:
    """Oracle: repeated plain composition."""
    out = TransferMatrix.identity()
    for _ in range(n):
        out = compose(out, M)
    return out


def test_tau_value():
    assert TAU == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=0.0)
    assert TAU * TAU == pytest.approx(TAU + 1.0, abs=1e-15)


def test_params_validation_and_derived_quantities():
    p = ChainParams(2.0, 4.0)
    assert p.delta == pytest.approx(2.0)
    assert p.energy == pytest.approx(-4.0)
    ps = ChainParams(2.0, 4.0, regime=Regime.SCATTERING)
    assert ps.energy == pytest.approx(4.0)
    with pytest.raises(ValueError):
        ChainParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ChainParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        ChainParams(1.0, 1.0, q=0.0)


def test_cell_matrix_unimodular_both_regimes():
    for regime in (Regime.BOUND, Regime.SCATTERING):
        for beta in (0.3, 1.0, 2.7):
            for gamma in (-3.0, 0.5, 4.0):
                p = ChainParams(beta, gamma, regime=regime)
                for kind in (CellKind.S, CellKind.L):
                    M = cell_matrix(p, kind)
                    assert abs(M.det - 1.0) < 1e-12


def test_half_trace_anchor_bound():
    # beta = 2, gamma = 4: delta = 2, x1 = cosh(2) - sinh(2)
    M = cell_matrix(ChainParams(2.0, 4.0), CellKind.S)
    assert M.x.real == pytest.approx(math.cosh(2.0) - math.sinh(2.0), abs=1e-12)
    assert abs(M.x.imag) < 1e-15


def test_half_trace_anchor_scattering():
    # beta = 2, gamma = 3: delta/2 = 0.75, x1 = cos(2) - 0.75 sin(2)
    M = cell_matrix(ChainParams(2.0, 3.0, regime=Regime.SCATTERING), CellKind.S)
    assert M.x.real == pytest.approx(math.cos(2.0) - 0.75 * math.sin(2.0), abs=1e-12)
    assert abs(M.x.imag) < 1e-12


def test_scattering_cells_are_su11():
    # d = conj(a), c = conj(b): the scattering-regime structure that makes
    # |d| >= 1 and S-matrix unitarity automatic.
    for beta in (0.4, 1.3, 5.0):
        for gamma in (0.5, 2.0, 8.0):
            p = ChainParams(beta, gamma, regime=Regime.SCATTERING)
            for kind in (CellKind.S, CellKind.L):
                M = cell_matrix(p, kind)
                assert abs(M.d - M.a.conjugate()) < 1e-14
                assert abs(M.c - M.b.conjugate()) < 1e-14
                assert abs(M.a) ** 2 - abs(M.b) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_delta_two_closes_the_d_entry():
    # delta = 2 is the single-well bound condition: d vanishes identically.
    for beta in (0.5, 1.0, 3.0):
        M = cell_matrix(ChainParams(beta, 2.0 * beta), CellKind.S)
        assert M.d == 0
        lam = math.exp(beta)
        assert M.a == pytest.approx(2.0 / lam, abs=1e-15)
        assert M.b == pytest.approx(lam, abs=1e-12)
        assert M.c == pytest.approx(-1.0 / lam, abs=1e-15)


def _pair_closed_form(params: ChainParams):
    """Hand-expanded entries of cell(S) * cell(L)."""
    beta, q = params.beta, params.q
    if params.regime is Regime.BOUND:
        lam1, lam2 = math.exp(beta), math.exp(q * beta)
        de = params.delta + 0j
    else:
        lam1, lam2 = cmath.exp(-1j * beta), cmath.exp(-1j * q * beta)
        de = 1j * params.delta
    a3 = (1 + de / 2) ** 2 / (lam1 * lam2) - lam1 / lam2 * de * de / 4
    b3 = lam2 / lam1 * de / 2 * (1 + de / 2) + lam1 * lam2 * de / 2 * (1 - de / 2)
    c3 = -de / 2 * (1 + de / 2) / (lam1 * lam2) - lam1 / lam2 * de / 2 * (1 - de / 2)
    d3 = lam1 * lam2 * (1 - de / 2) ** 2 - lam2 / lam1 * de * de / 4
    return a3, b3, c3, d3


def test_two_cell_product_closed_form_both_regimes():
    # The b3 entry carries lam2 (not 1/lam2) in both terms; compose() must
    # reproduce the hand expansion entry by entry.
    for regime in (Regime.BOUND, Regime.SCATTERING):
        for beta, gamma in ((0.7, 2.0), (1.3, 4.0), (2.0, 1.0)):
            p = ChainParams(beta, gamma, TAU, regime)
            M3 = compose(cell_matrix(p, CellKind.S), cell_matrix(p, CellKind.L))
            a3, b3, c3, d3 = _pair_closed_form(p)
            assert abs(M3.a - a3) < 1e-12 * max(1.0, abs(a3))
            assert abs(M3.b - b3) < 1e-12 * max(1.0, abs(b3))
            assert abs(M3.c - c3) < 1e-12 * max(1.0, abs(c3))
            assert abs(M3.d - d3) < 1e-12 * max(1.0, abs(d3))


def test_compose_adjugate_identity():
    p = ChainParams(1.1, 3.0)
    M = cell_matrix(p, CellKind.L)
    prod = compose(M, M.adjugate())
    assert abs(prod.a - 1.0) < 1e-12
    assert abs(prod.d - 1.0) < 1e-12
    assert abs(prod.b) < 1e-12
    assert abs(prod.c) < 1e-12


def test_power_closed_matches_brute_force_grid():
    # 20x20 (beta, gamma) grid, n up to 50, both regimes; relative 1e-9.
    betas = np.linspace(0.2, 3.0, 20)
    gammas = np.linspace(0.5, 6.0, 20)
    for regime in (Regime.BOUND, Regime.SCATTERING):
        for beta in betas[::4]:
            for gamma in gammas[::4]:
                p = ChainParams(float(beta), float(gamma), 1.0, regime)
                M = cell_matrix(p, CellKind.S)
                for n in (1, 2, 3, 7, 20, 50):
                    if regime is Regime.BOUND and n * beta > 250:
                        continue
                    want = brute_power(M, n)
                    got = power_closed(M, n)
                    scale = max(1.0, want.max_abs())
                    assert got.max_abs_diff(want) / scale < 1e-9, (regime, beta, gamma, n)


def test_power_closed_band_edge_sign():
    # At x = cos(mu*pi/n) the n-th power is exactly (-1)^mu times identity.
    for n, mu in ((4, 1), (5, 2), (6, 3), (9, 4)):
        t = mu * math.pi / n
        M = TransferMatrix(
            complex(math.cos(t), 0.0), complex(math.sin(t), 0.0),
            complex(-math.sin(t), 0.0), complex(math.cos(t), 0.0),
        )
        P = power_closed(M, n)
        sign = -1.0 if mu % 2 else 1.0
        assert abs(P.a - sign) < 1e-12
        assert abs(P.d - sign) < 1e-12
        assert abs(P.b) < 1e-12
        assert abs(P.c) < 1e-12


def test_power_closed_overflow_guard():
    M = cell_matrix(ChainParams(8.0, 1.0), CellKind.S)
    assert abs(M.x) > 1.0
    with pytest.raises(OverflowRisk):
        power_closed(M, 200)


def test_tunnel_matrix_overflow_guard():
    with pytest.raises(OverflowRisk):
        tunnel_matrix(ChainParams(200.0, 1.0), 2.0)


def test_delta_matrix_determinant_and_limits():
    p = ChainParams(1.0, 0.0)
    D = delta_matrix(p)
    assert D.max_abs_diff(TransferMatrix.identity()) == 0.0
    p = ChainParams(1.0, 3.0, regime=Regime.SCATTERING)
    D = delta_matrix(p)
    assert abs(D.det - 1.0) < 1e-14


def brute_commutator_half_trace(params: ChainParams) -> complex:
    A = cell_matrix(params, CellKind.S)
    B = cell_matrix(params, CellKind.L)
    return commutator(A, B).x


def test_commutator_invariant_closed_form_bound():
    # 1 + (delta^2/2) sinh^2((q-1) beta) against the brute-force
    # A B adj(A) adj(B) half trace.
    for beta in np.linspace(0.3, 2.5, 9):
        for gamma in np.linspace(0.5, 6.0, 9):
            p = ChainParams(float(beta), float(gamma), TAU)
            want = 1.0 + 0.5 * p.delta**2 * math.sinh((TAU - 1.0) * beta) ** 2
            got = brute_commutator_half_trace(p)
            assert got.real == pytest.approx(want, rel=1e-10, abs=1e-10)
            assert commutator_invariant(p) == pytest.approx(want, rel=1e-12)
            assert got.real > 1.0  # strictly, since gamma != 0


def test_commutator_invariant_closed_form_scattering():
    for beta in np.linspace(0.3, 5.5, 9):
        for gamma in np.linspace(0.5, 6.0, 9):
            p = ChainParams(float(beta), float(gamma), TAU, Regime.SCATTERING)
            want = 1.0 + 0.5 * p.delta**2 * math.sin((TAU - 1.0) * beta) ** 2
            got = brute_commutator_half_trace(p)
            assert got.real == pytest.approx(want, rel=1e-9, abs=1e-10)
            assert abs(got.imag) < 1e-10
            assert commutator_invariant(p) == pytest.approx(want, rel=1e-12)


def test_commutator_identity_when_cells_commute():
    # gamma = 0 makes both cells diagonal, so the commutator is the identity.
    p = ChainParams(1.7, 0.0, TAU)
    K = commutator(cell_matrix(p, CellKind.S), cell_matrix(p, CellKind.L))
    assert K.max_abs_diff(TransferMatrix.identity()) < 1e-12
    assert commutator_invariant(p) == pytest.approx(1.0, abs=0.0)


def test_transfer_matrix_helpers():
    M = TransferMatrix(1 + 2j, 3.0, -1j, 0.5)
    assert M.x == pytest.approx((1 + 2j + 0.5) / 2)
    assert M.y == pytest.approx((1 + 2j - 0.5) / 2)
    assert M.trace == pytest.approx(1.5 + 2j)
    assert M.max_abs() == pytest.approx(3.0)
    a, b, c, d = M.entries()
    assert (a, b, c, d) == (M.a, M.b, M.c, M.d)
    adj = M.adjugate()
    assert (adj.a, adj.b, adj.c, adj.d) == (M.d, -M.b, -M.c, M.a)
    assert M.scaled(2.0).max_abs() == pytest.approx(6.0)


def test_params_reject_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite|positive"):
            ChainParams(bad, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            ChainParams(1.0, bad)
        with pytest.raises(ValueError, match="finite|positive"):
            ChainParams(1.0, 1.0, q=bad)
