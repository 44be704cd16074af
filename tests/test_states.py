"""Bloch eigensystems, brackets, bound companion pairs, and sampled waves."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltachain.core import (
    TAU,
    CellKind,
    ChainParams,
    Regime,
    cell_matrix,
    tunnel_matrix,
)
from deltachain.errors import DegenerateCell, OutOfBand, OverflowRisk
from deltachain.states import (
    _cell_samples,
    bloch_eigensystem,
    bloch_wavefunction,
    bound_companion_pair,
    cell_coefficients,
    sample_wavefunction,
    scalar_product,
    scalar_product_samples,
    _local_kappa,
)
from deltachain.substitution import Word, fibonacci_word


def eigen_residual(M, eig):
    V = eig.vmatrix()
    lam = np.diag([eig.theta1, eig.theta2])
    Mn = np.array([[M.a, M.b], [M.c, M.d]], dtype=complex)
    return float(np.max(np.abs(Mn @ V - V @ lam)))


def test_bound_eigensystem_diagonalizes():
    p = ChainParams(1.2, 4.0)
    M = cell_matrix(p, CellKind.S)
    eig = bloch_eigensystem(M, p)
    assert eigen_residual(M, eig) < 1e-10
    assert abs(eig.theta1) == pytest.approx(1.0, abs=1e-12)
    assert eig.theta2 == pytest.approx(eig.theta1.conjugate(), abs=0.0)
    assert eig.conjugate_pair


def test_bound_phase_and_determinant():
    p = ChainParams(1.2, 4.0)
    eig = bloch_eigensystem(cell_matrix(p, CellKind.S), p)
    # p is purely imaginary and det V = -i in the bound phase convention.
    assert abs(eig.p.real) < 1e-15
    assert eig.det_v() == pytest.approx(-1j, abs=1e-12)


def test_bound_normalization_closed_form():
    # p conj(p) = delta*lambda1 / (4 sqrt(1 - x1^2)) for the short cell.
    p = ChainParams(1.0, 3.0)
    M = cell_matrix(p, CellKind.S)
    eig = bloch_eigensystem(M, p)
    x1 = M.x.real
    want = p.delta * math.exp(p.beta) / (4.0 * math.sqrt(1.0 - x1 * x1))
    assert (eig.p * eig.p.conjugate()).real == pytest.approx(want, rel=1e-12)


def test_eigenvalues_at_band_center():
    # x1 = 0 happens where tanh(beta) = 2 beta / gamma; theta1 = +i there.
    gamma = 4.0

    def x1(beta):
        return cell_matrix(ChainParams(beta, gamma), CellKind.S).x.real

    lo, hi = 1.0, 2.3
    assert x1(lo) * x1(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if x1(lo) * x1(mid) <= 0:
            hi = mid
        else:
            lo = mid
    beta0 = 0.5 * (lo + hi)
    p = ChainParams(beta0, gamma)
    eig = bloch_eigensystem(cell_matrix(p, CellKind.S), p)
    assert eig.theta1 == pytest.approx(1j, abs=1e-8)
    assert eig.theta2 == pytest.approx(-1j, abs=1e-8)


def test_scattering_eigensystem_uses_swapped_conjugate():
    p = ChainParams(1.0, 2.0, TAU, Regime.SCATTERING)
    M = cell_matrix(p, CellKind.S)
    assert abs(M.x.real) < 1.0
    eig = bloch_eigensystem(M, p)
    assert not eig.conjugate_pair
    assert eigen_residual(M, eig) < 1e-10


def test_eigensystem_rejects_out_of_band_and_degenerate():
    p = ChainParams(3.0, 4.0)
    with pytest.raises(OutOfBand):
        bloch_eigensystem(cell_matrix(p, CellKind.S), p)
    # gamma = 0 kills the b entry; in the scattering regime the half trace
    # cos(beta) stays in band, so the degeneracy guard is what fires.
    free = ChainParams(1.0, 0.0, regime=Regime.SCATTERING)
    with pytest.raises(DegenerateCell):
        bloch_eigensystem(cell_matrix(free, CellKind.S), free)


def test_bloch_states_reproduce_eigenvalues_at_cell_boundary():
    # Phi_branch(ratio)/Phi_branch(0) = theta_branch for both cells.
    p = ChainParams(1.2, 4.0, TAU)
    for kind in (CellKind.S, CellKind.L):
        M = cell_matrix(p, kind)
        if abs(M.x.real) >= 1.0:
            continue
        eig = bloch_eigensystem(M, p)
        for branch, theta in ((1, eig.theta1), (2, eig.theta2)):
            w = bloch_wavefunction(p, kind, branch)
            assert w.values[-1] / w.values[0] == pytest.approx(theta, abs=1e-9)
            # The grid's first derivative is post-jump and its last is
            # pre-jump, so apply the jump before comparing like with like.
            d_end = w.derivative_values[-1] - p.gamma * w.values[-1]
            assert d_end / w.derivative_values[0] == pytest.approx(theta, abs=1e-9)


def test_bloch_brackets_are_plus_minus_zero():
    p = ChainParams(1.2, 4.0, TAU)
    w1 = bloch_wavefunction(p, CellKind.S, 1)
    w2 = bloch_wavefunction(p, CellKind.S, 2)
    b11 = scalar_product_samples(w1, w1)
    b22 = scalar_product_samples(w2, w2)
    b12 = scalar_product_samples(w1, w2)
    # Constant across the cell and equal to +1, -1, 0.
    assert np.max(np.abs(b11 - 1.0)) < 1e-9
    assert np.max(np.abs(b22 + 1.0)) < 1e-9
    assert np.max(np.abs(b12)) < 1e-9


def test_scalar_product_matches_sampled_bracket():
    p = ChainParams(1.2, 4.0)
    w1 = bloch_wavefunction(p, CellKind.S, 1)
    w2 = bloch_wavefunction(p, CellKind.S, 2)
    k = 7
    one = scalar_product(
        (complex(w1.values[k]), complex(w1.derivative_values[k])),
        (complex(w2.values[k]), complex(w2.derivative_values[k])),
    )
    assert one == pytest.approx(scalar_product_samples(w1, w2)[k], abs=1e-14)


def test_bloch_wavefunction_validates_branch_and_grid():
    p = ChainParams(1.2, 4.0)
    with pytest.raises(ValueError):
        bloch_wavefunction(p, CellKind.S, 3)
    grid = np.array([0.0, 0.25, 1.0])
    w = bloch_wavefunction(p, CellKind.S, 1, x_grid=grid)
    assert w.positions.shape == (3,)


def test_companion_pair_wronskian_is_one():
    psi1, psi2 = bound_companion_pair(4.0)
    W = (
        psi1.values * psi2.derivative_values
        - psi1.derivative_values * psi2.values
    )
    assert np.max(np.abs(W - 1.0)) < 1e-9


def test_companion_pair_is_real_with_pure_bound_slope():
    gamma = 4.0
    psi1, psi2 = bound_companion_pair(gamma)
    assert np.max(np.abs(psi1.values.imag)) < 1e-12
    assert np.max(np.abs(psi2.values.imag)) < 1e-12
    # psi2 is the decaying exponential: psi2'/psi2 = -beta everywhere.
    slope = psi2.derivative_values.real / psi2.values.real
    assert np.max(np.abs(slope + gamma / 2.0)) < 1e-9


def test_companion_pair_rejects_repulsive_gamma():
    with pytest.raises(ValueError):
        bound_companion_pair(-1.0)


def test_plane_wave_on_free_string_keeps_unit_modulus():
    beta = 1.3
    p = ChainParams(beta, 0.0, TAU, Regime.SCATTERING)
    kappa = _local_kappa(p)
    w = sample_wavefunction(fibonacci_word(6), p, (1.0, -kappa))
    assert np.max(np.abs(np.abs(w.values) - 1.0)) < 1e-12


def _interface_pairs(samples):
    pos = samples.positions
    idx = np.nonzero(np.isclose(np.diff(pos), 0.0, atol=1e-12))[0]
    return [(i, i + 1) for i in idx]


def test_sampled_wave_is_continuous_with_delta_jumps():
    for regime, beta, gamma in (
        (Regime.BOUND, 0.4, 1.5),
        (Regime.SCATTERING, TAU * math.pi, 2.0),
    ):
        p = ChainParams(beta, gamma, TAU, regime)
        w = sample_wavefunction(fibonacci_word(8), p, (1.0, 0.7))
        pairs = _interface_pairs(w)
        # one duplicate per delta: f_8 = 21 cells
        assert len(pairs) == 21
        for i, j in pairs:
            v_pre, v_post = w.values[i], w.values[j]
            d_pre, d_post = w.derivative_values[i], w.derivative_values[j]
            scale = max(1.0, abs(v_pre), abs(d_pre))
            assert abs(v_post - v_pre) / scale < 1e-8
            assert abs(d_post - (d_pre - gamma * v_pre)) / scale < 1e-8


def test_bracket_is_conserved_along_string():
    p = ChainParams(TAU * math.pi, 2.0, TAU, Regime.SCATTERING)
    w = sample_wavefunction(fibonacci_word(8), p, (1.0, 0.3 - 0.2j))
    b = scalar_product_samples(w, w)
    assert np.max(np.abs(b - b[0])) < 1e-9


def test_commuting_point_tunnels_are_proportional():
    # At beta = tau*p*pi the long tunnel equals (-1)^p times the short one.
    for pp in (1, 2):
        beta = TAU * pp * math.pi
        params = ChainParams(beta, 2.0, TAU, Regime.SCATTERING)
        TL = tunnel_matrix(params, TAU)
        TS = tunnel_matrix(params, 1.0).scaled((-1.0) ** pp)
        assert TL.max_abs_diff(TS) < 1e-12


def test_commuting_point_cells_share_one_window():
    # Launching the short-cell Bloch vector at beta = tau*pi makes every
    # post-delta |psi| window identical across all 21 cells of W_8.
    beta = TAU * math.pi
    params = ChainParams(beta, 2.0, TAU, Regime.SCATTERING)
    M = cell_matrix(params, CellKind.S)
    eig = bloch_eigensystem(M, params)
    lam = cmath.exp(-1j * beta)
    cm0, cp0 = eig.p / lam, eig.v * lam
    kappa = _local_kappa(params)
    psi0 = cm0 + cp0
    dpsi0 = kappa * (-cm0 + cp0)
    coeffs = cell_coefficients(fibonacci_word(8), params, (psi0, dpsi0))
    # The first recorded pair is the eigenvector scaled by theta1.
    assert coeffs[0][0] == pytest.approx(eig.theta1 * eig.p, abs=1e-12)
    assert coeffs[0][1] == pytest.approx(eig.theta1 * eig.v, abs=1e-12)
    xi = np.linspace(0.0, 1.0, 33)
    windows = []
    for cm, cp in coeffs:
        em = np.exp(-kappa * xi)
        windows.append(np.abs(cm * em + cp / em))
    base = windows[0]
    for win in windows[1:]:
        assert np.max(np.abs(win - base)) < 1e-12


def test_sample_wavefunction_validates_grid():
    p = ChainParams(0.5, 1.0)
    with pytest.raises(ValueError):
        sample_wavefunction(Word("SL"), p, (1.0, 0.0), grid_per_cell=1)


_WORDS = st.one_of(
    st.text(alphabet="SL", min_size=1, max_size=40).map(Word),
    st.integers(1, 9).map(fibonacci_word),
)
_INITIAL = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    word=_WORDS,
    regime=st.sampled_from(Regime),
    beta=st.floats(0.1, 3.0),
    gamma=st.floats(-5.0, 5.0),
    q=st.floats(1.0, 2.0),
    initial=st.tuples(_INITIAL, _INITIAL),
    grid=st.sampled_from([2, 3, 64]),
    cells=st.sampled_from([1, 7, None]),  # None: one part of every cell
)
def test_cell_parts_are_the_whole_samples_bit_for_bit(word, regime, beta, gamma, q, initial, grid, cells):
    # The CLI's wave samples a few cells at a time; laid end to end, the
    # parts must hold the bytes sample_wavefunction computes, -0.0 included.
    params = ChainParams(beta, gamma, q, regime)
    whole = sample_wavefunction(word, params, initial, grid)
    size = cells or len(word)
    coeffs = cell_coefficients(word, params, initial)
    parts = list(_cell_samples(word, params, coeffs, size, grid))
    assert [p[0].size for p in parts[:-1]] == [size * grid] * (len(parts) - 1)
    wants = (whole.positions[1:], whole.values[1:], whole.derivative_values[1:])
    for got, want in zip(map(np.concatenate, zip(*parts)), wants):
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_coefficients_refuse_a_tunnel_factor_past_float64():
    # exp(beta*ratio) overflows past beta*ratio = 709.78, where cmath.exp
    # raises a bare OverflowError; it must reach the caller as the token.
    with pytest.raises(OverflowRisk, match=r"^wavefunction tunnel factors exp\(kappa\*ratio\) are not finite$"):
        cell_coefficients(Word("S"), ChainParams(710.0, 1.0), (1.0, -710.0))
