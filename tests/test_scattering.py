"""S-matrix identities, backscattering maxima, poles, and commuting energies."""

import cmath
import math

import numpy as np
import pytest

from deltachain import scattering
from deltachain.cli import main
from deltachain.core import TAU, ChainParams, Regime
from deltachain.errors import OverflowRisk, ResonancePole
from deltachain.scattering import (
    S_COLUMNS,
    backscatter_scan,
    band_edge_limit,
    bound_poles,
    commuting_deviations,
    commuting_points,
    fibonacci_periodic_equivalence,
    s_matrix,
    s_matrix_grid,
)
from deltachain.spectra import _CHUNK, bound_states
from deltachain.substitution import Word, fibonacci_word, word_matrix


def solve_oracle(word, params):
    """Independent S-matrix via numpy linear solves of the amplitude relation.

    Left incidence: M (1, r) = (t, 0); right incidence: M (0, t') = (r', 1).
    The closed forms divide by d instead; agreement checks that algebra.
    """
    M = word_matrix(word, params)
    h = word.total_ratio(params.q)
    ph = cmath.exp(-1j * params.beta * h)
    A = np.array([[M.b, -1.0], [M.d, 0.0]], dtype=complex)
    r, t = np.linalg.solve(A, [-M.a, -M.c])
    B = np.array([[M.b, -1.0], [M.d, 0.0]], dtype=complex)
    # (tp, rp) solve M (0, tp) = (rp, 1): row1 b*tp - rp = 0, row2 d*tp = 1.
    tp, rp = np.linalg.solve(B, [0.0, 1.0])
    return np.array([[t * ph, rp * ph * ph], [r, tp * ph]], dtype=complex)


def test_free_string_scatters_trivially():
    p = ChainParams(1.7, 0.0, TAU, Regime.SCATTERING)
    S = s_matrix(fibonacci_word(5), p).as_array()
    assert np.max(np.abs(S - np.eye(2))) < 1e-12


def test_s_matrix_requires_scattering_regime():
    with pytest.raises(ValueError):
        s_matrix(Word("S"), ChainParams(1.0, 2.0))


def test_unitarity_over_grid():
    word = fibonacci_word(5)
    for beta in np.linspace(0.2, 9.0, 60):
        p = ChainParams(float(beta), 2.0, TAU, Regime.SCATTERING)
        assert s_matrix(word, p).unitarity_defect() < 1e-10


def test_closed_forms_match_linear_solve_oracle():
    for word in (Word("S"), Word("SLL"), fibonacci_word(6)):
        for beta in (0.3, 1.1, 4.2, 8.8):
            for gamma in (0.7, 3.0, -2.0):
                p = ChainParams(beta, gamma, TAU, Regime.SCATTERING)
                S = s_matrix(word, p).as_array()
                assert np.max(np.abs(S - solve_oracle(word, p))) < 1e-10


def test_transmission_reflection_sum():
    p = ChainParams(2.3, 4.0, TAU, Regime.SCATTERING)
    S = s_matrix(fibonacci_word(4), p)
    assert abs(S.s_pp) ** 2 + abs(S.s_mp) ** 2 == pytest.approx(1.0, abs=1e-12)
    # Reciprocity: equal transmission amplitudes from either side.
    assert S.s_pp == pytest.approx(S.s_mm, abs=1e-14)


def test_d_entry_never_enters_unit_disk():
    # |d| = sqrt(1 + |b|^2) >= 1 in the scattering regime, so the pole
    # guard can never fire on the real energy axis.
    for word in (Word("S"), Word("SLSLL")):
        for beta in np.linspace(0.1, 12.0, 40):
            for gamma in (0.5, 5.0, -3.0):
                M = word_matrix(word, ChainParams(float(beta), gamma, TAU, Regime.SCATTERING))
                assert abs(M.d) >= 1.0 - 1e-12
                assert abs(M.d) == pytest.approx(
                    math.sqrt(1.0 + abs(M.b) ** 2), rel=1e-12
                )


def test_poles_coincide_with_bound_states():
    word = fibonacci_word(4)
    poles = bound_poles(word, 4.0, TAU)
    states = bound_states(word, 4.0, TAU)
    assert poles == states
    assert len(poles) > 0


def test_backscatter_amplitude_at_band_edges():
    # At beta = mu*pi the half trace is exactly (-1)^mu, U_{n-1} = n, and
    # |c_n| = n*delta/2.
    for n in (3, 7):
        for mu in (1, 3):
            beta = mu * math.pi
            p = ChainParams(beta, 1.0, 1.0, Regime.SCATTERING)
            M = word_matrix(Word("S" * n), p)
            assert abs(M.x.real - (-1.0) ** mu) < 1e-12
            assert abs(M.c) == pytest.approx(n * p.delta / 2.0, abs=1e-12)


def test_backscatter_maxima_sit_near_band_edges():
    pts = backscatter_scan(10, 1.0, (60.0, 100.0), 40000)
    best = {}
    for pt in pts:
        if pt.is_max and pt.mu is not None:
            if pt.mu not in best or pt.s_mp_abs > best[pt.mu].s_mp_abs:
                best[pt.mu] = pt
    # Interior labels only; the window truncates mu = 19 and 32.
    for mu in range(20, 32):
        assert mu in best
        assert abs(best[mu].beta - mu * math.pi) < 5e-2, mu
    # In-band samples carry a Bloch label, gap samples do not.
    labeled = [pt for pt in pts if not math.isnan(pt.kb)]
    assert 0 < len(labeled) < len(pts)


def test_backscatter_peaks_sharpen_with_n():
    def peak_and_halfwidth(n):
        pts = backscatter_scan(n, 1.0, (30.0, 33.0), 20000)
        amps = np.array([p.s_mp_abs for p in pts])
        betas = np.array([p.beta for p in pts])
        k = int(amps.argmax())
        half = amps[k] / 2.0
        i = k
        while i > 0 and amps[i - 1] >= half:
            i -= 1
        j = k
        while j < len(amps) - 1 and amps[j + 1] >= half:
            j += 1
        return amps[k], betas[j] - betas[i]

    amp10, width10 = peak_and_halfwidth(10)
    amp40, width40 = peak_and_halfwidth(40)
    assert amp40 > amp10
    assert width40 < width10


def test_band_edge_limit_closed_form():
    for n in (1, 10):
        for delta in (0.3, 2.0):
            spp, smp = band_edge_limit(n, delta)
            assert spp == pytest.approx(1.0 / (1.0 - 0.5j * n * delta), abs=1e-15)
            assert smp == pytest.approx(
                0.5j * n * delta / (1.0 - 0.5j * n * delta), abs=1e-15
            )
            assert abs(spp) ** 2 + abs(smp) ** 2 == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        band_edge_limit(0, 1.0)


def test_backscatter_approaches_edge_limit_at_high_energy():
    # The dominant mu = 30 maximum of S^10 at gamma = 1 reproduces the
    # closed-form edge amplitudes with delta evaluated at beta = mu*pi.
    pts = backscatter_scan(10, 1.0, (93.0, 95.5), 20000)
    best = max((p for p in pts if p.is_max and p.mu == 30), key=lambda p: p.s_mp_abs)
    delta = 1.0 / (30.0 * math.pi)
    _, smp = band_edge_limit(10, delta)
    assert best.s_mp_abs == pytest.approx(abs(smp), abs=5e-4)


def test_commuting_points_proportionality():
    for gamma in (0.5, 10.0):
        rows = commuting_points(2, gamma)
        assert [r[0].p for r in rows] == [1, 2]
        for pt, proportional, _ in rows:
            assert pt.beta_p == pytest.approx(TAU * pt.p * math.pi, abs=0.0)
            assert proportional
    # Overlap of the two scattering bands depends on gamma: weak coupling
    # keeps beta(1) inside both bands, strong coupling pushes it out.
    assert commuting_points(1, 0.5)[0][2] is True
    assert commuting_points(1, 10.0)[0][2] is False
    with pytest.raises(ValueError):
        commuting_points(0, 1.0)


def test_commuting_deviations_are_tiny():
    for p in (1, 2):
        comm_dev, prop_dev = commuting_deviations(p, 0.5)
        assert comm_dev < 1e-9
        assert prop_dev < 1e-9


def test_fibonacci_string_is_periodic_at_commuting_energies():
    assert fibonacci_periodic_equivalence(1, 1, 1.0) < 1e-12
    assert fibonacci_periodic_equivalence(3, 1, 1.0) < 1e-10
    assert fibonacci_periodic_equivalence(8, 1, 2.0) < 1e-8


def scalar_s_columns(word, gamma, q, beta):
    """The S_COLUMNS values by the scalar route: word_matrix, then the closed
    forms in Python complex arithmetic."""
    M = word_matrix(word, ChainParams(beta, gamma, q, Regime.SCATTERING))
    ph = cmath.exp(-1j * beta * word.total_ratio(q))
    s_pp, s_pm, s_mp, s_mm = ph / M.d, M.b * ph * ph / M.d, -M.c / M.d, ph / M.d
    return [
        s_pp.real, s_pp.imag, s_pm.real, s_pm.imag,
        s_mp.real, s_mp.imag, s_mm.real, s_mm.imag,
        abs(s_pp), abs(s_mp),
    ]


# t = pi/4 + k*pi/2 is where |cos t| = |sin t|, so Smith's quotient switches
# branch for 1/lam; the grid takes each flip point and both float neighbours,
# for the S tunnel (t = beta) and the L tunnel (t = q*beta).
_S_FLIPS = np.pi / 4 + np.arange(12) * np.pi / 2
_FLIPS = np.concatenate([_S_FLIPS, _S_FLIPS / TAU])
_NEAR_FLIPS = np.concatenate([np.nextafter(_FLIPS, 0.0), _FLIPS, np.nextafter(_FLIPS, 99.0)])


def test_flip_neighbours_take_opposite_smith_branches():
    def branch(t):
        return np.abs(np.cos(t)) >= np.abs(np.sin(t))

    assert (branch(np.nextafter(_S_FLIPS, 0.0)) != branch(np.nextafter(_S_FLIPS, 99.0))).all()


@pytest.mark.parametrize("gamma", [0.7, 3.0, -2.0, 4.0, 0.0, -0.0])
def test_s_matrix_grid_is_bitwise_the_scalar_route(gamma):
    # Pair arithmetic must reproduce Python complex arithmetic exactly: all
    # four entries and both abs columns, signs of zeros included.
    for word, points in ((Word("S"), 1500), (Word("SLL"), 1500), (fibonacci_word(6), 800),
                         (fibonacci_word(12), 200)):
        betas = np.concatenate([np.linspace(0.05, 12.0, points), _NEAR_FLIPS])
        got = s_matrix_grid(word, gamma, TAU, betas)
        want = np.array([scalar_s_columns(word, gamma, TAU, b) for b in betas.tolist()]).T
        assert got.shape == (len(S_COLUMNS), betas.size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (str(word), gamma)


def test_s_matrix_is_the_one_point_grid():
    word = fibonacci_word(7)
    betas = np.linspace(0.05, 6.0, 2 * _CHUNK + 777)
    grid = s_matrix_grid(word, 3.0, TAU, betas)
    for i in range(0, betas.size, 1601):
        S = s_matrix(word, ChainParams(float(betas[i]), 3.0, TAU, Regime.SCATTERING))
        one = [S.s_pp.real, S.s_pp.imag, S.s_pm.real, S.s_pm.imag,
               S.s_mp.real, S.s_mp.imag, S.s_mm.real, S.s_mm.imag]
        assert one == grid[:8, i].tolist()
        assert S.h_ratio == word.total_ratio(TAU)


def test_s_matrix_grid_is_independent_of_threads(monkeypatch):
    betas = np.linspace(0.05, 6.0, 2 * _CHUNK + 777)
    one = s_matrix_grid(fibonacci_word(6), -2.0, TAU, betas)
    monkeypatch.setenv("DELTACHAIN_THREADS", "2")
    assert np.array_equal(s_matrix_grid(fibonacci_word(6), -2.0, TAU, betas), one)


def test_s_matrix_grid_rejects_bad_grids():
    for betas in ([0.0, 1.0], [1.0, math.nan], [[1.0]]):
        with pytest.raises(ValueError, match="betas"):
            s_matrix_grid(Word("S"), 1.0, TAU, betas)
    with pytest.raises(ValueError, match="finite"):
        s_matrix_grid(Word("S"), math.inf, TAU, [1.0])


def _pole_from(beta0):
    """A _word_grid stand-in whose d entry has |d| = 5e-13 * k at the k-th
    grid point from beta0 on (k = 1, 2, ...)."""
    real = scattering._word_grid

    def word_grid(word, gamma, q, betas, regime):
        a, b, c, (dr, di) = real(word, gamma, q, betas, regime)
        k = np.cumsum(betas >= beta0)
        hit = k > 0
        dr[hit], di[hit] = 3e-13 * k[hit], 4e-13 * k[hit]
        return a, b, c, (dr, di)

    return word_grid


def test_resonance_pole_still_fires(monkeypatch, tmp_path, capsys):
    # |d| >= 1 on the real scattering axis, so the guard is reached through
    # an injected d; it reports the first beta below the threshold.
    monkeypatch.setattr(scattering, "_word_grid", _pole_from(1.0))
    with pytest.raises(ResonancePole, match=r"^\|d\| = 5e-13 below threshold$"):
        s_matrix_grid(Word("SL"), 2.0, TAU, np.linspace(0.5, 3.0, 11))
    with pytest.raises(ResonancePole, match="below threshold"):
        s_matrix(Word("SL"), ChainParams(2.0, 2.0, TAU, Regime.SCATTERING))
    assert s_matrix(Word("SL"), ChainParams(0.9, 2.0, TAU, Regime.SCATTERING)).h_ratio == 1 + TAU
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--word", "SL", "--steps", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ResonancePole: |d| = 5e-13 below threshold\n"
    assert not out.exists()


def test_s_matrix_grid_overflow_raises_token(monkeypatch):
    betas = np.linspace(0.001, 0.01, 2 * _CHUNK + 1)
    for threads in ("1", "2"):
        monkeypatch.setenv("DELTACHAIN_THREADS", threads)
        with pytest.raises(OverflowRisk, match="not finite"):
            s_matrix_grid(fibonacci_word(14), 200.0, TAU, betas)
