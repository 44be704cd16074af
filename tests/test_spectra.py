"""Band germs, bound-state roots, labels, censuses, and the DOS estimate."""

import math
import os

import numpy as np
import pytest

from deltachain.core import TAU, CellKind, ChainParams, Regime, cell_matrix
from deltachain.errors import GridTooCoarse, OutOfBand, OverflowRisk
from deltachain.spectra import (
    _CHUNK,
    _cell_entries,
    _thread_count,
    _word_grid,
    _word_scan,
    EdgeKind,
    band_germs,
    binding_equation_residual,
    bloch_label,
    bound_states,
    dos_estimate,
    energy_gauge,
    partial_band_census,
    rational_labels,
    supercell_label,
)
from deltachain.substitution import Word, fibonacci_word, word_matrix


def test_single_cell_germ_edges_refined():
    germs = band_germs(Word("S"), 4.0, 1.0)
    assert len(germs) == 1
    g = germs[0]
    # The band reaches past the scan start, so the low edge is clipped.
    assert g.beta_lo == pytest.approx(0.05, abs=0.0)
    assert g.clipped_lo and not g.clipped_hi
    assert g.edge_kind_lo is EdgeKind.X_MINUS_ONE
    assert g.edge_kind_hi is EdgeKind.X_PLUS_ONE
    assert g.beta_hi == pytest.approx(2.399357280481979, abs=1e-9)
    # The refined upper edge is an actual root of x1 = +1.
    x_hi = cell_matrix(ChainParams(g.beta_hi, 4.0), CellKind.S).x.real
    assert x_hi == pytest.approx(1.0, abs=1e-9)


def test_two_cell_germs_alternate_edge_kinds():
    germs = band_germs(Word("SL"), 4.0, TAU)
    assert len(germs) == 2
    a, b = germs
    assert (a.beta_lo, a.beta_hi) == (
        pytest.approx(1.361976929, abs=1e-8),
        pytest.approx(1.725857787, abs=1e-8),
    )
    assert a.edge_kind_lo is EdgeKind.X_PLUS_ONE
    assert a.edge_kind_hi is EdgeKind.X_MINUS_ONE
    assert (b.beta_lo, b.beta_hi) == (
        pytest.approx(2.155800079, abs=1e-8),
        pytest.approx(2.268961555, abs=1e-8),
    )
    assert b.edge_kind_lo is EdgeKind.X_MINUS_ONE
    assert b.edge_kind_hi is EdgeKind.X_PLUS_ONE
    assert not any((g.clipped_lo or g.clipped_hi) for g in germs)


def test_clipped_high_edge_keeps_nearest_kind():
    germs = band_germs(Word("S"), 4.0, 1.0, beta_range=(0.05, 2.0))
    assert len(germs) == 1
    g = germs[0]
    assert g.clipped_hi
    assert g.beta_hi == pytest.approx(2.0, abs=0.0)
    # x(2.0) = exp(-2) >= 0, so the nearer edge condition is x = +1.
    assert g.edge_kind_hi is EdgeKind.X_PLUS_ONE


def test_narrow_bands_survive_coarse_grids():
    # At gamma = 10 the W_4 bands are orders of magnitude narrower than the
    # default grid spacing; edge-crossing assembly must still find all three.
    germs = band_germs(fibonacci_word(4), 10.0, TAU)
    assert len(germs) == 3
    for g in germs:
        assert g.beta_hi > g.beta_lo


def test_single_well_root_is_half_gamma():
    for gamma in (4.0, 8.0):
        roots = bound_states(Word("S"), gamma, 1.0)
        assert len(roots) == 1
        assert roots[0].index == 0
        assert roots[0].beta_star == pytest.approx(gamma / 2.0, abs=1e-9)


def test_bound_roots_are_d_roots():
    for state in bound_states(Word("SS"), 4.0, 1.0):
        d = ChainParams(state.beta_star, 4.0, 1.0)
        from deltachain.substitution import word_matrix

        assert abs(word_matrix(Word("SS"), d).d.real) < 1e-8


def test_grid_too_coarse_raises():
    with pytest.raises(GridTooCoarse, match="grid_steps"):
        bound_states(fibonacci_word(6), 10.0, TAU, (0.05, 6.0), 2000)


def test_gauge_is_repetition_invariant():
    # |x_n| <= 1 for S^n exactly when |x_1| <= 1, so the gauge of S^n must
    # equal the gauge of S at every beta.
    betas = np.linspace(0.1, 5.9, 500)
    w1, w4 = Word("S"), Word("SSSS")
    for beta in betas:
        assert energy_gauge(w4, 4.0, 1.0, float(beta)) == energy_gauge(w1, 4.0, 1.0, float(beta))


def test_gauge_values():
    assert energy_gauge(Word("S"), 4.0, 1.0, 1.5) == 0
    assert energy_gauge(Word("S"), 4.0, 1.0, 3.0) == 1


def test_bloch_label():
    assert bloch_label(1.0) == 0.0
    assert bloch_label(-1.0) == pytest.approx(math.pi, abs=0.0)
    assert bloch_label(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.raises(OutOfBand):
        bloch_label(1.5)


def test_rational_labels():
    labels = rational_labels(4)
    assert [lab.mu for lab in labels] == [0, 1, 2, 3, 4]
    for lab in labels:
        assert lab.kb == pytest.approx(lab.mu * math.pi / 4, abs=0.0)
    assert labels[-1].partial_band is None
    assert labels[1].partial_band == (
        pytest.approx(math.pi / 4),
        pytest.approx(math.pi / 2),
    )
    with pytest.raises(ValueError):
        rational_labels(0)


def test_supercell_label_folds():
    mu, k = supercell_label(0.7 * math.pi, 5)
    assert mu == 3
    assert k == pytest.approx(0.7 * math.pi - 3 * math.pi / 5, abs=1e-12)
    assert supercell_label(0.0, 3) == (0, 0.0)
    mu, k = supercell_label(math.pi, 3)
    assert mu == 2
    assert k == pytest.approx(math.pi / 3, abs=1e-12)
    with pytest.raises(ValueError):
        supercell_label(3.5, 2)


def test_binding_equation_solves_at_bound_roots():
    # tan(n Kb) = sin(Kb)/y1 holds at every bound root of S^n.
    for n in (1, 2, 3):
        word = Word("S" * n)
        for state in bound_states(word, 4.0, 1.0):
            lhs, rhs = binding_equation_residual(n, state.beta_star, 4.0)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


def test_binding_equation_diverges_where_y1_vanishes():
    # y1(beta) changes sign inside the gamma = 4 germ; near that zero the
    # right-hand side blows up.
    def y1(beta):
        return cell_matrix(ChainParams(beta, 4.0), CellKind.S).y.real

    lo, hi = 0.1, 2.3
    assert y1(lo) * y1(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if y1(lo) * y1(mid) <= 0:
            hi = mid
        else:
            lo = mid
    _, rhs = binding_equation_residual(2, 0.5 * (lo + hi), 4.0)
    assert abs(rhs) > 1e5


def test_binding_equation_rejects_out_of_band():
    with pytest.raises(OutOfBand):
        binding_equation_residual(2, 5.5, 4.0)
    with pytest.raises(ValueError):
        binding_equation_residual(0, 1.0, 4.0)


def test_census_one_root_per_partial_band():
    for n in (2, 3):
        census = partial_band_census(n, 4.0)
        assert [c.mu for c in census] == list(range(n))
        assert all(c.count == 1 for c in census)
        assert all(c.kb_hi - c.kb_lo == pytest.approx(math.pi / n, abs=1e-15) for c in census)


def test_census_partial_bands_tile_the_germ():
    census = partial_band_census(3, 4.0)
    germ = band_germs(Word("S"), 4.0, 1.0)[0]
    edges = sorted({c.beta_lo for c in census} | {c.beta_hi for c in census})
    assert edges[0] == pytest.approx(germ.beta_lo, abs=1e-9)
    assert edges[-1] == pytest.approx(germ.beta_hi, abs=1e-9)
    # Interior boundary of n = 2 splits at x1 = cos(pi/3), etc.; adjacent
    # bands share their boundary exactly.
    spans = sorted([(c.beta_lo, c.beta_hi) for c in census])
    for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
        assert hi1 == pytest.approx(lo2, abs=1e-12)


def test_dos_normalized_with_band_edge_peaks():
    d = dos_estimate(6.0)
    integral = abs(np.trapezoid(d.density, d.energy))
    assert integral == pytest.approx(1.0, abs=1e-3)
    mid = len(d.density) // 2
    assert d.density[0] > d.density[mid]
    assert d.density[-1] > d.density[mid]
    # Kb is monotone across the band and energy is -beta^2.
    dk = np.diff(d.kb)
    assert np.all(dk > 0) or np.all(dk < 0)
    assert np.allclose(d.energy, -d.beta**2)


def test_threaded_scan_matches_serial(monkeypatch):
    serial = band_germs(Word("SL"), 4.0, TAU)
    monkeypatch.setenv("DELTACHAIN_THREADS", "3")
    threaded = band_germs(Word("SL"), 4.0, TAU)
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert a.beta_lo == pytest.approx(b.beta_lo, abs=1e-12)
        assert a.beta_hi == pytest.approx(b.beta_hi, abs=1e-12)
        assert a.edge_kind_lo is b.edge_kind_lo
        assert a.edge_kind_hi is b.edge_kind_hi


def test_grid_steps_validation():
    with pytest.raises(ValueError):
        band_germs(Word("S"), 4.0, 1.0, grid_steps=10)
    with pytest.raises(ValueError):
        bound_states(Word("S"), 4.0, 1.0, grid_steps=10)


def _complex_reference(word, gamma, q, betas):
    """x and d of the Bound-regime scan in complex arithmetic, as the scan
    computed them before it switched to real arithmetic."""
    de = (gamma / betas).astype(complex)
    cells = {}
    for ch in set(word.letters):
        lam = np.exp(betas * (1.0 if ch == "S" else q))
        cells[ch] = ((1 + de / 2) / lam, lam * de / 2, -(de / 2) / lam, lam * (1 - de / 2))
    A = np.ones(betas.shape, dtype=complex)
    B = np.zeros(betas.shape, dtype=complex)
    C = np.zeros(betas.shape, dtype=complex)
    D = np.ones(betas.shape, dtype=complex)
    for ch in word.letters:
        a2, b2, c2, d2 = cells[ch]
        A, B, C, D = A * a2 + B * c2, A * b2 + B * d2, C * a2 + D * c2, C * b2 + D * d2
    return (0.5 * (A + D)).real, D.real


@pytest.mark.parametrize("gamma", [10.0, 4.0, -2.0, 0.3])
def test_bound_scan_is_bitwise_the_complex_scan(gamma, monkeypatch):
    # Real arithmetic must reproduce every sample exactly, so brackets,
    # bisections and GridTooCoarse decisions cannot move.
    betas = np.linspace(0.05, 6.0, 2 * _CHUNK + 777)
    for word in (Word("S"), Word("L"), Word("SL"), fibonacci_word(5), fibonacci_word(6)):
        x_ref, d_ref = _complex_reference(word, gamma, TAU, betas)
        x, d = _word_scan(word, gamma, TAU, betas, Regime.BOUND, "xd")
        assert np.array_equal(x, x_ref), (str(word), gamma)
        assert np.array_equal(d, d_ref), (str(word), gamma)
        assert np.array_equal(_word_scan(word, gamma, TAU, betas, Regime.BOUND, "d")[0], d)
    monkeypatch.setenv("DELTACHAIN_THREADS", "2")
    x2, d2 = _word_scan(fibonacci_word(6), gamma, TAU, betas, Regime.BOUND, "xd")
    assert np.array_equal(x2, x) and np.array_equal(d2, d)


@pytest.mark.parametrize("steps", [2000 * 4**k for k in range(6)])
def test_base_grid_is_every_fourth_fine_sample(steps):
    # The base census is read off the x4 scan, which relies on this identity
    # at every step count of the census ladder (2,000 to 2,048,000).
    for lo, hi in ((0.05, 6.0), (0.05, 2.0), (1.3, 4.7)):
        fine = np.linspace(lo, hi, 4 * steps + 1)
        assert np.array_equal(fine[::4], np.linspace(lo, hi, steps + 1)), (lo, hi)


def test_base_scan_equals_fine_scan_subsample():
    word = fibonacci_word(6)
    base = np.linspace(0.05, 6.0, 2001)
    fine = np.linspace(0.05, 6.0, 8001)
    got = _word_scan(word, 10.0, TAU, fine, Regime.BOUND, "xd")[:, ::4]
    assert np.array_equal(got, _word_scan(word, 10.0, TAU, base, Regime.BOUND, "xd"))


def test_bound_states_checks_germ_census_after_d_census():
    # At 8,000 steps the W_6 d census agrees between the grids and only the
    # germ census fails; the W_5 d census already fails.
    with pytest.raises(GridTooCoarse, match=r"^x = \+1 crossings differ between 8000 and 32000"):
        bound_states(fibonacci_word(6), 10.0, TAU, (0.05, 6.0), 8000)
    with pytest.raises(GridTooCoarse, match=r"^d = 0 crossings differ between 8000 and 32000"):
        bound_states(fibonacci_word(5), 10.0, TAU, (0.05, 6.0), 8000)


@pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
def test_thread_count_rejects_bad_values(raw, monkeypatch):
    monkeypatch.setenv("DELTACHAIN_THREADS", raw)
    with pytest.raises(ValueError, match="DELTACHAIN_THREADS"):
        _thread_count()


def test_thread_count_is_clamped_to_cpu_count(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("DELTACHAIN_THREADS", str(cpus + 5))
    assert _thread_count() == cpus
    monkeypatch.delenv("DELTACHAIN_THREADS")
    assert _thread_count() == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scans_reject_non_finite_inputs(bad):
    for scan in (band_germs, bound_states):
        with pytest.raises(ValueError, match="finite"):
            scan(Word("S"), bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            scan(Word("SL"), 4.0, bad)
        with pytest.raises(ValueError, match="beta_range"):
            scan(Word("S"), 4.0, 1.0, (0.05, bad))


def test_single_cell_helpers_raise_out_of_band_without_a_germ():
    # A repulsive cell (gamma < 0) has no Bound-regime band germ.
    with pytest.raises(OutOfBand, match="found 0"):
        dos_estimate(-2.0)
    with pytest.raises(OutOfBand, match="found 0"):
        partial_band_census(2, -2.0)



def _parts(M):
    """Real and imaginary parts of a scalar TransferMatrix, entry by entry."""
    return [v for z in M.entries() for v in (z.real, z.imag)]


@pytest.mark.parametrize("gamma", [10.0, 4.0, -2.0, 0.3, 0.0, -0.0])
def test_scattering_scan_is_bitwise_the_scalar_route(gamma):
    # Every scattering-regime grid value equals cell_matrix / word_matrix,
    # signs of zeros included, so the grid brackets what the scalar
    # bisection refines.  The grid crosses the Smith-branch flips of 1/lam.
    betas = np.concatenate([np.linspace(0.05, 12.0, 1201), np.pi / 4 + np.arange(8) * np.pi / 2])
    points = [ChainParams(b, gamma, TAU, Regime.SCATTERING) for b in betas.tolist()]

    def bits(rows):
        return np.array(rows, dtype=float).view(np.int64)

    for kind, ratio in ((CellKind.S, 1.0), (CellKind.L, TAU)):
        want = np.array([_parts(cell_matrix(p, kind)) for p in points]).T
        got = [part for entry in _cell_entries(gamma, betas, Regime.SCATTERING, ratio) for part in entry]
        assert np.array_equal(bits(got), bits(want)), (kind, gamma)
    for word in (Word("S"), Word("L"), Word("SL"), fibonacci_word(5)):
        ref = [word_matrix(word, p) for p in points]
        want = np.array([[*_parts(M), M.x.real] for M in ref]).T
        (x,) = _word_scan(word, gamma, TAU, betas, Regime.SCATTERING, "x")
        got = [part for entry in _word_grid(word, gamma, TAU, betas, Regime.SCATTERING) for part in entry]
        assert np.array_equal(bits([*got, x]), bits(want)), (str(word), gamma)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_scan_raises_token(threads, monkeypatch):
    # delta = gamma/beta up to 600 overflows the entries of W_15 although
    # beta*length stays under EXP_LIMIT; each worker thread must see it.
    monkeypatch.setenv("DELTACHAIN_THREADS", threads)
    with pytest.raises(OverflowRisk, match="not finite"):
        band_germs(fibonacci_word(15), 30.0, TAU, (0.05, 0.3), 2 * _CHUNK)
    with pytest.raises(OverflowRisk, match="not finite"):
        bound_states(fibonacci_word(15), 30.0, TAU, (0.05, 0.3), 2 * _CHUNK)
