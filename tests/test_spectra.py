"""Band germs, bound-state roots, labels, censuses, and the DOS estimate."""

import ast
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltachain import kernel, spectra
from deltachain.cli import main
from deltachain.core import (EXP_LIMIT, TAU, CellKind, ChainParams, Regime, TransferMatrix, _fold, _from_real, _mul,
                             _real_cell, cell_matrix, compose)
from deltachain.errors import GridTooCoarse, OutOfBand, OverflowRisk
from deltachain.kernel import _CHUNK, _cell_entries, _cell_table, _cells, _word_grid, _word_scan, _x_crossings
from deltachain.spectra import (
    BAND_TOL,
    ROOT_TOL,
    _bisect,
    _edge_count,
    _germ_rows,
    _node_count,
    BandGerm,
    BoundState,
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
from deltachain.substitution import Word, fibonacci_number, fibonacci_word, word_matrix


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


def test_a_root_on_the_window_is_counted_at_its_upper_end_only():
    # d(6.0) of the single well at gamma = 12 is exactly 0.  The count puts
    # a root in (lo, hi], so a window ending at 6.0 returns it as 6.0, and
    # one starting there holds none.
    assert _word_scan(Word("S"), 12.0, 1.0, np.array([6.0]), Regime.BOUND, "d")[0] == 0.0
    for beta_range in ((0.05, 6.0), (5.0, 6.0)):
        assert bound_states(Word("S"), 12.0, 1.0, beta_range) == [BoundState(6.0, 0)]
    assert bound_states(Word("S"), 12.0, 1.0, (6.0, 7.0)) == []


def test_bound_roots_are_d_roots():
    for state in bound_states(Word("SS"), 4.0, 1.0):
        d = ChainParams(state.beta_star, 4.0, 1.0)
        from deltachain.substitution import word_matrix

        assert abs(word_matrix(Word("SS"), d).d.real) < 1e-8


# The converged root census of the grid search that the node count
# replaced: W_5 at 128,000 grid steps and W_6 at 2,048,000, at gamma = 10,
# q = tau, beta in (0.05, 6].  Below those steps the grid search returned 1
# of W_5's roots at 2,000 steps and raised GridTooCoarse at 8,000; for W_6
# it raised at 2,000 and 8,000.
_CONVERGED_ROOTS = {
    5: [4.965037542581932, 4.965113963029905, 4.999998128415273, 5.032608662078157,
        5.032672601766512],
    6: [4.964237163851124, 4.965075653194262, 4.965892622947321, 4.9999953966531905,
        5.000001790152119, 5.031935242743886, 5.032640713624284, 5.033360061185348],
}


def _assert_converged_census(m, steps):
    roots = [s.beta_star for s in bound_states(fibonacci_word(m), 10.0, TAU, (0.05, 6.0), steps)]
    assert len(roots) == len(_CONVERGED_ROOTS[m]), (m, steps, roots)
    for got, want in zip(roots, _CONVERGED_ROOTS[m]):
        assert abs(got - want) <= 1e-10, (m, steps, got, want)


# Band germs of the grid census that the edge count replaced, where it had
# converged: W_5 at 32,000 grid steps and W_6 at 128,000, at gamma = 10,
# q = tau, beta in (0.05, 6].  For W_6 it raised GridTooCoarse at 2,000 and
# 8,000 steps.
_CONVERGED_GERMS = {
    5: [
        (4.964201422565804, 4.964274584156648, "XMinusOne", "XPlusOne"),
        (4.965851810274646, 4.965931591540947, "XPlusOne", "XMinusOne"),
        (4.999991806200519, 5.000004442827775, "XMinusOne", "XPlusOne"),
        (5.031902488857135, 5.031969491459803, "XPlusOne", "XMinusOne"),
        (5.033328883158044, 5.0333898696955295, "XMinusOne", "XPlusOne"),
    ],
    6: [
        (4.964234587705507, 4.9642379513610155, "XPlusOne", "XMinusOne"),
        (4.965033853005245, 4.965040857650713, "XMinusOne", "XPlusOne"),
        (4.9658916358742875, 4.965895302753523, "XPlusOne", "XMinusOne"),
        (4.999925515996292, 4.999931835994497, "XMinusOne", "XPlusOne"),
        (5.000064400798454, 5.000070717693495, "XPlusOne", "XMinusOne"),
        (5.031933050262555, 5.031936046414451, "XMinusOne", "XPlusOne"),
        (5.032669481842591, 5.032675179700181, "XPlusOne", "XMinusOne"),
        (5.033359421156719, 5.033362145737186, "XMinusOne", "XPlusOne"),
    ],
}


def _assert_converged_germs(m, steps):
    germs = band_germs(fibonacci_word(m), 10.0, TAU, (0.05, 6.0), steps)
    assert len(germs) == len(_CONVERGED_GERMS[m]), (m, steps, germs)
    for g, (lo, hi, kind_lo, kind_hi) in zip(germs, _CONVERGED_GERMS[m]):
        assert abs(g.beta_lo - lo) <= 1e-10 and abs(g.beta_hi - hi) <= 1e-10, (m, steps, g)
        assert (g.edge_kind_lo.value, g.edge_kind_hi.value) == (kind_lo, kind_hi), (m, steps, g)


def test_grid_too_coarse_raises():
    # Germs and roots are both counted exactly, so neither needs a finer
    # grid: W_5 and W_6 return their converged census at 2,000 steps.
    for m in (5, 6):
        _assert_converged_germs(m, 2000)
        _assert_converged_census(m, 2000)


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


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_bloch_label_refuses_a_non_finite_x(x):
    # NaN compares false against the range, and the clamp used to label it pi.
    with pytest.raises(OutOfBand):
        bloch_label(x)


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


@pytest.mark.parametrize("kb", [math.nan, math.inf, -math.inf])
def test_supercell_label_refuses_a_non_finite_kb(kb):
    # NaN compares false against the range, and the clamps used to fold it to (0, 0.0).
    with pytest.raises(ValueError, match="Kb must lie in"):
        supercell_label(kb, 3)


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


def test_grid_steps_validation():
    with pytest.raises(ValueError):
        band_germs(Word("S"), 4.0, 1.0, grid_steps=10)
    with pytest.raises(ValueError):
        bound_states(Word("S"), 4.0, 1.0, grid_steps=10)


def _complex_reference(word, gamma, q, betas):
    """x and d of the Bound-regime scan in complex arithmetic, as the scan
    computed them before it switched to real arithmetic, in the scan's
    block order (_fold)."""
    de = (gamma / betas).astype(complex)
    cells = {}
    for ch in set(word.letters):
        lam = np.exp(betas * (1.0 if ch == "S" else q))
        cells[ch] = ((1 + de / 2) / lam, lam * de / 2, -(de / 2) / lam, lam * (1 - de / 2))
    A, _, _, D = _fold(word.letters, cells, _mul)
    return (0.5 * (A + D)).real, D.real


@pytest.mark.parametrize("gamma", [10.0, 4.0, -2.0, 0.3])
def test_bound_scan_is_bitwise_the_complex_scan(gamma):
    # Real arithmetic must reproduce every sample exactly, so brackets,
    # bisections and GridTooCoarse decisions cannot move.
    betas = np.linspace(0.05, 6.0, 2 * _CHUNK + 777)
    for word in (Word("S"), Word("L"), Word("SL"), fibonacci_word(5), fibonacci_word(6), fibonacci_word(9)):
        x_ref, d_ref = _complex_reference(word, gamma, TAU, betas)
        x = _word_scan(word, gamma, TAU, betas, Regime.BOUND, "x")
        d = _word_scan(word, gamma, TAU, betas, Regime.BOUND, "d")
        assert np.array_equal(x, x_ref), (str(word), gamma)
        assert np.array_equal(d, d_ref), (str(word), gamma)


@pytest.mark.parametrize("steps", [2000 * 4**k for k in range(6)])
def test_base_grid_is_every_fourth_fine_sample(steps):
    # A scan of n steps samples the x4 grid, which holds the n-step grid
    # sample for sample, so raising grid_steps x4 only splits brackets
    # (2,000 to 2,048,000 steps).
    for lo, hi in ((0.05, 6.0), (0.05, 2.0), (1.3, 4.7)):
        fine = np.linspace(lo, hi, 4 * steps + 1)
        assert np.array_equal(fine[::4], np.linspace(lo, hi, steps + 1)), (lo, hi)


def test_base_scan_equals_fine_scan_subsample():
    word = fibonacci_word(6)
    base = np.linspace(0.05, 6.0, 2001)
    fine = np.linspace(0.05, 6.0, 8001)
    for which in ("x", "d"):
        got = _word_scan(word, 10.0, TAU, fine, Regime.BOUND, which)[::4]
        assert np.array_equal(got, _word_scan(word, 10.0, TAU, base, Regime.BOUND, which))


def test_bound_states_checks_germ_census_after_d_census():
    # At 8,000 steps, where the x4 census of W_6 still differed, band_germs
    # and bound_states return the converged census of W_5 and W_6.
    for m in (5, 6):
        _assert_converged_germs(m, 8000)
        _assert_converged_census(m, 8000)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scans_reject_non_finite_inputs(bad):
    for scan in (band_germs, bound_states):
        with pytest.raises(ValueError, match="finite"):
            scan(Word("S"), bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            scan(Word("SL"), 4.0, bad)
        with pytest.raises(ValueError, match="beta_range"):
            scan(Word("S"), 4.0, 1.0, (0.05, bad))


@pytest.mark.parametrize("q", [0.0, -1.0])
def test_scans_reject_a_non_positive_q(q):
    # ChainParams refuses such a q; the scans used to return 0 germs, 2 roots
    # of a zero-length L tunnel, or (q < 0) a misleading GridTooCoarse.
    for scan in (band_germs, bound_states):
        with pytest.raises(ValueError, match=r"q in \(0, inf\)"):
            scan(Word("SL"), 4.0, q)


def test_single_cell_helpers_raise_out_of_band_without_a_germ():
    # A repulsive cell (gamma < 0) has no Bound-regime band germ.
    with pytest.raises(OutOfBand, match="found 0"):
        dos_estimate(-2.0)
    with pytest.raises(OutOfBand, match="found 0"):
        partial_band_census(2, -2.0)



@pytest.mark.parametrize("gamma", [10.0, 4.0, -2.0, 0.3, 0.0, -0.0, 5e-324, -5e-324])
def test_scattering_scan_is_bitwise_the_scalar_route(gamma):
    # Every grid value equals the scalar route's, signs of zeros included, so
    # the grid brackets what the scalar bisection refines.  Bound regime:
    # cell_matrix and word_matrix.  Scattering regime: the real cells and the
    # real product that word_matrix takes before its basis change.  The grid
    # spans three chunks.
    flips = np.pi / 4 + np.arange(8) * np.pi / 2
    betas = np.concatenate([np.linspace(0.05, 12.0, 2 * _CHUNK + 1), flips])

    def bits(*entries):  # float64 arrays, or object arrays of Python floats
        return np.array([np.array(v, dtype=complex).real for v in entries]).view(np.int64)

    for regime in Regime:
        bound = regime is Regime.BOUND
        points = [ChainParams(b, gamma, TAU, regime) for b in betas.tolist()]
        cells, tables = {}, {}
        for kind in CellKind:
            ratio = kind.ratio(TAU)
            if bound:
                entries = [cell_matrix(p, kind).entries() for p in points]
            else:  # word_matrix's scalar real cells, cos and sin as it takes them
                entries = [_real_cell(p.delta, float(np.cos(p.beta * ratio)), float(np.sin(p.beta * ratio)))
                           for p in points]
            cells[kind.value] = tuple(np.array(entries, dtype=object).T)
            tables[kind.value] = _cell_table(betas, regime, ratio)
            got = bits(*_cell_entries(gamma, betas, regime, tables[kind.value]))
            assert np.array_equal(got, bits(*cells[kind.value])), (regime, kind, gamma)
        for word in (Word("S"), Word("L"), Word("SL"), fibonacci_word(5), fibonacci_word(6), fibonacci_word(9)):
            # W_9 repeats 4-letter blocks; word_matrix refuses its Bound betas past EXP_LIMIT / length.
            keep = np.flatnonzero((betas * word.total_ratio(TAU) <= EXP_LIMIT) | (not bound))
            part = {ch: tuple(v[keep] for v in cell) for ch, cell in cells.items()}
            if bound:  # word_matrix's product on object arrays: CPython's arithmetic per element
                M = _fold(word.letters, {ch: TransferMatrix(*cell) for ch, cell in part.items()}, compose)
                want = M.entries()
            else:  # the kernel's product order on object arrays of Python floats
                want = _word_grid(word, part)
                M = TransferMatrix(*(np.array(z.tolist(), dtype=object) for z in _from_real(*want)))
            for k in range(0, keep.size, 1024):  # it is word_matrix's, repr for repr
                scalar = word_matrix(word, points[keep[k]]).entries()
                assert list(map(repr, scalar)) == [repr(v[k]) for v in M.entries()], (regime, str(word))
            kept = {ch: tuple(v[keep] for v in table) for ch, table in tables.items()}
            got = bits(*_word_grid(word, _cells(gamma, betas[keep], regime, kept)))
            assert np.array_equal(got, bits(*want)), (regime, str(word), gamma)
            x = _word_scan(word, gamma, TAU, betas[keep], regime, "x")
            assert np.array_equal(bits(x), bits(M.x)), (regime, str(word), gamma)
            if bound:
                d = _word_scan(word, gamma, TAU, betas[keep], regime, "d")
                assert np.array_equal(bits(d), bits(M.d)), (str(word), gamma)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("letters", ["S", "L", "SLS"])
def test_tabled_scan_is_the_per_gamma_scan(letters, regime):
    # The batched crossing scan, screened for one cell, finds each gamma's
    # crossings of x = +-1 where a per-gamma scan does.  The grid spans three
    # chunks, and the first gamma's first germ edge falls between samples
    # _CHUNK - 1 and _CHUNK, on the seam point that one-cell chunks share.
    word, gammas = Word(letters), [4.0, 0.0, -2.5, 11.0, -0.0, -6.0]
    edge = band_germs(word, gammas[0], TAU, (0.05, 6.0), 2000, regime)[0].beta_hi
    betas = 0.05 + (edge - 0.05) / (_CHUNK - 0.5) * np.arange(2 * _CHUNK + 777)
    row, index = _x_crossings(word, gammas, TAU, betas, regime)
    assert _CHUNK - 1 in index[row == 0].tolist()
    for k, gamma in enumerate(gammas):
        x = _word_scan(word, gamma, TAU, betas, regime, "x")
        sides = [np.sign(x - t) for t in (1.0, -1.0)]
        want = sorted(i for s in sides for i in np.flatnonzero(s[1:] * s[:-1] < 0.0).tolist())
        assert sorted(index[row == k].tolist()) == want, gamma


def _per_gamma_crossings(word, gammas, q, betas, regime):
    """Per gamma, a per-gamma scan's sorted crossings of x = +-1."""
    rows = []
    for gamma in gammas:
        x = _word_scan(word, gamma, q, betas, regime, "x")
        sides = [np.sign(x - t) for t in (1.0, -1.0)]
        cross = sorted(i for s in sides for i in np.flatnonzero(s[1:] * s[:-1] < 0.0).tolist())
        rows.append(cross)
    return rows


def _tabled_crossings(word, gammas, q, betas, regime):
    row, index = _x_crossings(word, gammas, q, betas, regime)
    return [sorted(index[row == k].tolist()) for k in range(len(gammas))]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    letter=st.sampled_from(["S", "L"]),
    regime=st.sampled_from(Regime),
    q=st.one_of(st.just(1.0), st.floats(0.3, 2.5)),
    lo=st.one_of(st.just(1e-300), st.just(1e-17), st.floats(0.01, 3.0)),
    span=st.floats(0.5, 20.0),
    size=st.integers(401, 2 * _CHUNK + 500),
    gammas=st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(-12.0, 12.0), st.floats(-1e6, 1e6)), min_size=1, max_size=6
    ),
)
def test_screened_cell_scan_is_the_per_gamma_scan(letter, regime, q, lo, span, size, gammas):
    # x of one cell is evaluated only where the screen lets it cross +-1;
    # the crossings must be the per-gamma scan's, for unsorted and repeated
    # gammas, over windows from beta = 1e-300 up.
    word, gammas, betas = Word(letter), gammas + gammas[:2], np.linspace(lo, lo + span, size)
    assert _tabled_crossings(word, gammas, q, betas, regime) == _per_gamma_crossings(word, gammas, q, betas, regime)


@pytest.mark.parametrize(
    "letter, q, regime, lo, hi",
    [
        ("S", 1.0, Regime.SCATTERING, 3.0, 3.3),  # beta*ratio = pi: the slope S changes sign
        ("S", 1.0, Regime.SCATTERING, 6.2, 6.4),  # 2 pi
        ("L", TAU, Regime.SCATTERING, 2 * math.pi / TAU - 0.05, 2 * math.pi / TAU + 0.05),
        ("S", 1.0, Regime.BOUND, 1e-17, 1.5),  # lam == inv == 1.0 at the first beta: S = 0
        ("L", 0.3, Regime.BOUND, 1e-300, 0.7),
    ],
)
def test_screened_cell_scan_where_the_slope_changes_sign_or_vanishes(letter, q, regime, lo, hi):
    # Where the two slopes of a pair differ in sign or one is 0, every
    # gamma is a candidate: near beta*ratio = k*pi x crosses +-1 there at
    # every large |gamma|, and S = 0 must not be divided by.
    word, betas = Word(letter), np.linspace(lo, hi, 4001)
    gammas = [1e6, -50.0, 0.0, -0.0, 7.0, -3.5, 7.0, 1e3, -1e6]
    table = _cell_table(betas, regime, CellKind(letter).ratio(q))
    slope = np.sign(table[1] - table[0] if regime is Regime.BOUND else -table[1])
    flips = np.flatnonzero(slope[1:] * slope[:-1] <= 0.0)
    assert flips.size
    want = _per_gamma_crossings(word, gammas, q, betas, regime)
    assert _tabled_crossings(word, gammas, q, betas, regime) == want
    if regime is Regime.SCATTERING:  # the flip pair crosses at the largest |gamma|
        assert set(flips.tolist()) & set(want[0]) and set(flips.tolist()) & set(want[-1])


def test_germ_rows_memory_stays_bounded_by_the_chunk():
    # 25 gammas on 40,001 points (5 chunks): the per-gamma scan peaked at
    # about 2.8 MB of traced memory, and the chunked scan does too.  A table
    # of the whole grid would add about 2.6 MB, and a gammas x grid array 8 MB.
    # One cell at 401 gammas takes the screened scan, whose per-chunk arrays
    # and candidate lists must stay within the same bound.
    for word, count in ((Word("SL"), 25), (Word("S"), 401)):
        tracemalloc.start()
        try:
            _germ_rows(word, np.linspace(-6, 6, count), TAU, (0.05, 6.0), 10000, Regime.SCATTERING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6, word


@pytest.mark.parametrize("chunks", [1, 2])
def test_overflowing_scan_raises_token(chunks):
    # delta = gamma/beta up to 600 overflows the entries of W_15 although
    # beta*length stays under EXP_LIMIT, whether the grid is one chunk or
    # several.  The node count renormalizes its carry after every cell, so
    # it stays finite there: all 610 roots of W_15 lie near gamma/2, above
    # the range, and bound_states finds none.
    with pytest.raises(OverflowRisk, match="not finite"):
        band_germs(fibonacci_word(15), 30.0, TAU, (0.05, 0.3), chunks * _CHUNK)
    assert _node_count(fibonacci_word(15), 30.0, TAU, np.array([0.05, 0.3])).tolist() == [610, 610]
    assert bound_states(fibonacci_word(15), 30.0, TAU, (0.05, 0.3), chunks * _CHUNK) == []


@pytest.mark.xfail(strict=True, raises=OverflowRisk, reason="_sturm's Dirichlet carry cancels to 0/0")
@pytest.mark.parametrize("gamma", [1e15, 1e16])
def test_strong_single_cell_has_no_germ_in_range(gamma):
    # The cell's entries are finite (about 1e16 at beta = 0.05), and its one
    # germ lies near gamma/2, far above the default range.  Once 1 + delta/2
    # rounds to delta/2, a == -c and d == -b, so the Dirichlet start
    # (cm, cp) = (-1, 1) maps to (0, 0) and the edge count's normalization
    # divides 0 by 0: a false OverflowRisk.  A Bound fold that takes the
    # delta first would answer [].
    assert band_germs(Word("S"), gamma, 1.0) == []


def _scalar_bisect(fn, lo, hi, flo, tol=ROOT_TOL):
    """The one-bracket bisection loop that lockstep _bisect replaced, kept as its oracle."""
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


@pytest.mark.parametrize("regime", [Regime.BOUND, Regime.SCATTERING])
def test_lockstep_bisect_is_bitwise_the_scalar_loop(regime):
    word, gamma = Word("SL"), 4.0

    def value(beta, which):
        return _word_scan(word, gamma, TAU, np.array([beta]), regime, which)[0]

    betas = np.linspace(0.05, 6.0, 801)
    x = _word_scan(word, gamma, TAU, betas, regime, "x")
    brackets = []  # (lo, hi, target)
    for target in (1.0, -1.0):
        for i in np.nonzero(np.diff(np.sign(x - target)))[0]:
            brackets.append((betas[i], betas[i + 1], target))  # one grid spacing wide
            brackets.append((betas[max(i - 40, 0)], betas[i + 1], target))  # 41 spacings wide
    assert {t for _, _, t in brackets} == {1.0, -1.0}
    lo, hi = 1.3, 1.9
    brackets.append((lo, hi, value(0.5 * (lo + hi), "x")))  # f(mid) == 0 at the first step
    brackets.append((lo, lo + 0.5 * ROOT_TOL, 0.0))  # already converged
    lo, hi, target = (np.array(v) for v in zip(*brackets))
    flo = np.array([value(b, "x") for b in lo]) - target

    got = _bisect(word, gamma, TAU, regime, "x", lo, hi, flo, target)
    want = [
        _scalar_bisect(lambda b, t=t: value(b, "x") - t, a, b, f)
        for a, b, f, t in zip(lo.tolist(), hi.tolist(), flo.tolist(), target.tolist())
    ]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert got[-2] == 0.5 * (1.3 + 1.9)
    assert _bisect(word, gamma, TAU, regime, "x", [], [], []).shape == (0,)


def test_lockstep_bisect_refines_d_roots_as_the_scalar_loop():
    word = fibonacci_word(5)
    betas = np.linspace(0.05, 6.0, 2001)
    d = _word_scan(word, 10.0, TAU, betas, Regime.BOUND, "d")
    i = np.nonzero(np.diff(np.sign(d)))[0]
    got = _bisect(word, 10.0, TAU, Regime.BOUND, "d", betas[i], betas[i + 1], d[i])

    def fd(beta):
        return _word_scan(word, 10.0, TAU, np.array([beta]), Regime.BOUND, "d")[0]

    want = [_scalar_bisect(fd, betas[k], betas[k + 1], d[k]) for k in i]
    assert i.size > 0
    assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in want]


def test_spectra_scans_never_take_the_scalar_route(monkeypatch):
    # Scans, refinement, the energy gauge and the binding equation run on
    # the grid kernel only; every scalar cell_matrix builds a tunnel_matrix.
    def scalar_route(*args, **kwargs):
        raise AssertionError("scalar transfer-matrix route called")

    assert not hasattr(spectra, "word_matrix") and not hasattr(spectra, "cell_matrix")
    monkeypatch.setattr("deltachain.core.tunnel_matrix", scalar_route)
    lhs, rhs = binding_equation_residual(2, 1.5, 4.0)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert energy_gauge(Word("S"), 4.0, 1.0, 1.5) == 0
    assert len(band_germs(Word("SL"), 4.0, TAU)) == 2
    assert band_germs(Word("SL"), 4.0, TAU, regime=Regime.SCATTERING)
    assert len(bound_states(fibonacci_word(4), 10.0, TAU)) == 3
    assert [c.count for c in partial_band_census(3, 4.0)] == [1, 1, 1]
    assert dos_estimate(6.0).density.size == 2000


# sha256 (first 16 hex digits) of partial_band_census(n, 4.0) for n = 1..10,
# every float as float.hex, recorded with the scalar word_matrix bisection
# that the lockstep grid-kernel bisection replaced.
_CENSUS_DIGESTS = {
    1: "c6f788308ec99354",
    2: "005dd2f029dd4309",
    3: "21286b668a766fb2",
    4: "adcf65282f19d126",
    5: "a18a26c9fba615e6",
    6: "150e14774179fa51",
    7: "0c7f62c2934c2202",
    8: "cb1c6b68fd31b608",
    9: "ebb4873c689ee6a2",
    10: "016ca7f708475eb5",
}


@pytest.mark.parametrize("n", sorted(_CENSUS_DIGESTS))
def test_partial_band_census_values_are_unchanged(n):
    rows = [
        (c.mu, *(float(v).hex() for v in (c.kb_lo, c.kb_hi, c.beta_lo, c.beta_hi)), c.count)
        for c in partial_band_census(n, 4.0)
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == _CENSUS_DIGESTS[n]


def test_node_count_of_the_single_well():
    # One bound state at beta* = gamma/2: one node below it, none above.
    counts = _node_count(Word("S"), 4.0, 1.0, np.array([0.05, 1.9, 2.1, 6.0]))
    assert counts.tolist() == [1, 1, 0, 0]
    assert _node_count(Word("SL"), -3.0, TAU, np.linspace(0.05, 6.0, 101)).tolist() == [0] * 101


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    letters=st.text(alphabet="SL", min_size=1, max_size=8),
    gamma=st.floats(-6.0, 12.0),
    q=st.floats(0.3, 2.5),
)
def test_bound_states_return_every_counted_root(letters, gamma, q):
    word = Word(letters)
    fine = np.linspace(0.05, 6.0, 4 * 2000 + 1)
    n = _node_count(word, gamma, q, fine)
    d = _word_scan(word, gamma, q, fine, Regime.BOUND, "d")
    # Each zero of d moves one node through the right end of the chain.
    assert set((np.sign(d) * (-1.0) ** n).tolist()) == {1.0}
    roots = [s.beta_star for s in bound_states(word, gamma, q)]
    assert len(roots) == n[0] - n[-1]
    for k, r in enumerate(roots):
        # Tunnel-split pairs can sit closer than 2e-9 (SLLLLSL at gamma 7.55,
        # q 2.34 has one 2.7e-10 wide), so the bracket shrinks to half the gap.
        eps = min([1e-9] + [abs(r - o) / 2 for j, o in enumerate(roots) if j != k])
        lo, hi = (word_matrix(word, ChainParams(r + e, gamma, q)).d.real for e in (-eps, eps))
        assert lo * hi < 0, (letters, gamma, q, r)


@pytest.mark.parametrize("steps", [2000, 32000])
@pytest.mark.parametrize(
    "letters, gamma, q, count",
    [
        ("SLSL", 11.243170348895887, 2.337067751909144, 4),
        ("LLSSLLS", 11.896144572099836, 2.413873334693298, 7),
    ],
)
def test_close_root_pairs_are_all_returned(letters, gamma, q, count, steps):
    # The grid search returned 0 of SLSL's 4 roots and 3 of LLSSLLS's 7 at
    # 32,000 steps without raising GridTooCoarse.
    assert len(bound_states(Word(letters), gamma, q, grid_steps=steps)) == count


def test_energy_gauge_reads_the_scan_at_germ_edges():
    # At a refined edge |x| = 1 up to rounding, so the gauge must read x as
    # the scan does, down to the last bit.
    word = fibonacci_word(5)
    edges = [b for g in band_germs(word, 10.0, TAU) for b in (g.beta_lo, g.beta_hi)]
    points = [p for b in edges for p in (np.nextafter(b, 0.0), b, np.nextafter(b, 7.0))]
    x = _word_scan(word, 10.0, TAU, np.array(points), Regime.BOUND, "x")
    assert len(edges) == 10
    assert [energy_gauge(word, 10.0, TAU, float(p)) for p in points] == [
        0 if abs(v) <= 1.0 + BAND_TOL else 1 for v in x.tolist()
    ]


@pytest.mark.parametrize("regime", list(Regime))
def test_edge_count_tables_each_chunk_once_per_letter(monkeypatch, regime):
    # The Dirichlet count and x of the root word read one table per chunk
    # and letter, and one set of cells per chunk; a count and an x scan of
    # their own would make each twice.
    calls, cells, real_table, real_cells = [], [], kernel._cell_table, kernel._cells

    def counted(betas, regime, ratio):
        calls.append((betas.size, ratio))
        return real_table(betas, regime, ratio)

    def counted_cells(gamma, betas, regime, tables):
        cells.append(betas.size)
        return real_cells(gamma, betas, regime, tables)

    monkeypatch.setattr(kernel, "_cell_table", counted)
    monkeypatch.setattr(kernel, "_cells", counted_cells)
    betas = np.linspace(0.05, 6.0, _CHUNK + 11)
    for word, q, ratios in ((fibonacci_word(6), TAU, (1.0, TAU)), (Word("SLSL"), 1.0, (1.0,))):
        calls.clear()
        cells.clear()
        _edge_count(word, 10.0, q, betas, regime)
        assert sorted(calls) == sorted((size, r) for size in (_CHUNK, 11) for r in ratios)
        assert sorted(cells) == [11, _CHUNK]


def _pruefer(word: Word, q: float, beta: np.ndarray, gamma) -> np.ndarray:
    """Scattering-regime Dirichlet eigenvalues of one period below beta**2, by the Pruefer angle.

    The zeros of psi from psi = 0, psi' > 0, counted by the Pruefer angle u
    (psi = R sin u, psi' = beta R cos u): a delta maps u to atan2(sin u,
    cos u - (gamma/beta) sin u), a tunnel advances it by beta*ratio, and
    each multiple of pi passed is a zero.  The reference for _sturm's
    Scattering count.
    """
    de = gamma / beta
    u = np.zeros(beta.size)
    n = np.zeros(beta.size, dtype=np.int64)
    for ch in word.letters:
        s = np.sin(u)
        u = np.arctan2(s, np.cos(u) - de * s) + beta * CellKind(ch).ratio(q)
        turns = np.floor(u / np.pi)
        n += turns.astype(np.int64)
        u -= turns * np.pi
    return n


def _scattering_dirichlet_count(word: Word, gamma, q: float, betas: np.ndarray) -> np.ndarray:
    def fold(beta, cells):
        return spectra._sturm(word, q, beta, cells, Regime.SCATTERING, dirichlet=True)

    return kernel._scan(word, gamma, q, betas, Regime.SCATTERING, fold, dtype=np.int64)


def test_scattering_dirichlet_count_is_the_pruefer_count():
    # One Sturm fold counts zeros in both regimes; in the Scattering regime
    # it must agree with the Pruefer angle at every point, on random words
    # and on Fibonacci words whose tunnels pass many multiples of pi.
    rng = np.random.default_rng(16)
    for _ in range(200):
        word = Word("".join(rng.choice(["S", "L"], rng.integers(1, 41))))
        gamma, q = rng.uniform(-8.0, 12.0), rng.uniform(0.3, 3.0)
        betas = rng.uniform(0.0, 12.0, 1000) + 1e-3
        got = _scattering_dirichlet_count(word, gamma, q, betas)
        assert np.array_equal(got, _pruefer(word, q, betas, gamma)), (str(word), gamma, q)
    betas = np.linspace(0.05, 12.0, 2001)
    for m in range(2, 15):
        for gamma in (4.0, 10.0, -3.0):
            got = _scattering_dirichlet_count(fibonacci_word(m), gamma, TAU, betas)
            assert np.array_equal(got, _pruefer(fibonacci_word(m), TAU, betas, gamma)), (m, gamma)


def test_only_the_kernel_touches_cell_tables():
    # Scans hand their fills a chunk's cells; cell tables, cell entries and
    # the cells themselves are made in kernel.py alone.
    private = {"_cell_table", "_cell_entries", "_cells"}
    for path in sorted(Path(spectra.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & private, (path.name, sorted(names & private))


def test_every_module_import_is_used():
    # No linter runs on the package, so an import that a change leaves
    # behind, a name the module never reads, fails here.  __init__ only
    # re-exports.
    for path in sorted(Path(spectra.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_every_module_level_name_is_read():
    # A function, class or assigned name that a change leaves behind with no
    # reader fails here.  A read is a load of the name anywhere in the
    # package, or an import of it (__init__'s re-exports included); the
    # module protocol's dunder names are exempt.
    trees = {path.name: ast.parse(path.read_text()) for path in Path(spectra.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for name, tree in sorted(trees.items()):
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
        unread = sorted(n for n in defined - read if not (n.startswith("__") and n.endswith("__")))
        assert not unread, (name, unread)


def test_energy_gauge_reads_in_band_as_the_edge_count_does():
    # Both read x from the word's root and take |x| <= 1 + BAND_TOL as in
    # band.  At the closed gaps of S^4 (q = 1, x_S = cos(k*pi/4)) the
    # product for S^4 rounds x past +-1, and at the germ edge of S there
    # are betas with 1 < x <= 1 + BAND_TOL; band_germs puts all of them in
    # band, so the gauge must read 0 there.
    s, s4 = Word("S"), Word("SSSS")
    [germ] = band_germs(s, 4.0, 1.0)
    t = np.array([math.cos(k * math.pi / 4) for k in (1, 2, 3)])
    lo, hi = np.full(3, germ.beta_lo), np.full(3, germ.beta_hi)
    flo = _word_scan(s, 4.0, 1.0, lo, Regime.BOUND, "x") - t
    closed = _bisect(s, 4.0, 1.0, Regime.BOUND, "x", lo, hi, flo, t)
    points = (closed[:, None] + np.arange(-50, 51) * 1e-12).ravel()
    assert np.any(np.abs(_word_scan(s4, 4.0, 1.0, points, Regime.BOUND, "x")) > 1.0)

    # Bisect x - (1 + BAND_TOL/2) across the upper edge down to adjacent floats.
    a, b = germ.beta_hi - 1e-9, germ.beta_hi + 1e-9
    while (mid := 0.5 * (a + b)) not in (a, b):
        x = _word_scan(s, 4.0, 1.0, np.array([mid]), Regime.BOUND, "x")[0]
        a, b = (a, mid) if x > 1.0 + 0.5 * BAND_TOL else (mid, b)
    assert 1.0 < _word_scan(s, 4.0, 1.0, np.array([a]), Regime.BOUND, "x")[0] <= 1.0 + BAND_TOL
    points = np.append(points, [a, germ.beta_hi + 1e-6])

    for word in (s, s4):
        in_band = _edge_count(word, 4.0, 1.0, points, Regime.BOUND) % 2 == 1
        assert [energy_gauge(word, 4.0, 1.0, float(p)) for p in points] == (~in_band).astype(int).tolist()
        assert in_band[:-1].all() and not in_band[-1]


def test_bound_states_refuse_what_they_cannot_isolate(monkeypatch):
    # Each refusal names the interval; a count is injected for each case.
    # The fine grid of 100 steps on (0.05, 6] brackets 1.0 by [0.987125, 1.002].
    cases = [
        (2, 0, r"^bound roots closer than 1e-10 on \[0\.99999999"),
        (0, 1, r"^the bound-state count rises with beta on \[0\.987125"),
        (1, 0, r"^no sign change of d at one bound root on \[0\.987125"),
    ]
    for below, above, message in cases:
        def count(word, gamma, q, betas, below=below, above=above):
            return np.where(betas < 1.0, below, above).astype(np.int64)

        monkeypatch.setattr(spectra, "_node_count", count)
        with pytest.raises(GridTooCoarse, match=message):
            bound_states(Word("S"), -1.0, 1.0, (0.05, 6.0), 100)
    # Where the count rises twice, the refusal names the lower interval.
    def twice(word, gamma, q, betas):
        return (betas > 1.0).astype(np.int64) + (betas > 3.0)

    monkeypatch.setattr(spectra, "_node_count", twice)
    with pytest.raises(GridTooCoarse, match=cases[1][2]):
        bound_states(Word("S"), -1.0, 1.0, (0.05, 6.0), 100)


def _exact_x(letters, gamma, q, beta, regime=Regime.BOUND):
    """Half trace of the word matrix in 50-digit arithmetic, in either regime."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        beta = mp.mpf(beta)
        h = mp.mpf(gamma) / beta / 2
        cells = {}
        for ch, ratio in (("S", mp.mpf(1)), ("L", mp.mpf(q))):
            if regime is Regime.BOUND:
                lam = mp.exp(beta * ratio)
                cells[ch] = ((1 + h) / lam, lam * h, -h / lam, lam * (1 - h))
            else:
                lam = mp.exp(-1j * beta * ratio)
                cells[ch] = ((1 + 1j * h) / lam, 1j * h * lam, -1j * h / lam, lam * (1 - 1j * h))
        A, B, C, D = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for ch in letters:
            a, b, c, d = cells[ch]
            A, B, C, D = A * a + B * c, A * b + B * d, C * a + D * c, C * b + D * d
        return mp.re((A + D) / 2)


@pytest.mark.parametrize("m", range(3, 10))
def test_fibonacci_germ_census_at_the_default_grid(m):
    germs = band_germs(fibonacci_word(m), 10.0, TAU)
    assert len(germs) == fibonacci_number(m)


@pytest.mark.parametrize(
    "letters, gamma, q, count, missed",
    [
        # two germs 3.8e-5 wide near beta = 5.7272
        ("LSSSSL", 11.454531141720185, 2.0084750786014807, 6, ("germ", 5.7272, 3.8e-5, 2)),
        # one gap 1.4e-6 wide at beta = 2.35766
        ("LLSLLSSS", 4.7946949053827765, 1.0299004685779556, 8, ("gap", 2.35766, 1.4e-6, 1)),
    ],
)
def test_germs_between_grid_samples_are_counted(letters, gamma, q, count, missed):
    # The x4 grid census returned 4 of LSSSSL's 6 germs at 2,000 steps and
    # 7 of LLSLLSSS's 8 at every grid up to 512,000 steps, without raising.
    # In 50 digits every edge is a crossing of |x| = 1, |x| < 1 at each
    # germ's midpoint and |x| > 1 at each gap's.
    germs = band_germs(Word(letters), gamma, q)
    assert len(germs) == count
    gaps = [(a.beta_hi, b.beta_lo) for a, b in zip(germs, germs[1:])]
    for g in germs:
        assert abs(_exact_x(letters, gamma, q, 0.5 * (g.beta_lo + g.beta_hi))) < 1
        for edge, inward in ((g.beta_lo, 1e-9), (g.beta_hi, -1e-9)):
            x_in, x_out = (_exact_x(letters, gamma, q, edge + d) for d in (inward, -inward))
            assert abs(x_in) < 1 < abs(x_out), (g, edge)
    for lo, hi in gaps:
        assert abs(_exact_x(letters, gamma, q, 0.5 * (lo + hi))) > 1
    what, beta, width, n = missed
    spans = [(g.beta_lo, g.beta_hi) for g in germs] if what == "germ" else gaps
    near = [hi - lo for lo, hi in spans if abs(lo - beta) < 1e-4]
    assert near == [pytest.approx(width, rel=0.05)] * n


@pytest.mark.parametrize(
    "letters, root, gamma, q, regime, steps",
    [
        ("LLSLLLSL", "LLSL", 9.770767457418392, 0.36063773930456977, Regime.BOUND, 2000),
        ("LLLSLLLS", "LLLS", 2.822721361256601, 1.794663209949286, Regime.BOUND, 2000),
        ("SSLSSSS", "S", 3.810915729808718, 1.0, Regime.BOUND, 8000),
        ("SSLLSSLL", "SSLL", 9.284440438295995, 2.468824874779751, Regime.SCATTERING, 2000),
        ("LSSLLSSL", "LSSL", 10.251467030632565, 2.3676343170071457, Regime.SCATTERING, 2000),
        ("SSSLSSSL", "SSSL", -4.50456071948785, 2.333006796848891, Regime.SCATTERING, 2000),
    ]
    + [("S" * n, "S", 4.0, 1.0, regime, 2000) for n in (2, 3, 4) for regime in Regime],
)
def test_power_words_have_the_germs_of_their_root(letters, root, gamma, q, regime, steps):
    # W^n describes the chain of W, so it has W's germs; its extra gaps are
    # closed (its n subbands touch inside each band of W).  In the first six
    # chains rounding pushes the product's x past +-1 by more than BAND_TOL
    # at the closed gaps, and reading x there made spurious gaps 1e-9 to 2e-8
    # wide.  At q = 1 every word is a power of S.
    base = band_germs(Word(root), gamma, q, (0.05, 6.0), steps, regime=regime)
    germs = band_germs(Word(letters), gamma, q, (0.05, 6.0), steps, regime=regime)
    assert len(germs) == len(base)
    for g, b in zip(germs, base):
        assert abs(g.beta_lo - b.beta_lo) <= 1e-8 and abs(g.beta_hi - b.beta_hi) <= 1e-8, (g, b)
        assert (g.clipped_lo, g.clipped_hi) == (b.clipped_lo, b.clipped_hi)


def test_an_edge_within_band_tol_of_one_is_refined_at_the_threshold():
    # This gap of SLSLLLLL rises only 1.8e-12 above x = 1.  Its isolated
    # edge brackets have x within BAND_TOL above 1 at their in-band ends, so
    # x - 1 does not change sign there; the edges are refined where x
    # crosses 1 + BAND_TOL, where the count changes, instead of refused.
    letters, gamma, q = "SLSLLLLL", 0.21999441194023017, 2.144316637606977
    germs = band_germs(Word(letters), gamma, q, (0.05, 6.0), 8000, regime=Regime.SCATTERING)
    [(lo, hi)] = [(a.beta_hi, b.beta_lo) for a, b in zip(germs, germs[1:]) if abs(a.beta_hi - 5.4836) < 1e-3]
    assert 1e-7 < hi - lo < 1e-6
    assert 1 < _exact_x(letters, gamma, q, 0.5 * (lo + hi), Regime.SCATTERING) < 1 + 2 * BAND_TOL


@pytest.mark.parametrize(
    "letters, gamma, q",
    [("LLLS", 10.7249439689283, 2.360193034827261), ("SLSLL", 11.724874753701918, 2.230168571257204)],
)
def test_edge_kinds_follow_x_outside_every_germ(letters, gamma, q):
    # A germ narrower than ROOT_TOL has both edges in one bracket and
    # refines them to the same beta; its lower edge still takes the kind of
    # x below it.  In 50 digits x just outside each edge has its kind's sign.
    germs = band_germs(Word(letters), gamma, q)
    assert any(g.beta_lo == g.beta_hi for g in germs)
    for g in germs:
        below = _exact_x(letters, gamma, q, g.beta_lo - 1e-9)
        above = _exact_x(letters, gamma, q, g.beta_hi + 1e-9)
        assert (below > 1, above > 1) == (g.edge_kind_lo is EdgeKind.X_PLUS_ONE, g.edge_kind_hi is EdgeKind.X_PLUS_ONE)
        assert abs(below) > 1 and abs(above) > 1


def test_free_cells_have_one_germ():
    # At gamma = 0 the Scattering-regime x = cos(beta*ratio) touches +-1
    # without leaving the band: one germ, clipped at both ends.
    for letters in ("S", "L"):
        [g] = band_germs(Word(letters), 0.0, TAU, regime=Regime.SCATTERING)
        assert (g.beta_lo, g.beta_hi, g.clipped_lo, g.clipped_hi) == (0.05, 6.0, True, True)


def test_band_germs_refuse_what_they_cannot_isolate(monkeypatch):
    # A repulsive cell has x > 1 throughout, so the scan shows no crossing
    # and the window (0.05, 6] is one piece; counts are injected around 1.0.
    cases = [
        (0, 1, r"^the band-edge count rises with beta on \[0\.05, 6\.0\]"),
        (1, 0, r"^x does not cross \+-1 at a counted edge on \[0\.05, 6\.0\]"),
    ]
    for below, above, message in cases:
        def count(word, gamma, q, betas, regime, below=below, above=above):
            return np.where(betas < 1.0, below, above).astype(np.int64)

        monkeypatch.setattr(spectra, "_edge_count", count)
        with pytest.raises(GridTooCoarse, match=message):
            band_germs(Word("S"), -1.0, 1.0, (0.05, 6.0), 100)


def test_edges_within_root_tol_close_the_gaps_among_them(monkeypatch):
    # Edges that stay within ROOT_TOL of 1.0: every gap among them counts as
    # closed, so the interval keeps an edge only where it meets a gap (an
    # even count).  16 -> 12 holds two bands and the gap between them, one
    # germ of zero width; 15 -> 13 a gap between two bands, so the window
    # is one germ; 16 -> 13 a band, a gap and the start of the next band.
    cases = [
        (16, 12, (False, False, EdgeKind.X_PLUS_ONE, EdgeKind.X_PLUS_ONE)),
        (15, 13, (True, True, EdgeKind.X_PLUS_ONE, EdgeKind.X_PLUS_ONE)),
        (16, 13, (False, True, EdgeKind.X_PLUS_ONE, EdgeKind.X_PLUS_ONE)),
    ]
    for below, above, (clipped_lo, clipped_hi, kind_lo, kind_hi) in cases:
        def count(word, gamma, q, betas, regime, below=below, above=above):
            return np.where(betas < 1.0, below, above).astype(np.int64)

        monkeypatch.setattr(spectra, "_edge_count", count)
        [g] = band_germs(Word("S"), -1.0, 1.0, (0.05, 6.0), 100)
        assert (g.clipped_lo, g.clipped_hi) == (clipped_lo, clipped_hi)
        assert (g.edge_kind_lo, g.edge_kind_hi) == (kind_lo, kind_hi)
        assert g.beta_lo == 0.05 if clipped_lo else abs(g.beta_lo - 1.0) <= ROOT_TOL
        assert g.beta_hi == 6.0 if clipped_hi else abs(g.beta_hi - 1.0) <= ROOT_TOL


_words = st.one_of(
    st.text(alphabet="SL", min_size=1, max_size=8),
    st.tuples(st.text(alphabet="SL", min_size=1, max_size=4), st.integers(2, 8))
    .map(lambda power: power[0] * power[1])
    .filter(lambda letters: len(letters) <= 8),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    letters=_words,
    gamma=st.one_of(st.just(0.0), st.floats(-6.0, 12.0)),
    q=st.one_of(st.just(1.0), st.floats(0.3, 2.5)),
    regime=st.sampled_from(Regime),
)
def test_band_germs_alternate_with_gaps(letters, gamma, q, regime):
    # Germs are sorted and disjoint, and in 50 digits |x| <= 1 at the
    # midpoint of every germ and |x| > 1 at the midpoint of every gap (the
    # window's ends included) wider than 2e-9.
    germs = band_germs(Word(letters), gamma, q, regime=regime)
    bounds = [b for g in germs for b in (g.beta_lo, g.beta_hi)]
    assert bounds == sorted(bounds)
    assert all(a.beta_hi < b.beta_lo for a, b in zip(germs, germs[1:]))
    gaps = [(a.beta_hi, b.beta_lo) for a, b in zip(germs, germs[1:])]
    if not germs:
        gaps.append((0.05, 6.0))
    else:
        if not germs[0].clipped_lo:
            gaps.append((0.05, germs[0].beta_lo))
        if not germs[-1].clipped_hi:
            gaps.append((germs[-1].beta_hi, 6.0))
    for g in germs:
        if g.beta_hi - g.beta_lo > 2e-9:
            mid = 0.5 * (g.beta_lo + g.beta_hi)
            assert abs(_exact_x(letters, gamma, q, mid, regime)) <= 1, (g, mid)
    for lo, hi in gaps:
        if hi - lo > 2e-9:
            assert abs(_exact_x(letters, gamma, q, 0.5 * (lo + hi), regime)) > 1, (lo, hi)


def _germs_of(table):
    """The BandGerms of a _germ_rows edge table, each with its gamma index."""
    row, bound, plus, clipped = (v.tolist() for v in table)
    kinds = EdgeKind.X_MINUS_ONE, EdgeKind.X_PLUS_ONE
    assert row[::2] == row[1::2]  # a germ's two edges share their gamma
    germs = [
        BandGerm(bound[k], bound[k + 1], kinds[plus[k]], kinds[plus[k + 1]], clipped[k], clipped[k + 1])
        for k in range(0, len(row), 2)
    ]
    return germs, np.array(row[::2], dtype=np.int64)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    letters=_words,
    gammas=st.lists(st.one_of(st.just(0.0), st.floats(-6.0, 12.0)), min_size=1, max_size=6),
    q=st.one_of(st.just(1.0), st.floats(0.3, 2.5)),
    regime=st.sampled_from(Regime),
)
def test_germ_rows_are_band_germs_at_each_gamma(letters, gammas, q, regime):
    # All gammas share one isolation and one bisection; each row must still
    # be, bit for bit, the germs of a query at its gamma alone.
    def key(germs):
        return [
            (g.beta_lo.hex(), g.beta_hi.hex(), g.edge_kind_lo, g.edge_kind_hi, g.clipped_lo, g.clipped_hi)
            for g in germs
        ]

    word, window = Word(letters), (0.05, 6.0)
    table, refused = _germ_rows(word, gammas, q, window, 2000, regime)
    germs, row = _germs_of(table)
    alone = [band_germs(word, gamma, q, window, 2000, regime) for gamma in gammas]
    assert not refused
    assert key(germs) == [k for g in alone for k in key(g)]
    assert row.tolist() == [i for i, g in enumerate(alone) for _ in g]


@pytest.mark.parametrize("letters, regime", [("L", Regime.SCATTERING), ("SL", Regime.BOUND)])
def test_a_refused_gamma_leaves_the_other_germ_rows_as_band_germs(letters, regime, monkeypatch):
    # A count rising with beta is injected at one gamma of a batch; a rise
    # of 8 keeps each count's parity and edge kind, so that gamma still has
    # germs to leave out.  It alone is refused, with band_germs' message
    # there, and every other gamma keeps, bit for bit, the germs of a query
    # on its own.
    def key(germs):
        return [
            (g.beta_lo.hex(), g.beta_hi.hex(), g.edge_kind_lo, g.edge_kind_hi, g.clipped_lo, g.clipped_hi)
            for g in germs
        ]

    real = spectra._edge_count

    def count(word, gamma, q, betas, regime):
        return real(word, gamma, q, betas, regime) + 8 * ((gamma == 2.5) & (betas > 3.0))

    monkeypatch.setattr(spectra, "_edge_count", count)
    word, gammas, window = Word(letters), [-2.0, 1.0, 2.5, 4.0, 0.0], (0.05, 6.0)
    table, refused = _germ_rows(word, gammas, TAU, window, 400, regime)
    germs, row = _germs_of(table)
    assert germs and list(refused) == [2] and 2 not in row.tolist()
    message = str(refused[2])
    assert message.startswith("the band-edge count rises with beta on [")
    assert message.endswith(f"(word {letters}, gamma = 2.5, {regime.value} regime)")
    with pytest.raises(GridTooCoarse) as err:
        band_germs(word, 2.5, TAU, window, 400, regime)
    assert str(err.value) == message
    for k, gamma in enumerate(gammas):
        if k != 2:
            alone = band_germs(word, gamma, TAU, window, 400, regime)
            assert key([g for g, i in zip(germs, row.tolist()) if i == k]) == key(alone), gamma


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    letters=st.one_of(st.sampled_from(["S", "L"]), _words),
    regime=st.sampled_from(Regime),
    q=st.one_of(st.just(1.0), st.floats(0.3, 2.5)),
    lo=st.floats(0.05, 3.0),
    span=st.floats(0.2, 6.0),
    gammas=st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-12.0, 12.0)), min_size=1, max_size=5),
)
def test_a_clipped_edge_takes_the_sign_of_x_at_its_window_end(letters, regime, q, lo, span, gammas):
    # A germ clipped at a window end has no root there; its edge kind is
    # the nearer of x = +-1, read from the sign of x at that end.  Every
    # clipped edge of a batch, over repeated gammas, must carry the sign of
    # _word_scan's x at its own end, and band_germs the matching EdgeKind.
    word, gammas, window = Word(letters), gammas + gammas[:2], (lo, lo + span)
    (row, bound, plus, clipped), refused = _germ_rows(word, gammas, q, window, 100, regime)
    ends, kind = np.linspace(*window, 401)[[0, -1]], {True: EdgeKind.X_PLUS_ONE, False: EdgeKind.X_MINUS_ONE}
    for k in np.flatnonzero(clipped).tolist():
        end = ends[k % 2]  # a clipped low edge is the window start, a high edge its end
        assert bound[k] == end
        assert plus[k] == (_word_scan(word, gammas[row[k]], q, np.array([end]), regime, "x")[0] >= 0.0)
    for i, gamma in enumerate(gammas):
        if i in refused:
            continue
        germs = band_germs(word, gamma, q, window, 100, regime)
        x_lo, x_hi = _word_scan(word, gamma, q, ends, regime, "x").tolist()
        if germs and germs[0].clipped_lo:
            assert germs[0].edge_kind_lo is kind[x_lo >= 0.0], gamma
        if germs and germs[-1].clipped_hi:
            assert germs[-1].edge_kind_hi is kind[x_hi >= 0.0], gamma


def test_germ_sign_tests_do_not_overflow(monkeypatch):
    # W_8 (Scattering) at gamma = 1e12: x at a bracket end passes 1e154, where
    # the product (x_lo - t)*(x_hi - t) of _germ_rows' sign tests overflowed
    # to a RuntimeWarning.  The query answers or refuses with a token.
    ends, real = [], spectra._word_scan

    def spy(*args):
        x = real(*args)
        ends.append(float(np.abs(x).max(initial=0.0)))
        return x

    monkeypatch.setattr(spectra, "_word_scan", spy)
    try:
        band_germs(fibonacci_word(8), 1e12, TAU, (0.05, 6.0), 2000, Regime.SCATTERING)
    except GridTooCoarse:
        pass
    assert ends[0] > 1e154  # the first x scan is the one at the bracket ends


# Offsets from beta*ratio = k*pi, where the Dirichlet eigenvalues of a cell
# sit at strong coupling.
_NEAR_PI = np.logspace(-15, -1, 400)


@pytest.mark.parametrize("gamma", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
def test_strong_coupling_dirichlet_count_is_the_pruefer_count(gamma):
    # Within about 1e-17*gamma of beta*ratio = k*pi (k = 1, 2), exponential-
    # basis cells cancel: a fold on them disagreed with the Pruefer angle at
    # 2 to 1,146 of the 1,600 points per cell and gamma here.  The fold on
    # the real cells must agree at every point.
    for word in (Word("S"), Word("L"), fibonacci_word(5), fibonacci_word(9)):
        ratios = sorted({CellKind(ch).ratio(TAU) for ch in word.letters})
        betas = np.concatenate([k * np.pi / r + s * _NEAR_PI for r in ratios for k in (1, 2) for s in (-1.0, 1.0)])
        got = _scattering_dirichlet_count(word, gamma, TAU, betas)
        assert np.array_equal(got, _pruefer(word, TAU, betas, gamma)), (str(word), gamma)


def test_strong_coupling_scattering_bands_answer_with_certified_edges(tmp_path):
    # This run refused with "GridTooCoarse: the band-edge count rises with
    # beta" while the count cancelled.  In 50 digits x -/+ 1 changes sign
    # within ROOT_TOL of every edge it writes: across the edge's window, or
    # at the extremum of x inside it, where germs closer than ROOT_TOL merge
    # into one (near beta = pi, two germs within about 2e-15 of each other).
    mp = pytest.importorskip("mpmath")
    out = tmp_path / "bands.csv"
    assert main(["bands", "--word", "fib:m=5", "--gamma", "1e8", "--regime", "scattering", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows
    with mp.workdps(50):
        for _, _, _, _, *edges in rows:
            for beta, kind in zip(edges[:2], edges[2:]):
                t = 1 if kind == "XPlusOne" else -1

                def f(b):
                    return _exact_x("SLLSL", 1e8, TAU, b, Regime.SCATTERING) - t

                lo, hi = mp.mpf(float(beta)) - ROOT_TOL, mp.mpf(float(beta)) + ROOT_TOL
                side = mp.sign(f(lo))
                if side * mp.sign(f(hi)) > 0:  # both ends on one side: seek x's extremum toward the other
                    for _ in range(80):
                        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                        lo, hi = (lo, m2) if side * f(m1) < side * f(m2) else (m1, hi)
                    assert side * f((lo + hi) / 2) <= 0, (beta, kind)


def _product_error_bound(word, q, beta, gamma):
    """4*n*eps times the largest entry of the product of the cells' absolute values, in each basis."""
    p = ChainParams(beta, gamma, q, Regime.SCATTERING)
    exp_abs, real_abs = np.eye(2), np.eye(2)
    for kind in word.kinds():
        t = beta * kind.ratio(q)
        exp_abs = exp_abs @ np.abs(np.array(cell_matrix(p, kind).entries()).reshape(2, 2))
        real_abs = real_abs @ np.abs(np.array(_real_cell(p.delta, math.cos(t), math.sin(t))).reshape(2, 2))
    return 4 * len(word) * np.finfo(float).eps * (exp_abs.max() + real_abs.max())


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    word=st.one_of(
        st.integers(1, 8).map(fibonacci_word), st.text("SL", min_size=1, max_size=21).map(Word)
    ),
    q=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
    gamma=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-30.0, 30.0), st.floats(-1e3, 1e3)),
    betas=st.lists(st.one_of(st.floats(1e-3, 30.0), st.floats(1e-6, 1e-3)), min_size=1, max_size=12),
)
def test_scattering_products_are_su11_and_match_compose(word, q, gamma, betas):
    # The kernel's exponential-basis (a, b, c, d), from the real product by
    # the basis change, satisfy d = conj(a) and c = conj(b) exactly, and they
    # match compose of cell_matrix within the textbook error bound of a
    # product of n matrices, taken for each basis (_product_error_bound).
    betas = np.array(betas)

    def fill(beta, cells):
        return _from_real(*_word_grid(word, cells))

    a, b, c, d = kernel._scan(word, gamma, q, betas, Regime.SCATTERING, fill, rows=(4,), dtype=complex)
    ar, ai, br, bi, cr, ci, dr, di = (v for z in (a, b, c, d) for v in (z.real, z.imag))
    assert np.array_equal(dr, ar) and np.array_equal(di, -ai)
    assert np.array_equal(cr, br) and np.array_equal(ci, -bi)
    for k, beta in enumerate(betas.tolist()):
        p = ChainParams(beta, gamma, q, Regime.SCATTERING)
        M = TransferMatrix.identity()
        for kind in word.kinds():
            M = compose(M, cell_matrix(p, kind))
        got = (complex(ar[k], ai[k]), complex(br[k], bi[k]), complex(cr[k], ci[k]), complex(dr[k], di[k]))
        err = max(abs(u - v) for u, v in zip(got, M.entries()))
        assert err <= _product_error_bound(word, q, beta, gamma), (str(word), q, gamma, beta)
