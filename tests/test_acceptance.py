"""Acceptance gate: twelve criteria, one test (one pass/fail line) each.

Run with ``pytest tests/test_acceptance.py -v``.  Each criterion states its
tolerance inline; oracles (repeated composition, linear solves, closed
forms) are duplicated here so the gate does not share code with the unit
tests it certifies.

Known state: all twelve criteria pass.  Criterion 5 once asserted that
every bound root of W_m lies inside a band germ of W_m itself.  That clause
is false in exact arithmetic, not a numerical artefact: at gamma = 10 the
open chain's root pairs near beta = 4.965, 5.000 and 5.033 sit where the
half trace of the closed (periodic) chain is |x| ~ 11, because the bond
that closes the chain splits near-degenerate pairs by more than a germ's
width (3e-6 to 8e-5).  Whether the paper claims encapsulation at the level
of W_m or at a coarser level is not settled by its abstract.  The gate now
checks encapsulation one level up the strong-coupling hierarchy: every germ
and every root of W_m lies in one of the three clusters formed by the germs
of W_2 and W_3, and each cluster holds as many roots as germs.  A separate
50-digit test certifies the roots and germs behind that change.
"""

import cmath
import math
import subprocess
import sys

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
    compose,
    power_closed,
)
from deltachain.scattering import (
    backscatter_scan,
    band_edge_limit,
    commuting_deviations,
    fibonacci_periodic_equivalence,
    s_matrix,
)
from deltachain.spectra import band_germs, bound_states, partial_band_census
from deltachain.states import sample_wavefunction, scalar_product_samples, bound_companion_pair
from deltachain.substitution import (
    Word,
    fibonacci_number,
    fibonacci_word,
    trace_map_sequence,
    word_matrix,
)


def test_criterion_01_single_well_bound_state():
    # Exactly one root at beta = gamma/2 within 1e-9 for gamma in {1, 2, 4, 8}.
    for gamma in (1.0, 2.0, 4.0, 8.0):
        roots = bound_states(Word("S"), gamma, 1.0, (0.05, gamma / 2.0 + 2.0))
        assert len(roots) == 1, f"gamma={gamma}: {len(roots)} roots"
        assert abs(roots[0].beta_star - gamma / 2.0) <= 1e-9, (
            f"gamma={gamma}: root {roots[0].beta_star!r}"
        )


def test_criterion_02_power_identity_oracle():
    # power_closed vs repeated compose, entrywise relative <= 1e-9,
    # n <= 50, both regimes, 400 (beta, gamma) grid points.
    betas = np.linspace(0.2, 3.0, 20)
    gammas = np.linspace(0.5, 6.0, 20)
    worst = 0.0
    for regime in (Regime.BOUND, Regime.SCATTERING):
        for beta in betas:
            for gamma in gammas:
                M = cell_matrix(ChainParams(float(beta), float(gamma), 1.0, regime), CellKind.S)
                for n in (2, 7, 50):
                    brute = TransferMatrix.identity()
                    for _ in range(n):
                        brute = compose(brute, M)
                    got = power_closed(M, n)
                    rel = got.max_abs_diff(brute) / max(1.0, brute.max_abs())
                    worst = max(worst, rel)
    assert worst <= 1e-9, f"worst entrywise relative error {worst:.3e}"


def test_criterion_03_fibonacci_cross_path_oracle():
    # word_matrix(W_m) vs trace_map_sequence row m, relative <= 1e-9,
    # m <= 12, both regimes.
    # W_12 spans 199 units of b, so bound-regime entries grow to about
    # exp(1.4 * 199) = exp(279), well inside float64.
    worst = 0.0
    for regime in (Regime.BOUND, Regime.SCATTERING):
        for beta, gamma in ((0.6, 2.0), (1.1, 5.0), (1.4, 0.7)):
            params = ChainParams(beta, gamma, TAU, regime)
            for row in trace_map_sequence(params, 12):
                direct = word_matrix(fibonacci_word(row.m), params)
                rel = row.matrix().max_abs_diff(direct) / max(1.0, direct.max_abs())
                worst = max(worst, rel)
    assert worst <= 1e-9, f"worst cross-path relative error {worst:.3e}"


def test_criterion_04_commutator_invariant_formula():
    # Half trace of the commutator matches the closed form within 1e-10 on a
    # 20x20 grid; the Bound value exceeds 1 strictly for gamma != 0.
    betas = np.linspace(0.3, 2.5, 20)
    gammas = np.linspace(0.5, 6.0, 20)
    worst = 0.0
    for beta in betas:
        for gamma in gammas:
            for regime in (Regime.BOUND, Regime.SCATTERING):
                p = ChainParams(float(beta), float(gamma), TAU, regime)
                K = commutator(cell_matrix(p, CellKind.S), cell_matrix(p, CellKind.L))
                arg = (TAU - 1.0) * p.beta
                osc = math.sinh(arg) if regime is Regime.BOUND else math.sin(arg)
                want = 1.0 + 0.5 * p.delta**2 * osc * osc
                worst = max(worst, abs(K.x.real - want), abs(K.x.imag))
                if regime is Regime.BOUND:
                    assert K.x.real > 1.0
    assert worst <= 1e-10, f"worst commutator deviation {worst:.3e}"


def _cluster_mismatches(germs, roots, clusters) -> list[str]:
    """Encapsulation failures of a W_m census in the coarse clusters: germs or
    roots outside every cluster, and clusters whose germ and root counts differ."""

    def within(c, lo, hi):
        return c.beta_lo - 1e-9 <= lo and hi <= c.beta_hi + 1e-9

    problems = []
    for g in germs:
        if not any(within(c, g.beta_lo, g.beta_hi) for c in clusters):
            problems.append(f"germ [{g.beta_lo:.6f}, {g.beta_hi:.6f}] outside every cluster")
    for s in roots:
        if not any(within(c, s.beta_star, s.beta_star) for c in clusters):
            problems.append(f"root {s.beta_star:.6f} outside every cluster")
    for c in clusters:
        n_germs = sum(1 for g in germs if within(c, g.beta_lo, g.beta_hi))
        n_roots = sum(1 for s in roots if within(c, s.beta_star, s.beta_star))
        if n_germs != n_roots:
            problems.append(
                f"cluster [{c.beta_lo:.5f}, {c.beta_hi:.5f}]: {n_germs} germs, {n_roots} roots"
            )
    return problems


def test_criterion_05_germ_and_bound_counts_with_encapsulation():
    # q = tau, gamma = 10, beta in (0.05, 6], 2,000 grid steps: exactly f_m
    # band germs and f_m bound roots for m = 3..6, encapsulated by the three
    # clusters into which the W_m spectra trifurcate (the germs of W_2 = L
    # and W_3 = SL): every germ and root of W_m lies in a cluster, and each
    # cluster holds as many roots as germs.
    clusters = sorted(
        (g for k in (2, 3) for g in band_germs(fibonacci_word(k), 10.0, TAU, (0.05, 6.0))),
        key=lambda g: g.beta_lo,
    )
    assert len(clusters) == 3, f"{len(clusters)} clusters, expected f_2 + f_3 = 3"
    for left, right in zip(clusters, clusters[1:]):
        assert left.beta_hi < right.beta_lo, (
            f"clusters [{left.beta_lo:.5f}, {left.beta_hi:.5f}] and "
            f"[{right.beta_lo:.5f}, {right.beta_hi:.5f}] overlap"
        )
    failures = []
    for m in (3, 4, 5, 6):
        f_m = fibonacci_number(m)
        germs = band_germs(fibonacci_word(m), 10.0, TAU, (0.05, 6.0), 2000)
        roots = bound_states(fibonacci_word(m), 10.0, TAU, (0.05, 6.0), 2000)
        assert len(germs) == f_m, f"m={m}: {len(germs)} germs, expected {f_m}"
        assert len(roots) == f_m, f"m={m}: {len(roots)} roots, expected {f_m}"
        failures += [f"m={m}: {p}" for p in _cluster_mismatches(germs, roots, clusters)]
    assert not failures, "cluster encapsulation failed: " + " | ".join(failures)


def test_criterion_05_census_certified_in_50_digits():
    # The census behind criterion 5 at m = 5, 6, re-evaluated in 50 digits:
    # each root is a sign change of d across beta* -/+ 1e-9, the float half
    # trace there agrees with the exact one, and a root lies in a W_m germ
    # exactly when |x_m(beta*)| <= 1; each germ edge is a crossing of |x| = 1.
    mp = pytest.importorskip("mpmath")

    def exact(letters: str, beta: float):
        """(x, d) of the Bound-regime word matrix at gamma = 10, q = tau."""
        with mp.workdps(50):
            beta = mp.mpf(beta)
            half = mp.mpf(10.0) / beta / 2
            cells = {}
            for ch, ratio in (("S", mp.mpf(1)), ("L", mp.mpf(TAU))):
                lam = mp.exp(beta * ratio)
                cells[ch] = ((1 + half) / lam, lam * half, -half / lam, lam * (1 - half))
            A, B, C, D = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
            for ch in letters:
                a, b, c, d = cells[ch]
                A, B, C, D = A * a + B * c, A * b + B * d, C * a + D * c, C * b + D * d
            return (A + D) / 2, D

    for m in (5, 6):
        word = fibonacci_word(m)
        germs = band_germs(word, 10.0, TAU, (0.05, 6.0), 2000)
        roots = bound_states(word, 10.0, TAU, (0.05, 6.0), 2000)
        for s in roots:
            b = s.beta_star
            _, d_lo = exact(word.letters, b - 1e-9)
            _, d_hi = exact(word.letters, b + 1e-9)
            assert d_lo * d_hi < 0, f"m={m}: no sign change of d at beta* = {b:.9f}"
            x, _ = exact(word.letters, b)
            x_float = word_matrix(word, ChainParams(b, 10.0, TAU, Regime.BOUND)).x.real
            assert abs(x_float - x) <= 1e-6 * max(1.0, abs(x)), (
                f"m={m}: float x = {x_float!r} vs 50-digit x = {float(x)!r} at {b:.9f}"
            )
            in_germ = any(g.beta_lo - 1e-9 <= b <= g.beta_hi + 1e-9 for g in germs)
            assert in_germ == (abs(x) <= 1), (
                f"m={m}: root {b:.9f} in_germ={in_germ} but |x| = {float(abs(x)):.6g}"
            )
        for g in germs:
            for edge, inward in ((g.beta_lo, 1e-9), (g.beta_hi, -1e-9)):
                x_in, _ = exact(word.letters, edge + inward)
                x_out, _ = exact(word.letters, edge - inward)
                assert abs(x_in) < 1 < abs(x_out), (
                    f"m={m}: germ edge {edge:.9f} is not a crossing of |x| = 1"
                )


def test_criterion_06_gap_free_gluing_at_unit_ratio():
    # q = 1: the n subbands of S^n tile the S germ without gaps or overlaps,
    # so S^n has a single germ whose edges match the S germ within 1e-8.
    base = band_germs(Word("S"), 4.0, 1.0)
    assert len(base) == 1
    for n in (2, 3):
        germs = band_germs(Word("S" * n), 4.0, 1.0)
        assert len(germs) == 1, f"S^{n}: {len(germs)} germs (gap or overlap detected)"
        assert abs(germs[0].beta_lo - base[0].beta_lo) <= 1e-8
        assert abs(germs[0].beta_hi - base[0].beta_hi) <= 1e-8


def test_criterion_07_partial_band_census():
    # One bound root in every partial band for n in {2, 3, 5, 10} at
    # gamma = 4; the n = 10 scenario yields exactly 10 intersections.
    for n in (2, 3, 5, 10):
        census = partial_band_census(n, 4.0)
        counts = [c.count for c in census]
        assert counts == [1] * n, f"n={n}: counts {counts}"
    total = sum(c.count for c in partial_band_census(10, 4.0))
    assert total == 10, f"n=10: {total} intersections"


def _oracle_s_matrix(word, params):
    M = word_matrix(word, params)
    h = word.total_ratio(params.q)
    ph = cmath.exp(-1j * params.beta * h)
    A = np.array([[M.b, -1.0], [M.d, 0.0]], dtype=complex)
    r, t = np.linalg.solve(A, [-M.a, -M.c])
    tp, rp = np.linalg.solve(A, [0.0, 1.0])
    return np.array([[t * ph, rp * ph * ph], [r, tp * ph]], dtype=complex)


def test_criterion_08_smatrix_unitarity_and_oracle():
    words = (Word("S"), Word("SLL"), fibonacci_word(6))
    worst_unit = 0.0
    worst_oracle = 0.0
    for word in words:
        for beta in np.linspace(0.3, 9.0, 25):
            for gamma in (0.7, 3.0, -2.0):
                p = ChainParams(float(beta), gamma, TAU, Regime.SCATTERING)
                S = s_matrix(word, p)
                worst_unit = max(worst_unit, S.unitarity_defect())
                diff = np.max(np.abs(S.as_array() - _oracle_s_matrix(word, p)))
                worst_oracle = max(worst_oracle, float(diff))
    assert worst_unit <= 1e-10, f"worst unitarity defect {worst_unit:.3e}"
    assert worst_oracle <= 1e-10, f"worst oracle disagreement {worst_oracle:.3e}"


def test_criterion_09_band_edge_scattering_limits():
    # n = 10, gamma = 1, mu = 30: the dominant |s_mp| maximum sits at
    # Kb = mu*pi and matches the closed-form edge amplitudes within 5e-2.
    pts = backscatter_scan(10, 1.0, (93.0, 95.5), 20000)
    cands = [p for p in pts if p.is_max and p.mu == 30]
    assert cands, "no local maximum labeled mu = 30 in the scan window"
    best = max(cands, key=lambda p: p.s_mp_abs)
    assert abs(best.beta - 30.0 * math.pi) <= 5e-2, f"peak at beta = {best.beta:.6f}"
    delta = 1.0 / best.beta
    spp_want, smp_want = band_edge_limit(10, delta)
    assert abs(best.s_mp_abs - abs(smp_want)) <= 5e-2
    S = s_matrix(Word("S" * 10), ChainParams(best.beta, 1.0, 1.0, Regime.SCATTERING))
    assert abs(abs(S.s_pp) - abs(spp_want)) <= 5e-2
    assert abs(abs(S.s_mp) - abs(smp_want)) <= 5e-2


def test_criterion_10_commuting_points():
    # beta = tau*p*pi, p = 1, 2: commutator within 1e-9 of the identity,
    # proportionality M2 = (-1)^p M1 within 1e-9, and the Fibonacci string
    # equivalent to a periodic one within 1e-8 for m <= 10.
    for p in (1, 2):
        comm_dev, prop_dev = commuting_deviations(p, 2.0)
        assert comm_dev <= 1e-9, f"p={p}: commutator deviation {comm_dev:.3e}"
        assert prop_dev <= 1e-9, f"p={p}: proportionality deviation {prop_dev:.3e}"
        for m in range(1, 11):
            dev = fibonacci_periodic_equivalence(m, p, 2.0)
            assert dev <= 1e-8, f"p={p} m={m}: deviation {dev:.3e}"


def test_criterion_11_wavefunction_invariants():
    # Wronskian of the bound/companion pair = 1 within 1e-9 at gamma = 4.
    psi1, psi2 = bound_companion_pair(4.0)
    wronskian = psi1.values * psi2.derivative_values - psi1.derivative_values * psi2.values
    assert float(np.max(np.abs(wronskian - 1.0))) <= 1e-9

    # Bracket constancy spread <= 1e-9 along W_8.
    params = ChainParams(TAU * math.pi, 2.0, TAU, Regime.SCATTERING)
    w = sample_wavefunction(fibonacci_word(8), params, (1.0, 0.3 - 0.2j))
    bracket = scalar_product_samples(w, w)
    assert float(np.max(np.abs(bracket - bracket[0]))) <= 1e-9

    # Delta-jump condition psi' -> psi' - gamma*psi within 1e-8 relative at
    # every interface along W_8 (positions are duplicated there).
    dup = np.nonzero(np.isclose(np.diff(w.positions), 0.0, atol=1e-12))[0]
    assert len(dup) == fibonacci_number(8)
    for i in dup:
        scale = max(1.0, abs(w.values[i]), abs(w.derivative_values[i]))
        jump = w.derivative_values[i + 1] - (
            w.derivative_values[i] - params.gamma * w.values[i]
        )
        assert abs(w.values[i + 1] - w.values[i]) / scale <= 1e-8
        assert abs(jump) / scale <= 1e-8


def test_criterion_12_cli_determinism(tmp_path):
    # Two CLI runs with identical configuration produce byte-identical files.
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "deltachain", "scatter",
                "--word", "fib:m=5", "--gamma", "2.0",
                "--beta-min", "0.3", "--beta-max", "4.0",
                "--steps", "400", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0]) > 0
