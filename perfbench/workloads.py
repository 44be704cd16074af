"""The four benchmark workloads: inputs from a seed, the job, and its check.

``make_inputs`` runs in the harness, ``run_job`` in a fresh worker process
(the workload process) and ``check`` back in the harness, so checking never
adds to the workload's time or memory.  Every job writes its results to
files in its output directory; a traced and an untraced job of the same
inputs must write identical bytes.

An op is one census of one order m (census), one output row (scatter,
wave) or one band_germs query (atlas).  ``check`` returns how many ops were
attempted and how many failed, plus the facts the metrics report.
"""

import csv
import json
import math
import os
import random

import numpy as np

CENSUS_GAMMA = 10.0
CENSUS_RANGE = (0.05, 6.0)
CENSUS_ORDERS = (3, 4, 5, 6)
LADDER_START = 2000
LADDER_CAP = 2048000  # the acceptance gate's cap: x4 from 2,000 steps
CERT_STEP = 1e-9  # roots and edges are certified to within this beta distance

SCATTER_STEPS = 20000
SCATTER_WIDTH = 5.95  # width of the default beta window (0.05, 6.0)
UNITARITY_TOL = 1e-10  # the acceptance gate's S-matrix unitarity tolerance
UNITARITY_STRICT = 1e-12  # rows above this are counted, not failed

WAVE_ORDER = 19
WAVE_GRID = 64  # samples per cell, the sample_wavefunction default
BRACKET_TOL = 1e-9  # relative spread of the indefinite bracket along the chain

ATLAS_STEPS = 401
ATLAS_BETA_MIN, ATLAS_BETA_MAX = 0.05, 6.0  # the CLI's default beta window
ATLAS_HALF_SPAN = 6.0
ATLAS_JITTER = 5e-5  # endpoints are -(6 + eps) and 6 + eps, |eps| <= this
ATLAS_REL_TOL = 1e-8
ATLAS_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "atlas_edges.csv")

WORKLOADS = ("census", "scatter", "wave", "atlas")


def fibonacci(m: int) -> int:
    a, b = 1, 1
    for _ in range(m - 2):
        a, b = b, a + b
    return b


def ops_per_job(workload: str) -> int:
    return {
        "census": len(CENSUS_ORDERS),
        "scatter": SCATTER_STEPS + 1,
        "wave": 2 * (1 + WAVE_GRID * fibonacci(WAVE_ORDER)),
        "atlas": 4 * ATLAS_STEPS,  # gammas x cells x regimes
    }[workload]


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        orders = list(CENSUS_ORDERS)
        rng.shuffle(orders)
        return {"orders": orders}
    if workload == "scatter":
        beta_min = rng.uniform(0.05, 0.55)
        return {"gamma": rng.uniform(3.5, 4.5), "beta_min": beta_min, "beta_max": beta_min + SCATTER_WIDTH}
    if workload == "wave":
        # tau*pi lies inside the S-cell scattering band for -14.8 < gamma < 6.9
        return {"gamma": rng.uniform(1.0, 3.0)}
    if workload == "atlas":
        return {"eps": rng.uniform(-ATLAS_JITTER, ATLAS_JITTER)}
    raise ValueError(f"unknown workload {workload!r}")


def cli_invocations(workload: str, inputs: dict, out_dir: str) -> list[list[str]]:
    """argv lists for ``deltachain`` (without the program name)."""
    if workload == "scatter":
        return [[
            "scatter", "--word", "fib:m=12", "--steps", str(SCATTER_STEPS),
            "--gamma", repr(inputs["gamma"]),
            "--beta-min", repr(inputs["beta_min"]), "--beta-max", repr(inputs["beta_max"]),
            "--out", os.path.join(out_dir, "scatter.csv"),
        ]]
    if workload == "wave":
        return [
            ["wave", "--word", f"fib:m={WAVE_ORDER}", "--gamma", repr(inputs["gamma"]),
             "--format", fmt, "--out", os.path.join(out_dir, f"wave.{fmt}")]
            for fmt in ("csv", "json")
        ]
    if workload == "atlas":
        lo, hi = atlas_range(inputs["eps"])
        return [[
            "atlas", "--gamma-steps", str(ATLAS_STEPS),
            "--gamma-min", repr(lo), "--gamma-max", repr(hi),
            "--out", os.path.join(out_dir, "atlas.csv"),
        ]]
    raise ValueError(f"{workload!r} does not run through the CLI")


def atlas_range(eps: float) -> tuple[float, float]:
    return -(ATLAS_HALF_SPAN + eps), ATLAS_HALF_SPAN + eps


# -- jobs (run inside the worker process) ------------------------------------


def run_job(workload: str, inputs: dict, out_dir: str) -> dict:
    """Run one job; returns what the check needs besides the output files."""
    if workload == "census":
        return _census_job(inputs, out_dir)
    from deltachain import cli

    exits = []
    for argv in cli_invocations(workload, inputs, out_dir):
        try:
            exits.append(cli.main(argv))
        except Exception as err:  # an untyped failure fails the invocation's ops
            exits.append(f"{type(err).__name__}: {err}")
    return {"exits": exits}


def _census_job(inputs: dict, out_dir: str) -> dict:
    import deltachain as dc
    from deltachain.core import TAU

    results, escalations = {}, 0
    for m in inputs["orders"]:
        word = dc.fibonacci_word(m)
        f_m = dc.fibonacci_number(m)
        steps = LADDER_START
        try:
            while True:
                try:
                    germs = dc.band_germs(word, CENSUS_GAMMA, TAU, CENSUS_RANGE, steps)
                    roots = dc.bound_states(word, CENSUS_GAMMA, TAU, CENSUS_RANGE, steps)
                    if (len(germs) == f_m and len(roots) == f_m) or steps >= LADDER_CAP:
                        break
                except dc.GridTooCoarse:
                    if steps >= LADDER_CAP:
                        raise
                steps *= 4
                escalations += 1
        except Exception as err:
            results[m] = {"error": f"{type(err).__name__}: {err}"}
            continue
        results[m] = {
            "steps": steps,
            "germs": [
                [g.beta_lo, g.beta_hi, g.edge_kind_lo.value, g.edge_kind_hi.value, g.clipped_lo, g.clipped_hi]
                for g in germs
            ],
            "roots": [r.beta_star for r in roots],
        }
    with open(os.path.join(out_dir, "census.json"), "w", encoding="utf-8") as fh:
        json.dump({str(m): results[m] for m in sorted(results)}, fh)
    return {"escalations": escalations}


# -- checks (run in the harness) ----------------------------------------------


def check(workload: str, inputs: dict, out_dir: str, job: dict) -> dict:
    """Verify a job's outputs; returns attempted, failed and reported facts."""
    if workload == "census":
        return _check_census(out_dir, job)
    files = [argv[argv.index("--out") + 1] for argv in cli_invocations(workload, inputs, out_dir)]
    facts = {
        "cli.bytes_out": sum(os.path.getsize(p) for p in files if os.path.exists(p)),
    }
    if workload == "scatter":
        facts.update(_check_scatter(inputs, files[0], job["exits"][0]))
    elif workload == "wave":
        facts.update(_check_wave(files, job["exits"]))
    else:
        facts.update(_check_atlas(inputs, files[0], job["exits"][0]))
    return facts


def _certify(f, beta: float) -> tuple[float, bool]:
    """(|f(beta)|, whether f has a sign change within CERT_STEP of beta and the
    Newton step |f/f'| at beta is at most CERT_STEP)."""
    lo, mid, hi = f(beta - CERT_STEP), f(beta), f(beta + CERT_STEP)
    slope = abs(hi - lo) / (2 * CERT_STEP)
    ok = (lo > 0) != (hi > 0) and abs(mid) <= slope * CERT_STEP
    return abs(mid), ok


def _check_census(out_dir: str, job: dict) -> dict:
    import deltachain as dc
    from deltachain.core import TAU

    with open(os.path.join(out_dir, "census.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    failed, root_res, edge_res, outside = 0, 0.0, 0.0, 0
    for m in CENSUS_ORDERS:
        rec = results.get(str(m), {"error": "missing"})
        f_m = fibonacci(m)
        if "error" in rec or len(rec["germs"]) != f_m or len(rec["roots"]) != f_m:
            failed += 1
            continue
        word = dc.fibonacci_word(m)

        def matrix(beta):
            return dc.word_matrix(word, dc.ChainParams(beta, CENSUS_GAMMA, TAU))

        ok = True
        for beta in rec["roots"]:
            res, good = _certify(lambda b: matrix(b).d.real, beta)
            root_res, ok = max(root_res, res), ok and good
            if not any(lo - 1e-9 <= beta <= hi + 1e-9 for lo, hi, *_ in rec["germs"]):
                outside += 1  # criterion 5's encapsulation clause; reported, not failed
        for lo, hi, kind_lo, kind_hi, clipped_lo, clipped_hi in rec["germs"]:
            for beta, kind, clipped in ((lo, kind_lo, clipped_lo), (hi, kind_hi, clipped_hi)):
                if clipped:
                    continue
                target = 1.0 if kind == "XPlusOne" else -1.0
                res, good = _certify(lambda b: matrix(b).x.real - target, beta)
                edge_res, ok = max(edge_res, res), ok and good
        failed += not ok
    return {
        "attempted": len(CENSUS_ORDERS),
        "failed": failed,
        "spectra.escalations": job["escalations"],
        "spectra.root_residual_max": root_res,
        "spectra.edge_residual_max": edge_res,
        "spectra.roots_outside_germs": outside,
    }


def _read_csv(path: str, skip: int) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[skip:]


def _floats(rows) -> np.ndarray:
    return np.array([[float(t) if t else math.nan for t in row] for row in rows], dtype=float)


def _check_scatter(inputs: dict, path: str, exit_code) -> dict:
    expected = ops_per_job("scatter")
    facts = {"attempted": expected, "failed": expected, "cli.rows_out": 0,
             "scattering.unitarity_defect_max": 0.0, "scattering.unitarity_rows_over_1e-12": 0}
    if exit_code != 0 or not os.path.exists(path):
        return facts
    a = _floats(_read_csv(path, 1))
    facts["cli.rows_out"] = len(a)
    if a.ndim != 2 or a.shape[1] != 11:
        return facts
    n = min(len(a), expected)
    a = a[:n]
    spp, spm = a[:, 1] + 1j * a[:, 2], a[:, 3] + 1j * a[:, 4]
    smp, smm = a[:, 5] + 1j * a[:, 6], a[:, 7] + 1j * a[:, 8]
    S = np.stack([np.stack([spp, spm], -1), np.stack([smp, smm], -1)], -2)
    defect = np.abs(S @ np.conj(np.swapaxes(S, -1, -2)) - np.eye(2)).max(axis=(1, 2))
    betas = np.linspace(inputs["beta_min"], inputs["beta_max"], expected)[:n]
    good = (defect <= UNITARITY_TOL) & (a[:, 0] == betas)
    facts["failed"] = expected - int(np.count_nonzero(good))
    facts["scattering.unitarity_defect_max"] = float(np.nanmax(defect)) if n else 0.0
    facts["scattering.unitarity_rows_over_1e-12"] = int(np.count_nonzero(defect > UNITARITY_STRICT))
    return facts


def _check_wave(paths: list[str], exits: list) -> dict:
    expected = ops_per_job("wave") // 2
    csv_path, json_path = paths
    tables = [None, None]
    if exits[0] == 0 and os.path.exists(csv_path):
        tables[0] = _floats(_read_csv(csv_path, 1))
    if exits[1] == 0 and os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        tables[1] = np.array([[math.nan if v is None else v for v in row] for row in rows], dtype=float)
    rows_out = sum(len(t) for t in tables if t is not None)
    good = []
    for t in tables:
        if t is None or t.shape != (expected, 6):
            good.append(np.zeros(expected, dtype=bool))
            continue
        psi, dpsi = t[:, 1] + 1j * t[:, 2], t[:, 3] + 1j * t[:, 4]
        bracket = -1j * (np.conj(psi) * dpsi - np.conj(dpsi) * psi)
        spread = np.abs(bracket - bracket[0]) / max(1.0, abs(bracket[0]))
        good.append(spread <= BRACKET_TOL)
    if all(t is not None and t.shape == (expected, 6) for t in tables):
        same = np.all((tables[0] == tables[1]) | (np.isnan(tables[0]) & np.isnan(tables[1])), axis=1)
        good = [g & same for g in good]
    return {
        "attempted": 2 * expected,
        "failed": 2 * expected - int(sum(np.count_nonzero(g) for g in good)),
        "cli.rows_out": rows_out,
    }


def load_atlas_reference() -> dict:
    """{(gamma_index, cell, regime): [(edge_kind, beta at -J, 0, +J), ...]}."""
    ref = {}
    for idx, cell, regime, kind, b_minus, b_zero, b_plus in _read_csv(ATLAS_REFERENCE, 2):
        ref.setdefault((int(idx), cell, regime), []).append(
            (kind, float(b_minus), float(b_zero), float(b_plus))
        )
    return ref


def atlas_queries(path: str, eps: float):
    """Group atlas rows by band_germs query; returns (queries, stray rows, commuting rows).

    A query is (gamma_index, cell, regime); scattering edges carry negative beta.
    """
    gammas = np.linspace(*atlas_range(eps), ATLAS_STEPS)
    index = {float(g): i for i, g in enumerate(gammas)}
    queries, stray, commuting = {}, 0, []
    for gamma, cell, kind, beta in _read_csv(path, 2):
        if kind == "commuting_line":
            commuting.append(float(beta))
            continue
        b = float(beta)
        i = index.get(float(gamma))
        if i is None:
            stray += 1
            continue
        regime = "scattering" if b < 0 else "bound"
        queries.setdefault((i, cell, regime), []).append((kind, abs(b)))
    return queries, stray, commuting


def _check_atlas(inputs: dict, path: str, exit_code) -> dict:
    import deltachain as dc
    from deltachain.core import TAU, Regime

    attempted = ops_per_job("atlas")
    facts = {"attempted": attempted, "failed": attempted, "cli.rows_out": 0, "spectra.edge_residual_max": 0.0}
    if exit_code != 0 or not os.path.exists(path):
        return facts
    eps = inputs["eps"]
    queries, stray, commuting = atlas_queries(path, eps)
    facts["cli.rows_out"] = sum(len(v) for v in queries.values()) + stray + len(commuting)
    ref = load_atlas_reference()
    # quadratic interpolation in eps through the reference made at -J, 0, +J
    t = eps / ATLAS_JITTER
    gammas = np.linspace(*atlas_range(eps), ATLAS_STEPS)
    failed, edge_res = 0, 0.0
    for i in range(ATLAS_STEPS):
        for cell in ("S", "L"):
            for regime in ("bound", "scattering"):
                got = queries.get((i, cell, regime), [])
                want = ref.get((i, cell, regime), [])
                ok = len(got) == len(want)
                for (kind, beta), (rkind, bm, b0, bp) in zip(got, want):
                    expect = b0 + t * (bp - bm) / 2 + t * t * (bp - 2 * b0 + bm) / 2
                    ok = ok and kind == rkind and abs(beta - expect) <= ATLAS_REL_TOL * abs(expect)
                    if beta in (ATLAS_BETA_MIN, ATLAS_BETA_MAX):
                        continue  # clipped at the scan boundary, not a refined edge
                    params = dc.ChainParams(beta, float(gammas[i]), TAU, Regime(regime))
                    x = dc.word_matrix(dc.Word(cell), params).x.real
                    edge_res = max(edge_res, abs(abs(x) - 1.0))
                failed += not ok
    failed += stray
    want_lines = []
    p = 1
    while TAU * p * math.pi <= ATLAS_BETA_MAX:
        want_lines.append(-TAU * p * math.pi)
        p += 1
    failed += commuting != want_lines
    facts["failed"] = min(failed, attempted)
    facts["spectra.edge_residual_max"] = edge_res
    return facts

