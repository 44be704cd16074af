"""Tests of the benchmark itself: traced runs, seeds and the missing-source exit.

Run from the repository root (about three minutes; the census pair alone
takes about a minute):

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# One self-time metric per layer; with trace.unattributed_s they partition the traced wall time.
SELF_TIMES = (
    "cli.self_s",
    "spectra.self_s",
    "substitution.word_matrix.self_s",
    "core.self_s",
    "scattering.self_s",
    "states.sample_wavefunction.self_s",
)


def bench(tmp_path, workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    report = tmp_path / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--report", str(report)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc, report


def load(proc, report):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(report.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_adds_up(tmp_path, workload):
    last, report = load(*bench(tmp_path, workload, 7, 1))
    assert last["correct"] and last["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(last["metrics"]) == {m["name"] for m in declared}

    (rnd,) = report["rounds"]
    assert rnd["identical_outputs"], "traced job wrote different bytes"
    traced = rnd["traced"]
    self_total = sum(traced[name] for name in SELF_TIMES)
    assert all(traced[name] >= 0.0 for name in SELF_TIMES)
    assert traced["trace.unattributed_s"] >= -1e-6
    assert self_total + traced["trace.unattributed_s"] == pytest.approx(traced["trace.wall_s"], rel=1e-9)
    assert last["metrics"]["trace.overhead_s"]["value"] == pytest.approx(
        traced["trace.wall_s"] - rnd["untraced"]["wall_s"]
    )


def test_seed_changes_inputs_but_not_work_counts(tmp_path):
    counts = ("substitution.letters", "cli.rows_out", "spectra.band_germs.calls")
    runs = [load(*bench(tmp_path, "atlas", seed, 1)) for seed in (1, 2)]
    (_, r1), (_, r2) = runs
    again, r1_again = load(*bench(tmp_path, "atlas", 1, 1))
    assert r1["inputs"] != r2["inputs"]
    assert r1["inputs"] == r1_again["inputs"]
    for name in counts:
        values = {last["metrics"][name]["value"] for last, _ in runs} | {again["metrics"][name]["value"]}
        assert len(values) == 1, f"{name} differs between seeds: {values}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
    seeds = range(10)
    assert len({json.dumps(workloads.make_inputs(workload, s)) for s in seeds}) > 1


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, _ = bench(tmp_path, "atlas", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
