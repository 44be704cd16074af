"""deltachain benchmark: four workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {census,scatter,wave,atlas} --seed N \
        --seconds S --trace {0,1} [--report PATH]

Each job runs in a fresh worker process (a closed loop of one caller, one
thread: DELTACHAIN_THREADS is removed from the environment).  Jobs repeat
until ``--seconds`` have passed, at least once.  With ``--trace 0`` the run
also starts fresh interpreters to time set-up, and reports the end-to-end
metrics; with ``--trace 1`` each round runs the job untraced and then traced
and reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  ``--report``
writes every sample and count to a JSON file as well.

The package is imported from ``src/`` next to this directory; without it
the run exits with status 2 before measuring anything.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Interpreter starts per run, after one unmeasured warm-up: half before the
# first job and half after the last, so the samples span the run.
SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys\n"
    "import deltachain, deltachain.cli\n"
    "sys.stdout.write('ready\\n'); sys.stdout.flush()\n"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "B",
    "spectra.self_s": "s",
    "spectra.band_germs.calls": "count",
    "spectra.bound_states.calls": "count",
    "spectra.grid_points": "count",
    "spectra.grid_too_coarse": "count",
    "spectra.escalations": "count",
    "spectra.root_residual_max": "1",
    "spectra.edge_residual_max": "1",
    "spectra.roots_outside_germs": "count",
    "substitution.word_matrix.calls": "count",
    "substitution.word_matrix.self_s": "s",
    "substitution.letters": "count",
    "core.compose.calls": "count",
    "core.cell_matrix.calls": "count",
    "core.compose.s": "s",
    "core.self_s": "s",
    "scattering.s_matrix.calls": "count",
    "scattering.self_s": "s",
    "scattering.unitarity_defect_max": "1",
    "scattering.unitarity_rows_over_1e-12": "count",
    "states.sample_wavefunction.self_s": "s",
    "states.cells": "count",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
# Facts a check reports; workloads that never produce one report 0.
FACT_DEFAULTS = {
    "cli.rows_out": 0,
    "cli.bytes_out": 0,
    "spectra.escalations": 0,
    "spectra.root_residual_max": 0.0,
    "spectra.edge_residual_max": 0.0,
    "spectra.roots_outside_germs": 0,
    "scattering.unitarity_defect_max": 0.0,
    "scattering.unitarity_rows_over_1e-12": 0,
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DELTACHAIN_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(env: dict) -> float:
    """Seconds from starting a fresh interpreter until deltachain is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError("set-up probe could not import deltachain")
    return elapsed


def run_worker(workload: str, inputs: dict, out_dir: str, trace: bool, env: dict):
    """Run one job in a fresh process; returns its result dict or None if it died."""
    os.makedirs(out_dir)
    spec_path = out_dir + ".spec.json"
    result_path = out_dir + ".result.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "inputs": inputs, "out_dir": out_dir, "trace": trace,
                   "result": result_path, "src": SRC}, fh)
    with open(out_dir + ".stderr", "w", encoding="utf-8") as err:
        try:
            code = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT,
                timeout=WORKER_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:  # run() kills and reaps the worker
            code = None
    if code != 0 or not os.path.exists(result_path):
        with open(out_dir + ".stderr", encoding="utf-8") as err:
            sys.stderr.write(err.read()[-2000:])
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def checked_job(workload, inputs, out_dir, trace, env):
    """(result or None, facts) for one job; a dead worker fails all its ops."""
    result = run_worker(workload, inputs, out_dir, trace, env)
    if result is None:
        ops = workloads.ops_per_job(workload)
        return None, {"attempted": ops, "failed": ops}
    return result, workloads.check(workload, inputs, out_dir, result["job"])


def same_outputs(dir_a: str, dir_b: str) -> bool:
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return False
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names_a, shallow=False)
    return not mismatch and not errors


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    env = child_env()
    inputs = workloads.make_inputs(workload, seed)
    report = {"workload": workload, "seed": seed, "inputs": inputs, "trace": trace,
              "attempted": 0, "failed": 0, "rounds": []}
    samples = {}
    if not trace:
        setup_seconds(env)  # warm-up: byte-compiles the package, fills the page cache
        samples["setup_s"] = [setup_seconds(env) for _ in range(SETUP_SAMPLES // 2)]
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        n += 1
        plain_dir = os.path.join(run_dir, f"job{n}")
        plain, facts = checked_job(workload, inputs, plain_dir, False, env)
        rnd = {"untraced": plain and {k: plain[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")},
               "facts": facts}
        report["attempted"] += facts["attempted"]
        report["failed"] += facts["failed"]
        if plain is not None:
            samples.setdefault("wall_s", []).append(plain["wall_s"])
            samples.setdefault("peak_rss_mb", []).append(plain["peak_rss_mb"])
            samples.setdefault("process.cpu_s", []).append(plain["cpu_s"])
        if trace:
            traced_dir = os.path.join(run_dir, f"job{n}-traced")
            traced, tfacts = checked_job(workload, inputs, traced_dir, True, env)
            identical = same_outputs(plain_dir, traced_dir)
            if not identical:
                tfacts["failed"] = tfacts["attempted"]
            report["attempted"] += tfacts["attempted"]
            report["failed"] += tfacts["failed"]
            rnd.update(traced=traced and traced["trace"], traced_facts=tfacts, identical_outputs=identical)
            if traced is not None and plain is not None:
                layer = dict(FACT_DEFAULTS)
                layer.update({k: v for k, v in tfacts.items() if k in PER_LAYER_UNITS})
                layer.update(traced["trace"])
                layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
                for name, value in layer.items():
                    samples.setdefault(name, []).append(value)
            shutil.rmtree(traced_dir, ignore_errors=True)
        shutil.rmtree(plain_dir, ignore_errors=True)
        report["rounds"].append(rnd)
        if time.perf_counter() >= deadline:
            break
    if not trace:
        samples["setup_s"] += [setup_seconds(env) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    report["samples"] = samples
    return report


def metrics_of(report: dict) -> dict:
    units = PER_LAYER_UNITS if report["trace"] else END_TO_END_UNITS
    samples = report["samples"]
    missing = [name for name in units if name not in samples]
    if missing:
        raise RuntimeError(f"no successful job measured {', '.join(missing)}")
    return {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", help="also write every sample and count to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deltachain", "__init__.py")):
        print(f"deltachain sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    metrics = metrics_of(report)
    report["metrics"] = metrics
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload={args.workload} seed={args.seed} inputs={json.dumps(report['inputs'])}")
    print(f"rounds={len(report['rounds'])} ops={attempted} failed={failed} fail_frac={failed / attempted:.6g}")
    for name in metrics:
        q1, med, q3 = quartiles(report["samples"][name])
        n = len(report["samples"][name])
        print(f"  {name:38s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={n} {metrics[name]['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
