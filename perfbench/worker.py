"""The workload process: one fresh interpreter per job.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds the workload, its inputs, the output directory, whether to trace
and where to write the result.  Importing deltachain is set-up and is not
timed; the job's wall time, CPU time and the process's peak resident memory
are written to the result file.
"""

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory.

    VmHWM belongs to the address space made at exec, so unlike ru_maxrss it
    does not inherit the resident size of the parent that started the worker.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import deltachain
    import deltachain.cli  # noqa: F401  (CLI users pay this import too)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(deltachain.__file__).startswith(src + os.sep):
        print(f"deltachain imported from {deltachain.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import run_job

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    job = run_job(spec["workload"], spec["inputs"], spec["out_dir"])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "job": job,
        "trace": tracer.metrics(wall) if tracer is not None else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
