#!/usr/bin/env python3
"""Run the benchmark once per workload and trace mode, and write BENCH_<label>.json at the root.

For each workload that BENCHMARK.json lists and each --trace in {0, 1}, it runs
`bench/run.py --workload W --seed 1 --seconds R --trace T`, with R the
`run_seconds` of BENCHMARK.json, from the repository root under this
interpreter, and keeps the JSON object that bench/run.py prints as its last
stdout line.  Every run is kept with the command as run and its exit code; one
that exits non-zero or prints no JSON has `result: null` and the tail of its
stderr.  The file also states the machine (CPU model, vCPU count, Python, numpy
and scipy versions, the BLAS thread variables of the calling environment;
bench/run.py pins BLAS to one thread), the commit, and the ten record digests
of scripts/record_digests.py, so that two snapshots show whether two commits
write the same records.

    python3 scripts/bench_snapshot.py --label baseline
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 1  # the workload seed of every run and of the digests
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str | None:
    """The first `model name` of /proc/cpuinfo, or None where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def commit() -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def bench_run(workload: str, seconds: int, trace: int) -> dict:
    """One bench/run.py subprocess: its command, exit code, wall time and last-line JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    run = {"workload": workload, "trace": trace, "command": cmd,
           "exit_code": done.returncode, "wall_s": round(time.perf_counter() - start, 3)}
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    run["result"] = result if isinstance(result, dict) else None
    if done.returncode != 0 or run["result"] is None:
        run["stderr_tail"] = done.stderr[-2000:]
    return run


def bench_digests() -> dict:
    """{instance: digest} from scripts/record_digests.py, which pins BLAS to one thread on import."""
    import record_digests  # so numpy must not be loaded before this import

    return dict(record_digests.bench_digests(SEED))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"--label must be letters, digits, '.', '_' or '-', got {args.label!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    snapshot = {"label": args.label, "commit": commit(), "machine": machine(), "seed": SEED,
                "runs": []}
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            print(f"bench/run.py --workload {workload} --trace {trace} ...", file=sys.stderr, flush=True)
            snapshot["runs"].append(bench_run(workload, benchmark["run_seconds"], trace))
    snapshot["digests"] = bench_digests()
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
