#!/usr/bin/env python3
"""Print a SHA-256 digest of each run record, to check that two commits write the same records.

Without arguments it builds the benchmark's instances through bench/workloads.py,
sat-product seed S instances 0-5 and tfi-shots seed S instances 0-3, and runs each
through `cli.main_run`; given record paths, it digests those files instead.  The
digest is of `cli.dumps_json(record)` with the fields that differ between two runs
of one config removed: `timestamp`, `per_k[*].wall_time_s`, `config.output_path`
and `config.oracle.path`.  BLAS runs on one thread, as in bench/run.py: the
tfi-shots records differ in their last bits between one and two threads.

    python3 scripts/record_digests.py [--seed S]
    python3 scripts/record_digests.py record-a.json record-b.json
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from eigenmps import cli  # noqa: E402

INSTANCES = {"sat-product": range(6), "tfi-shots": range(4)}


def digest(record: dict) -> str:
    """SHA-256 of the record's JSON text without its run-dependent fields."""
    record = copy.deepcopy(record)
    del record["timestamp"]
    for entry in record["per_k"]:
        del entry["wall_time_s"]
    del record["config"]["output_path"]
    record["config"]["oracle"].pop("path", None)
    return hashlib.sha256(cli.dumps_json(record).encode()).hexdigest()


def bench_digests(seed: int):
    """(name, digest) of each benchmark instance's record, run in a temporary directory."""
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        for name, indices in INSTANCES.items():
            workload = workloads.WORKLOADS[name]()
            for index in indices:
                inst = workload.make(seed, index, workdir)
                with open(inst.config_path, encoding="utf-8") as fh:
                    config = cli.config_from_dict(json.load(fh))
                yield f"{name}/{index}", digest(cli.main_run(config))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", help="record files to digest instead of the bench runs")
    parser.add_argument("--seed", type=int, default=1, help="workload seed of the bench instances")
    args = parser.parse_args()
    if args.records:
        for path in args.records:
            with open(path, encoding="utf-8") as fh:
                print(f"{path} {digest(json.load(fh))}")
    else:
        for name, value in bench_digests(args.seed):
            print(f"{name} {value}", flush=True)


if __name__ == "__main__":
    main()
