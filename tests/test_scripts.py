"""Smoke tests: each script in scripts/ runs to completion on small arguments."""

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import numpy as np

from eigenmps import cli
from test_cli import base_config, write_json

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    return done.stdout


def test_planted_recovery_script():
    out = run_script("planted_recovery.py", "--n", "3", "--restarts", "1", "--max-iters", "30")
    overlap = re.search(r"overlap with planted vector: ([0-9.]+)", out)
    assert overlap and 0.0 <= float(overlap.group(1)) <= 1.0 + 1e-9
    assert re.search(r"^k=1: loss=\S+ certificate=[0-9.]+", out, re.MULTILINE)
    assert "recovered MPS bond dimensions" in out


def test_sat_ground_state_script():
    out = run_script("sat_ground_state.py", "--vars", "4")
    certificate = re.search(r"certificate: ([0-9.]+)", out)
    assert certificate and float(certificate.group(1)) >= 1.0 - 1e-6
    counts = re.search(r"violated clauses: (\d+) from the eigenphase, (\d+) by enumeration", out)
    assert counts and counts.group(1) == counts.group(2)


def test_record_digests_script_ignores_what_differs_between_two_runs(tmp_path):
    # one config run twice: other output path, wall times and timestamp, the same digest
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    records = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for record in records:
        assert cli.main(["run", config_path, "--output", record]) == 0
    lines = run_script("record_digests.py", *records).splitlines()
    assert [line.split()[0] for line in lines] == records
    digests = {line.split()[1] for line in lines}
    assert len(digests) == 1 and re.fullmatch(r"[0-9a-f]{64}", digests.pop())


STUB_RUN = """
import json, sys
args = sys.argv[1:]
if args[args.index("--workload") + 1] == "tfi-shots" and args[args.index("--trace") + 1] == "1":
    sys.exit("no traced operation completed")
print("a progress line")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "argv": args}))
"""


def test_bench_snapshot_keeps_every_run_the_machine_and_the_digests(tmp_path, monkeypatch):
    # a stub bench/run.py under a patched root: one run of the four exits 1 and prints no JSON
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(STUB_RUN)
    write_json(tmp_path / "BENCHMARK.json", {"run_seconds": 3,
                                             "workloads": [{"name": "sat-product"}, {"name": "tfi-shots"}]})
    spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    monkeypatch.setattr(snapshot, "ROOT", str(tmp_path))
    stub_digests = types.SimpleNamespace(bench_digests=lambda seed: iter([("sat-product/0", f"d{seed}")]))
    monkeypatch.setitem(sys.modules, "record_digests", stub_digests)
    assert snapshot.main(["--label", "stub"]) == 0
    out = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert out["label"] == "stub" and out["seed"] == 1 and "commit" in out
    assert out["machine"]["cpu_count"] == os.cpu_count() and out["machine"]["numpy"] == np.__version__
    assert sorted(out["machine"]["blas_threads"]) == ["MKL_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS"]
    runs = [(r["workload"], r["trace"], r["exit_code"]) for r in out["runs"]]
    assert runs == [("sat-product", 0, 0), ("sat-product", 1, 0), ("tfi-shots", 0, 0), ("tfi-shots", 1, 1)]
    for run in out["runs"][:3]:
        assert run["result"]["correct"] is True and "stderr_tail" not in run
        assert run["command"] == [sys.executable, "bench/run.py", *run["result"]["argv"]]
        assert run["result"]["argv"] == ["--workload", run["workload"], "--seed", "1", "--seconds", "3",
                                         "--trace", str(run["trace"])]
    assert out["runs"][3]["result"] is None and "no traced operation" in out["runs"][3]["stderr_tail"]
    assert out["digests"] == {"sat-product/0": "d1"}
