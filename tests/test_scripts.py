"""Smoke tests: each script in scripts/ runs to completion on small arguments."""

import os
import pathlib
import re
import subprocess
import sys

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
