"""Tests of the benchmark itself: references, output checks and input generation.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from eigenmps import cli, oracle, tensor  # noqa: E402
from eigenmps.simulator import Statevector  # noqa: E402
from spans import PROBE_LAYERS, Tracer  # noqa: E402


class SmallSat(workloads.SatProduct):
    n = 5
    num_clauses = 8


class SmallTfi(workloads.TfiShots):
    n = 4
    k_max = 1
    shots = 64
    optimizer = {"method": None, "max_iters": 10, "tol_loss": 0.0, "restarts": 1}


def run_small(workload, tmp_path, seed=3):
    inst = workload.make(seed, 0, str(tmp_path))
    probe = Tracer(PROBE_LAYERS)
    with probe:
        op = run.run_operation(workload, inst, probe, repeat_setup=False)
    assert op.error is None, op.error
    with open(inst.record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return inst, op, record


def test_clause_counts_match_program():
    sat = SmallSat()
    clauses = sat.clauses(7, 0)
    program = oracle.clause_violation_counts(oracle.SatInstance(sat.n, tuple(clauses)))
    ours = [reference.violated_clauses(clauses, sat.n, x) for x in range(2**sat.n)]
    assert program.tolist() == ours
    q = oracle.from_sat_instance(oracle.SatInstance(sat.n, tuple(clauses)), 0.3)
    assert np.allclose(reference.sat_phases(clauses, sat.n, 0.3), q.phases, atol=1e-14)


def test_tfi_operator_matches_program():
    h = reference.tfi_sparse(4, 0.7, 1.3)
    assert np.allclose(h.toarray(), cli._tfi_hamiltonian(4, 0.7, 1.3), atol=1e-14)
    q = oracle.from_hamiltonian_evolution(cli._tfi_hamiltonian(4, 0.7, 1.3), 0.9)
    psi = np.random.default_rng(0).normal(size=16) + 0j
    assert np.allclose(reference.tfi_evolve(h, 0.9, psi), q.matrix @ psi, atol=1e-10)


def test_mps_contraction_matches_program():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    mps = tensor.statevector_to_mps(Statevector(5, amps / np.linalg.norm(amps)))
    exported = tensor.mps_to_json(mps)
    assert np.allclose(
        reference.contract_mps(exported), tensor.mps_to_statevector(mps).amplitudes, atol=1e-14
    )


@pytest.mark.parametrize("workload", [SmallSat(), SmallTfi()], ids=lambda w: w.name)
def test_clean_record_passes(workload, tmp_path):
    inst, op, record = run_small(workload, tmp_path)
    assert workloads.check_record(workload, inst, record, op.analysis, op.captured) == []


def test_shot_budget_is_counted(tmp_path):
    tfi = SmallTfi()
    _, op, _ = run_small(tfi, tmp_path)
    assert op.captured["shot_evaluations"] == tfi.evaluation_budget == 2 * 22


@pytest.mark.parametrize("workload", [SmallSat(), SmallTfi()], ids=lambda w: w.name)
def test_certificate_off_by_1e6_is_rejected(workload, tmp_path):
    inst, op, record = run_small(workload, tmp_path)
    bad = copy.deepcopy(record)
    workloads.best_entry(bad)["certificate"] -= 1e-6
    errors = workloads.check_record(workload, inst, bad, op.analysis, op.captured)
    assert any("|<psi|Q|psi>|^2" in e for e in errors)


def test_bond_dimension_above_rank_is_rejected(tmp_path):
    sat = SmallSat()
    inst, op, record = run_small(sat, tmp_path)
    bad = copy.deepcopy(record)
    # widen the first bond with a zero column/row: same state, bond 2 > 2^0
    first, second = bad["mps"]["tensors"][0], bad["mps"]["tensors"][1]
    for part in ("re", "im"):
        first[part] = np.concatenate(
            [np.asarray(first[part]).reshape(1, 2, 1), np.zeros((1, 2, 1))], axis=2
        ).ravel().tolist()
        left, phys, right = second["shape"]
        second[part] = np.concatenate(
            [np.asarray(second[part]).reshape(left, phys, right), np.zeros((1, phys, right))], axis=0
        ).ravel().tolist()
    first["shape"], second["shape"] = [1, 2, 2], [2, 2, second["shape"][2]]
    bad["mps"]["bond_dims"][0] = 2
    errors = workloads.check_record(sat, inst, bad, op.analysis, op.captured)
    assert any("exceed 2^0" in e for e in errors)


def test_decreasing_certificates_are_rejected(tmp_path):
    tfi = SmallTfi()
    inst, op, record = run_small(tfi, tmp_path)
    bad = copy.deepcopy(record)
    bad["per_k"][0]["certificate"] = bad["per_k"][1]["certificate"] + 1e-6
    errors = workloads.check_record(tfi, inst, bad, op.analysis, op.captured)
    assert any("decrease in k" in e for e in errors)


def test_wrong_shot_count_is_rejected(tmp_path):
    tfi = SmallTfi()
    inst, op, record = run_small(tfi, tmp_path)
    captured = {**op.captured, "shot_evaluations": op.captured["shot_evaluations"] - 1}
    errors = workloads.check_record(tfi, inst, record, op.analysis, captured)
    assert any("fixed budget" in e for e in errors)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_fixed_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]()

    def snapshot(seed):
        for i in range(3):
            workload.make(seed, i, str(tmp_path))
        return {f: (tmp_path / f).read_bytes() for f in sorted(os.listdir(tmp_path))}

    first = snapshot(5)
    assert snapshot(5) == first
    assert snapshot(6) != first


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: s[0] for name, s in run.PER_LAYER.items()} | run.ISOLATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
