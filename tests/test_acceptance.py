"""End-to-end acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
Sweep-based criteria share session fixtures so the monotone-sequence check
reuses the exact runs it audits.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import planted_recovery_instance, random_3sat, random_state, random_unitary
from eigenmps import cli
from eigenmps.ansatz import (
    build_mps_ansatz,
    cnot_lower_bound,
    ebit_bound,
    prepare_state,
)
from eigenmps.oracle import apply as oracle_apply, default_sat_time, from_dense_matrix, from_sat_instance
from eigenmps.simulator import (
    DenseUnitary,
    QubitWindow,
    Statevector,
    apply_block,
    inner_product,
    zero_state,
)
from eigenmps.tensor import (
    entanglement_ebits,
    mps_to_statevector,
    schmidt_spectrum,
    statevector_to_mps,
    truncate,
)
from eigenmps.vqa import OptimizerConfig, certificate, loss_gradient_fd, run_sweep


def report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def brute_force_unsat_count(sat, x: int) -> int:
    count = 0
    for clause in sat.clauses:
        satisfied = False
        for lit in clause:
            bit = (x >> (sat.num_vars - abs(lit))) & 1
            if (lit > 0 and bit == 1) or (lit < 0 and bit == 0):
                satisfied = True
                break
        if not satisfied:
            count += 1
    return count


@pytest.fixture(scope="module")
def sat_runs():
    """20 random 3-SAT sweeps at k_max = 0 (criterion 2, reused by 4)."""
    runs = []
    started = time.perf_counter()
    for i in range(20):
        sat = random_3sat(i)
        t = default_sat_time(len(sat.clauses))
        q = from_sat_instance(sat, t)
        config = OptimizerConfig(max_iters=500, tol_loss=1e-14, restarts=5, seed=600 + i)
        result = run_sweep(0, q, config, cert_tol=1e-7)
        runs.append((sat, t, q, result))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def planted_runs():
    """10 planted-oracle sweeps with warm start (criterion 3, reused by 4)."""
    runs = []
    started = time.perf_counter()
    for i in range(10):
        q = planted_recovery_instance(i)
        config = OptimizerConfig(
            method="fd-gradient-descent",
            max_iters=300,
            tol_loss=1e-12,
            restarts=10,
            seed=4000 + i,
        )
        result = run_sweep(1, q, config, cert_tol=1e-4)
        runs.append((q, result))
    return runs, time.perf_counter() - started


def test_criterion_01_certificate_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    circuit = build_mps_ansatz(4, 1)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
        q = from_dense_matrix(random_unitary(rng, 16))
        via_pipeline = certificate(circuit, theta, q)
        prepared = prepare_state(circuit, theta)
        direct = abs(inner_product(prepared, oracle_apply(q, prepared))) ** 2
        worst = max(worst, abs(via_pipeline - direct))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-12 and elapsed < 10,
           f"max |pipeline - direct| = {worst:.2e} over 100 pairs in {elapsed:.1f}s")


def test_criterion_02_sat_eigenvector_recovery(sat_runs):
    runs, elapsed = sat_runs
    failures = []
    for i, (sat, t, q, result) in enumerate(runs):
        entry = result.per_k[0]
        state = prepare_state(build_mps_ansatz(6, 0), entry.theta)
        x_hat = int(np.argmax(np.abs(state.amplitudes)))
        from_phase = round(float((-np.angle(q.phases[x_hat])) % (2 * np.pi)) / t)
        if entry.certificate < 1 - 1e-6 or from_phase != brute_force_unsat_count(sat, x_hat):
            failures.append(i)
    report(2, not failures and elapsed < 120,
           f"20 instances, certificate >= 1-1e-6 and clause counts match "
           f"(failures: {failures}) in {elapsed:.1f}s")


def test_criterion_03_planted_eigenvector_recovery(planted_runs):
    runs, elapsed = planted_runs
    overlaps = []
    for q, result in runs:
        final = result.per_k[-1]
        prepared = prepare_state(build_mps_ansatz(4, final.k), final.theta)
        overlaps.append(abs(np.vdot(q.planted_state, prepared.amplitudes)) ** 2)
    report(3, min(overlaps) >= 0.99 and elapsed < 300,
           f"min overlap with planted vector = {min(overlaps):.6f} over 10 oracles "
           f"in {elapsed:.1f}s")


def test_criterion_04_monotone_certificate_sequence(sat_runs, planted_runs):
    violations = 0
    for _, _, _, result in sat_runs[0]:
        certs = [entry.certificate for entry in result.per_k]
        violations += sum(b < a for a, b in zip(certs, certs[1:]))
    for _, result in planted_runs[0]:
        certs = [entry.certificate for entry in result.per_k]
        violations += sum(b < a for a, b in zip(certs, certs[1:]))
    report(4, violations == 0, f"{violations} monotonicity violations across criteria 2-3 runs")


def test_criterion_05_rank_bound():
    violations = 0
    for n, k, base_seed in ((5, 1, 500), (6, 2, 900)):
        circuit = build_mps_ansatz(n, k)
        for i in range(100):
            rng = np.random.default_rng((base_seed, i))
            theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
            state = prepare_state(circuit, theta)
            for cut in range(1, n):
                if schmidt_spectrum(state, cut).rank_eps > 2**k:
                    violations += 1
    report(5, violations == 0,
           f"{violations} rank violations over 200 random parameter draws")


def test_criterion_06_ebit_depth_bound():
    violations = 0
    for i in range(100):
        rng = np.random.default_rng((601, i))
        depth = 1 + i % 3
        state = zero_state(6)
        for layer in range(depth):
            for a in range(layer % 2, 5, 2):
                gate = DenseUnitary(random_unitary(rng, 4))
                state = apply_block(state, gate, QubitWindow((a, a + 1)))
        worst = max(entanglement_ebits(state, cut) for cut in range(1, 6))
        if worst > min(math.ceil(6 / 2), depth) + 1e-10:
            violations += 1
    report(6, violations == 0,
           f"{violations} depth-bound violations over 100 layered circuits")


def test_criterion_07_truncation_error_scaling():
    ratios1, ratios2 = [], []
    for alpha in (0.3, 0.1, 0.03, 0.01):
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = np.cos(alpha), np.sin(alpha)
        mps = statevector_to_mps(Statevector(2, amps))
        _, eps, err1, err2 = truncate(mps, 1)
        ratios1.append(err1 / eps)
        ratios2.append(err2 / eps**2)
    spread1 = max(ratios1) / min(ratios1)
    spread2 = max(ratios2) / min(ratios2)
    report(7, spread1 < 3 and spread2 < 3,
           f"err1/eps spread x{spread1:.3f}, err2/eps^2 spread x{spread2:.3f}")


def test_criterion_08_mps_round_trip():
    worst_overlap = 1.0
    worst_isometry = 0.0
    for i in range(50):
        n = 2 + i % 7
        state = random_state(np.random.default_rng((801, i)), n)
        mps = statevector_to_mps(state)
        out = mps_to_statevector(mps)
        worst_overlap = min(worst_overlap, abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2)
        for t in mps.tensors:
            mat = t.reshape(-1, t.shape[2])
            defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(t.shape[2])))
            worst_isometry = max(worst_isometry, defect)
    report(8, worst_overlap >= 1 - 1e-10 and worst_isometry < 1e-10,
           f"min overlap {worst_overlap:.15f}, max isometry defect {worst_isometry:.2e}")


def test_criterion_09_gradient_step_consistency():
    rng = np.random.default_rng(901)
    circuit = build_mps_ansatz(4, 1)
    q = planted_recovery_instance(42)
    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
        coarse = loss_gradient_fd(circuit, theta, q, step=1e-4)
        fine = loss_gradient_fd(circuit, theta, q, step=1e-5)
        worst = max(worst, float(np.max(np.abs(coarse - fine))))
    report(9, worst < 1e-4, f"max per-coordinate gradient discrepancy {worst:.2e}")


def test_criterion_10_resource_formulas():
    ok = (
        cnot_lower_bound(2) == 0.0
        and cnot_lower_bound(4) == 2.25
        and cnot_lower_bound(8) == 13.5
        and ebit_bound(6, 2) == 2
        and ebit_bound(5, 10) == 3
        and ebit_bound(4, 0) == 0
    )
    report(10, ok, "cnot_lower_bound(2,4,8) = (0, 2.25, 13.5); ebit_bound = (2, 3, 0)")


def _record_without_timing(record: dict) -> str:
    clone = json.loads(json.dumps(record, default=float))
    clone.pop("timestamp")
    for entry in clone["per_k"]:
        entry.pop("wall_time_s")
    return cli.dumps_json(clone)


def test_criterion_11_determinism(tmp_path):
    mismatches = []
    for shots in (0, 4096):
        raw = {
            "n": 3,
            "k_max": 1,
            "oracle": {"type": "planted", "planted": {"k": 1, "seed": 3, "phases_seed": 4}},
            "optimizer": {"method": None, "max_iters": 40, "restarts": 2, "tol_loss": 1e-10},
            "shots": shots,
            "cert_tol": 1e-9,
            "seed": 11,
            "output_path": str(tmp_path / f"record_{shots}.json"),
        }
        first = _record_without_timing(cli.main_run(cli.config_from_dict(raw)))
        second = _record_without_timing(cli.main_run(cli.config_from_dict(raw)))
        if first != second:
            mismatches.append(shots)
    report(11, not mismatches,
           f"byte-identical records (timing excluded) in exact and shots=4096 modes"
           f"{'' if not mismatches else f'; mismatches at shots={mismatches}'}")
