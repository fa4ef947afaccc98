"""Workload inputs generated from a workload seed, and the checks on their outputs.

Instance i of a run with seed s draws everything from
`numpy.random.default_rng((TAG, s, i))`, so one seed always gives the same
files.  The program receives only the written DIMACS and config files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference

SAT_TAG = 1801
TFI_TAG = 1802

# The warm-start lift reproduces the previous budget's state only up to
# rounding, so when the lifted point wins a budget its certificate may sit a
# few ulps below the previous one.  Larger drops are real violations.
MONOTONE_TOL = 1e-12


@dataclass
class Instance:
    """One operation's input: the config file plus what its checks need."""

    index: int
    config_path: str
    record_path: str
    config: dict
    facts: dict = field(default_factory=dict)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _config(workdir: str, index: int, body: dict, seed: int) -> tuple[str, str, dict]:
    record_path = os.path.join(workdir, f"record-{index}.json")
    config = {**body, "seed": seed, "output_path": record_path}
    config_path = os.path.join(workdir, f"config-{index}.json")
    _write(config_path, json.dumps(config, indent=1) + "\n")
    return config_path, record_path, config


class SatProduct:
    """Time to certificate on the product ansatz with a diagonal SAT oracle."""

    name = "sat-product"
    n = 10
    k_max = 0
    num_clauses = 30
    optimizer = {"method": None, "max_iters": 3000, "tol_loss": 1e-14, "restarts": 5}
    cert_tol = 1e-7

    def clauses(self, seed: int, index: int) -> list[tuple[int, int, int]]:
        rng = np.random.default_rng((SAT_TAG, seed, index))
        out = []
        for _ in range(self.num_clauses):
            variables = rng.choice(self.n, size=3, replace=False) + 1
            signs = rng.integers(0, 2, size=3) * 2 - 1
            out.append(tuple(int(v * s) for v, s in zip(variables, signs)))
        return out

    def make(self, seed: int, index: int, workdir: str) -> Instance:
        clauses = self.clauses(seed, index)
        cnf = os.path.join(workdir, f"instance-{index}.cnf")
        lines = [f"c sat-product seed {seed} instance {index}",
                 f"p cnf {self.n} {len(clauses)}"]
        lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
        _write(cnf, "\n".join(lines) + "\n")
        t = 2.0 * math.pi / (len(clauses) + 1)
        opt_seed = int(np.random.default_rng((SAT_TAG, seed, index, 1)).integers(2**31))
        body = {
            "n": self.n,
            "k_max": self.k_max,
            "oracle": {"type": "dimacs", "path": cnf, "t": t},
            "optimizer": self.optimizer,
            "cert_tol": self.cert_tol,
        }
        config_path, record_path, config = _config(workdir, index, body, opt_seed)
        return Instance(index, config_path, record_path, config, {"clauses": clauses, "t": t})

    def capture(self, oracle) -> dict:
        """The program's phase vector, kept for the eigenphase check."""
        return {"phases": np.array(oracle.phases)}

    def apply_q(self, inst: Instance, psi: np.ndarray) -> np.ndarray:
        if "reference_phases" not in inst.facts:
            inst.facts["reference_phases"] = reference.sat_phases(
                inst.facts["clauses"], self.n, inst.facts["t"]
            )
        return inst.facts["reference_phases"] * psi

    def check(self, inst: Instance, record: dict, psi: np.ndarray, captured: dict) -> list[str]:
        errors = []
        best = best_entry(record)
        if best["certificate"] < 1.0 - self.cert_tol:
            errors.append(f"certificate {best['certificate']!r} below 1 - {self.cert_tol:g}")
        x_hat = int(np.argmax(np.abs(psi)))
        t = inst.facts["t"]
        from_phase = round(float((-np.angle(captured["phases"][x_hat])) % (2 * math.pi)) / t)
        brute = reference.violated_clauses(inst.facts["clauses"], self.n, x_hat)
        if from_phase != brute:
            errors.append(f"eigenphase of x={x_hat} counts {from_phase} clauses, brute force {brute}")
        return errors


class TfiShots:
    """Fixed-work throughput: shot-based SPSA on the transverse-field Ising chain."""

    name = "tfi-shots"
    n = 10
    k_max = 2
    coupling, transverse, t = 1.0, 1.0, 1.0
    shots = 1024
    optimizer = {"method": None, "max_iters": 200, "tol_loss": 0.0, "restarts": 1}

    def __init__(self):
        self._h = None

    @property
    def evaluation_budget(self) -> int:
        """Shot evaluations per sweep: SPSA does 2 per iteration plus 2, per restart and budget."""
        opt = self.optimizer
        return (self.k_max + 1) * opt["restarts"] * (2 * opt["max_iters"] + 2)

    def make(self, seed: int, index: int, workdir: str) -> Instance:
        opt_seed = int(np.random.default_rng((TFI_TAG, seed, index)).integers(2**31))
        body = {
            "n": self.n,
            "k_max": self.k_max,
            "oracle": {
                "type": "hamiltonian",
                "preset": "tfi",
                "t": self.t,
                "params": {"coupling": self.coupling, "field": self.transverse},
            },
            "optimizer": self.optimizer,
            "shots": self.shots,
        }
        config_path, record_path, config = _config(workdir, index, body, opt_seed)
        return Instance(index, config_path, record_path, config)

    def capture(self, oracle) -> dict:
        return {}

    def apply_q(self, inst: Instance, psi: np.ndarray) -> np.ndarray:
        if self._h is None:
            self._h = reference.tfi_sparse(self.n, self.coupling, self.transverse)
        return reference.tfi_evolve(self._h, self.t, psi)

    def check(self, inst: Instance, record: dict, psi: np.ndarray, captured: dict) -> list[str]:
        evaluations = captured.get("shot_evaluations")
        if evaluations != self.evaluation_budget:
            return [f"{evaluations} shot evaluations, fixed budget is {self.evaluation_budget}"]
        return []


WORKLOADS = {w.name: w for w in (SatProduct, TfiShots)}


def best_entry(record: dict) -> dict:
    """The per-budget entry the record's MPS describes (highest certificate, then lowest k)."""
    return next(e for e in record["per_k"] if e["k"] == record["best_k"])


def check_record(workload, inst: Instance, record: dict, analysis: dict, captured: dict) -> list[str]:
    """Every output check on one operation; an empty list means it passed."""
    errors = []
    certs = [e["certificate"] for e in record["per_k"]]
    if any(b < a - MONOTONE_TOL for a, b in zip(certs, certs[1:])):
        errors.append(f"certificates decrease in k: {certs}")
    k = record["best_k"]
    if best_entry(record)["certificate"] != max(certs):
        errors.append(f"best_k={k} does not hold the highest certificate")
    if max(record["mps"]["bond_dims"], default=1) > 2**k:
        errors.append(f"bond dimensions {record['mps']['bond_dims']} exceed 2^{k}")
    psi = reference.contract_mps(record["mps"])
    expected = reference.certificate(psi, workload.apply_q(inst, psi))
    got = best_entry(record)["certificate"]
    if not abs(got - expected) <= 1e-9:
        errors.append(f"certificate {got!r} but |<psi|Q|psi>|^2 = {expected!r}")
    last = analysis["truncation"][-1]
    if last["r"] != max(c["rank"] for c in analysis["cuts"]) or not last["err2"] <= 1e-12:
        errors.append(f"analyze reports truncation error {last} at the maximal rank")
    return errors + workload.check(inst, record, psi, captured)
