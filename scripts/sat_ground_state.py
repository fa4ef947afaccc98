#!/usr/bin/env python3
"""Find a basis eigenvector of a 3-SAT phase oracle with the product ansatz.

Draws a random 3-SAT instance, evolves the clause-violation cost Hamiltonian
into a diagonal unitary, and lets the rank-0 stage of the sweep converge onto
a computational basis state; the eigenphase then reveals that assignment's
violated-clause count, which is cross-checked by direct enumeration.
"""

import argparse

import numpy as np

from eigenmps.ansatz import build_mps_ansatz, prepare_state
from eigenmps.oracle import SatInstance, default_sat_time, from_sat_instance
from eigenmps.vqa import OptimizerConfig, run_sweep


def random_3sat(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return SatInstance(num_vars, tuple(clauses))


def violated(sat, x):
    count = 0
    for clause in sat.clauses:
        if not any(
            ((x >> (sat.num_vars - abs(lit))) & 1) == (1 if lit > 0 else 0) for lit in clause
        ):
            count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vars", type=int, default=6)
    parser.add_argument("--clauses", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    sat = random_3sat(rng, args.vars, args.clauses)
    t = default_sat_time(len(sat.clauses))
    q = from_sat_instance(sat, t)
    print(f"instance: {args.vars} variables, clauses {list(sat.clauses)}")
    print(f"evolution time t = {t:.6f}")

    config = OptimizerConfig(max_iters=500, tol_loss=1e-14, restarts=5, seed=args.seed)
    result = run_sweep(0, q, config, cert_tol=1e-7)
    entry = result.per_k[0]
    state = prepare_state(build_mps_ansatz(args.vars, 0), entry.theta)
    x_hat = int(np.argmax(np.abs(state.amplitudes)))
    assignment = format(x_hat, f"0{args.vars}b")
    from_phase = round(float((-np.angle(q.phases[x_hat])) % (2 * np.pi)) / t)
    print(f"certificate: {entry.certificate:.10f} after {len(entry.trace)} iterations")
    print(f"recovered assignment: {assignment} (bit i = variable i+1, 1 = true)")
    print(f"violated clauses: {from_phase} from the eigenphase, "
          f"{violated(sat, x_hat)} by enumeration")
    best = min(violated(sat, x) for x in range(2**args.vars))
    print(f"optimum over all assignments: {best} violated clauses")


if __name__ == "__main__":
    main()
