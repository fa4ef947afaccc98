"""Reference rows: one exact objective evaluation on a diagonal oracle, by shape.

    python3 bench/eval_rows.py            # from the repository root

Times `vqa.objective_report` (median after warm-up) at the shapes the ROADMAP
quotes, with a seeded random diagonal-phase oracle and random parameters.
"""

from __future__ import annotations

import sys

import run  # pins the BLAS threads before numpy loads

ROWS = ((4, 1), (8, 2), (12, 3), (14, 2))


def main() -> int:
    run.load_program()
    import numpy as np

    from eigenmps import ansatz, oracle, vqa
    from layers import median_ms

    print(f"BLAS threads {run.BLAS_THREADS}")
    print("   n   k  params  objective_report ms")
    for n, k in ROWS:
        rng = np.random.default_rng((n, k))
        q = oracle.BlackBoxUnitary(
            n, "diagonal-phase", phases=np.exp(1j * rng.uniform(0, 2 * np.pi, 2**n))
        )
        circuit = ansatz.build_mps_ansatz(n, k)
        theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
        ms = median_ms(lambda: vqa.objective_report(circuit, theta, q), min_total_s=0.5)
        print(f"{n:4d} {k:3d} {circuit.total_params:7d}  {ms:19.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
