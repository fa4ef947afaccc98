"""Layer kernels timed in isolation at a workload's shape, and computed work counts."""

from __future__ import annotations

import io
import statistics
import time

import numpy as np

from eigenmps import ansatz, cli, oracle, simulator, vqa


def median_ms(fn, min_total_s: float = 0.2) -> float:
    """Median wall time of fn() in ms after one warm-up call.

    Repeats at least 5 times and for at least min_total_s, but stops after
    1 s (or min_total_s, if larger) unless no call has been timed yet.
    """
    fn()
    times = []
    total = 0.0
    cap = max(1.0, min_total_s)
    while (len(times) < 5 or total < min_total_s) and total < cap or not times:
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        total += elapsed
    return 1e3 * statistics.median(times)


def isolated_timings(n: int, k: int, q, seed: int) -> dict[str, float]:
    """The ROADMAP item-1 kernels, each timed alone on inputs of the given shape."""
    rng = np.random.default_rng(seed)
    circuit = ansatz.build_mps_ansatz(n, k)
    theta = rng.uniform(0.0, 2.0 * np.pi, circuit.total_params)
    mats = ansatz.block_matrices(circuit, theta)
    mid = len(circuit.blocks) // 2
    block = simulator.DenseUnitary(mats[mid])
    window = circuit.blocks[mid].window
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = simulator.Statevector(n, amps / np.linalg.norm(amps))
    return {
        "ansatz.block_matrices.ms": median_ms(lambda: ansatz.block_matrices(circuit, theta)),
        "simulator.apply_block.ms": median_ms(lambda: simulator.apply_block(state, block, window)),
        "oracle.apply.ms": median_ms(lambda: oracle.apply_raw(q, state.amplitudes)),
        "vqa.objective_report.ms": median_ms(lambda: vqa.objective_report(circuit, theta, q)),
        "vqa.loss_gradient_fd.ms": median_ms(lambda: vqa.loss_gradient_fd(circuit, theta, q, 1e-5)),
    }


def analyze_ms(record_path: str) -> float:
    """`cli.main_analyze` on a written record, timed alone."""
    return median_ms(lambda: cli.main_analyze(record_path, out=io.StringIO()))


def objective_work(n: int, k: int, oracle_kind: str) -> tuple[int, int]:
    """Computed (bytes, flops) of one exact objective evaluation, from array sizes.

    Model: a complex multiply-add is 8 flops; every block apply reads and
    writes the 2^n amplitudes once and reads its 2^w x 2^w matrix; a block of
    width w >= 2 costs 2 P 4^w for the Pauli sum, 10 (2^w)^3 complex
    multiply-adds for eigh and (2^w)^3 for the reconstruction; the oracle is a
    2^n phase multiply (diagonal) or a 4^n matrix-vector product (dense); the
    marginals read the amplitudes once and write 2^n probabilities.
    """
    size = 2**n
    width = 1 if k == 0 else k + 1
    d = 2**width
    blocks = n if k == 0 else n - k
    params = 4**width - 1
    flops = blocks * 2 * 8 * size * d  # forward and inverse staircase
    nbytes = blocks * 2 * (2 * 16 * size + 16 * d * d)
    if k > 0:
        flops += blocks * (2 * params * d * d + 8 * 11 * d**3)
    if oracle_kind == "diagonal-phase":
        flops += 6 * size
        nbytes += 3 * 16 * size
    else:
        flops += 8 * size * size
        nbytes += 16 * size * size + 2 * 16 * size
    flops += 3 * size + n * size // 2
    nbytes += 16 * size + 8 * size
    return nbytes, flops
