import hypothesis
import numpy as np

from eigenmps.ansatz import build_mps_ansatz, embed_parameters, prepare_state
from eigenmps.oracle import BlackBoxUnitary, SatInstance, planted_unitary
from eigenmps.simulator import Statevector
from eigenmps.tensor import schmidt_spectrum

hypothesis.settings.register_profile("ci", max_examples=25, deadline=None)
hypothesis.settings.load_profile("ci")


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def moveaxis_apply(amps: np.ndarray, n: int, matrix: np.ndarray, targets: tuple) -> np.ndarray:
    """matrix on the targets of one amplitude vector, with every axis moved: the slow reference."""
    w = len(targets)
    psi = np.moveaxis(amps.reshape((2,) * n), targets, range(w))
    out = matrix @ psi.reshape(2**w, -1)
    return np.moveaxis(out.reshape(psi.shape), range(w), targets).reshape(-1)


def random_state(rng: np.random.Generator, n: int) -> Statevector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return Statevector(n, amps / np.linalg.norm(amps))


def ghz(n: int) -> Statevector:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return Statevector(n, amps)


def bell() -> Statevector:
    return ghz(2)


def planted_recovery_instance(index: int, n: int = 4) -> BlackBoxUnitary:
    """Planted single-ebit oracle whose eigenvector the sweep can recover.

    The planted state is a product state pushed into genuine rank-2 territory
    by a parameter perturbation, kept (by deterministic rejection) in an
    entanglement band where its product shadow dominates the generic mixed
    completion's other eigenvectors; the planted eigenphase sits at 0 and the
    rest on a jittered grid at least 0.5 rad away and mutually separated.
    """
    c0 = build_mps_ansatz(n, 0)
    c1 = build_mps_ansatz(n, 1)
    for attempt in range(64):
        inst = np.random.default_rng((777, index, attempt))
        theta_prod = inst.uniform(0, 2 * np.pi, c0.total_params)
        theta_star = embed_parameters(theta_prod, c1) + 0.3 * inst.normal(size=c1.total_params)
        state = prepare_state(c1, theta_star)
        seconds = [schmidt_spectrum(state, cut).singular_values[1] for cut in range(1, n)]
        if not 0.15 <= max(seconds) <= 0.40:
            continue
        grid = np.linspace(0.5, 2 * np.pi - 0.5, 2**n - 1)
        phases = np.zeros(2**n)
        phases[1:] = inst.permutation(grid + inst.uniform(-0.1, 0.1, 2**n - 1))
        return planted_unitary(
            c1, theta_star, phases, completion_seed=int(inst.integers(2**31))
        )
    raise RuntimeError(f"no admissible planted instance for index {index}")


def random_3sat(index: int, num_vars: int = 6, num_clauses: int = 10) -> SatInstance:
    rng = np.random.default_rng((555, index))
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return SatInstance(num_vars, tuple(clauses))
