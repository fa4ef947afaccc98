"""Computations made apart from eigenmps, against which its outputs are checked.

Nothing here imports the package: clause counts are brute-forced literal by
literal, the transverse-field Ising Hamiltonian is assembled as a sparse
matrix and evolved with `scipy.sparse.linalg.expm_multiply`, and a record's
MPS is contracted site by site.  Basis convention matches the package: qubit
0 is the most significant bit of the basis index.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


def violated_clauses(clauses, num_vars: int, x: int) -> int:
    """Number of clauses assignment x leaves unsatisfied (variable v is bit n-v of x)."""
    count = 0
    for clause in clauses:
        if not any(((x >> (num_vars - abs(lit))) & 1) == (1 if lit > 0 else 0) for lit in clause):
            count += 1
    return count


def sat_phases(clauses, num_vars: int, t: float) -> np.ndarray:
    """Diagonal of the SAT oracle exp(-i t c(x)), from brute-force clause counts."""
    counts = [violated_clauses(clauses, num_vars, x) for x in range(2**num_vars)]
    return np.exp(-1j * t * np.asarray(counts, dtype=float))


def tfi_sparse(n: int, coupling: float, field: float) -> scipy.sparse.csr_matrix:
    """Open transverse-field Ising chain -J sum Z_i Z_{i+1} - h sum X_i, sparse."""
    dim = 2**n
    index = np.arange(dim)
    bits = (index[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    spins = 1.0 - 2.0 * bits  # Z eigenvalue of each qubit in each basis state
    diagonal = -coupling * (spins[:, :-1] * spins[:, 1:]).sum(axis=1)
    rows = [index]
    cols = [index]
    vals = [diagonal]
    for i in range(n):  # X_i flips bit i
        rows.append(index)
        cols.append(index ^ (1 << (n - 1 - i)))
        vals.append(np.full(dim, -field))
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


def tfi_evolve(h: scipy.sparse.csr_matrix, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i t H) psi without forming the dense propagator."""
    return scipy.sparse.linalg.expm_multiply(-1j * t * h.astype(np.complex128), psi)


def contract_mps(mps: dict) -> np.ndarray:
    """Dense amplitudes of an exported MPS {"tensors": [{"shape", "re", "im"}]}."""
    acc = np.ones((1, 1), dtype=np.complex128)  # (amplitude index so far, right bond)
    for site in mps["tensors"]:
        left, phys, right = site["shape"]
        tensor = (np.asarray(site["re"]) + 1j * np.asarray(site["im"])).reshape(left, phys, right)
        acc = np.einsum("al,lpr->apr", acc, tensor).reshape(-1, right)
    return acc[:, 0]


def certificate(psi: np.ndarray, q_psi: np.ndarray) -> float:
    """|<psi|Q|psi>|^2 given psi and Q psi."""
    return float(abs(np.vdot(psi, q_psi)) ** 2)


def eigenvector_near(matrix: np.ndarray, eigenvalue: complex) -> np.ndarray:
    """Unit eigenvector of a dense matrix for its eigenvalue nearest the given one."""
    values, vectors = np.linalg.eig(matrix)
    v = vectors[:, int(np.argmin(np.abs(values - eigenvalue)))]
    return v / np.linalg.norm(v)
