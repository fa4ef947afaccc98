"""Staircase circuits that prepare bounded-rank matrix product states.

An ebit budget k >= 1 uses n-k blocks of width k+1; block j acts on the
contiguous qubits [j, j+k] and consecutive blocks overlap on k qubits, which
caps the Schmidt rank at 2^k across every contiguous cut of the output.
Each block is the full special-unitary exponential over the non-identity
Pauli strings of its width w = k+1 <= MAX_BLOCK_WIDTH = 8 (4^w - 1 real
coefficients); one per-qubit 4x4 transform maps coefficients to matrices and back.

k = 0 is the product-state family with two angles per qubit,
cos(t1)|0> + exp(-i t2) sin(t1)|1>, for 2n parameters in total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, ShapeError, ValidationError, quote
from .simulator import (
    MAX_QUBITS,
    DenseUnitary,
    QubitWindow,
    Statevector,
    apply_matrix_raw,
    hermitian_exp,
    zero_state,
)

# A block of width w has 4^w - 1 parameters, and every evaluation runs one
# 2^w x 2^w eigh per block; width 8 (65535 parameters, a 256 x 256 eigh) reaches
# k = n/2 up to n = 14 and stays at desk scale.
MAX_BLOCK_WIDTH = 8

# Widest Kronecker product of the k = 0 layer's blocks (fused_windows; measured at n = 6, 10, 14).
FUSED_WIDTH = 4

# Entries of I, X, Y, Z (rows) at one qubit's (i, j) pair (columns, index 2i + j).
_PAULI_ENTRIES = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])


def pauli_strings(width: int) -> list[str]:
    """Non-identity Pauli strings of the given width, lexicographic in I<X<Y<Z."""
    labels = ["".join(s) for s in itertools.product("IXYZ", repeat=width)]
    return labels[1:]


def _per_qubit(x: np.ndarray, m: np.ndarray, width: int) -> np.ndarray:
    """Contract each of the w base-4 digits of a (B, 4^w) array's index with axis 0 of m."""
    for _ in range(width):  # the leading digit is contracted and moves last: w steps restore order
        x = x.reshape(len(x), 4, -1).swapaxes(1, 2) @ m
    return x.reshape(len(x), -1)


def _pauli_sum(coeffs: np.ndarray, width: int) -> np.ndarray:
    """sum_a coeffs[b, a] G_a for every block b: (B, 4^w - 1) -> (B, 2^w, 2^w)."""
    full = np.concatenate([np.zeros((len(coeffs), 1)), coeffs], axis=1)  # identity string: 0
    h = _per_qubit(full, _PAULI_ENTRIES, width)  # digits (i_1 j_1, ..., i_w j_w)
    rows_first = (0, *range(1, 2 * width, 2), *range(2, 2 * width + 1, 2))
    h = h.reshape(-1, *(2,) * (2 * width)).transpose(rows_first)
    return h.reshape(-1, 2**width, 2**width)


def _pauli_traces(mats: np.ndarray, width: int) -> np.ndarray:
    """tr(G_a M_b) = sum_ij (G_a)_ij (M_b)_ji for every block b: (B, 2^w, 2^w) -> (B, 4^w - 1)."""
    column_row_pairs = (0, *(a for q in range(1, width + 1) for a in (q + width, q)))
    paired = mats.reshape(-1, *(2,) * (2 * width)).transpose(column_row_pairs)
    return _per_qubit(paired.reshape(len(mats), -1), _PAULI_ENTRIES.T, width)[:, 1:]


@dataclass(frozen=True)
class BlockSpec:
    """One parameterized block: its window and its slice of the parameter vector."""

    window: QubitWindow
    param_offset: int
    param_len: int


@dataclass(frozen=True)
class AnsatzCircuit:
    """Ordered staircase of parameterized blocks for an n-qubit, k-ebit family."""

    n: int
    k: int
    blocks: tuple[BlockSpec, ...]
    total_params: int


def build_mps_ansatz(n: int, k: int) -> AnsatzCircuit:
    """Construct the staircase circuit for qubit count n and ebit budget k.

    Valid budgets are 0 <= k <= floor(n/2).  k = 0 yields n single-qubit
    product blocks with 2 parameters each; k >= 1 yields n-k blocks of width
    k+1 with 4^(k+1) - 1 parameters each, applied in order j = 0 .. n-k-1.
    """
    if not 1 <= n <= MAX_QUBITS:  # before any of the n - k blocks is built
        raise CapacityError(f"qubit count must be in [1, {MAX_QUBITS}], got {quote(n)}")
    if not 0 <= k <= n // 2:
        raise ValidationError(f"ebit budget k={quote(k)} outside [0, {n // 2}] for n={n}")
    if k + 1 > MAX_BLOCK_WIDTH:
        raise CapacityError(f"ebit budget k={k} needs block width {k + 1} > cap {MAX_BLOCK_WIDTH}")
    width = k + 1
    per_block = 2 if k == 0 else 4**width - 1  # k = 0: one (t1, t2) pair per qubit
    blocks = tuple(
        BlockSpec(QubitWindow(tuple(range(j, j + width))), j * per_block, per_block)
        for j in range(n - k)
    )
    return AnsatzCircuit(n, k, blocks, (n - k) * per_block)


def _pauli_exponential(coeffs: np.ndarray, width: int) -> np.ndarray:
    """exp(-i H_b) for every block's H_b = sum_a coeffs[b, a] G_a over the width-w strings."""
    return hermitian_exp(_pauli_sum(coeffs, width), 1.0)


def _product_blocks(angles: np.ndarray) -> np.ndarray:
    """(B, 2) angles (t1, t2) -> (B, 2, 2) unitaries with |0> -> cos(t1)|0> + exp(-i t2) sin(t1)|1>."""
    c, s = np.cos(angles[:, 0]), np.sin(angles[:, 0])
    phase = np.cos(angles[:, 1]) + 0j
    phase.imag = -np.sin(angles[:, 1])
    return np.stack([c, -s, phase * s, phase * c], axis=1).reshape(-1, 2, 2)


def block_unitary(params: np.ndarray, width: int) -> DenseUnitary:
    """exp(-i sum_j params_j G_j) as a validated block (see _pauli_exponential)."""
    if width < 1:
        raise ValidationError(f"block width must be >= 1, got {width}")
    if width > MAX_BLOCK_WIDTH:
        raise CapacityError(f"block width {width} exceeds supported cap {MAX_BLOCK_WIDTH}")
    params = np.asarray(params, dtype=float)
    expected = 4**width - 1
    if params.shape != (expected,):
        raise ShapeError(f"expected {expected} parameters for width {width}, got {params.shape}")
    return DenseUnitary(_pauli_exponential(params[None], width)[0])


def product_qubit_unitary(theta1: float, theta2: float) -> DenseUnitary:
    """The product-qubit block as a validated block (see _product_blocks)."""
    return DenseUnitary(_product_blocks(np.array([[theta1, theta2]], dtype=float))[0])


def block_matrices(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Raw (B, 2^w, 2^w) block matrices at theta, skipping per-call unitarity validation.

    Both parameterizations are unitary by construction; this is the kernel
    the optimizer loop runs on.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.total_params,):
        raise ShapeError(
            f"parameter vector of length {theta.size} does not match "
            f"circuit with {circuit.total_params} parameters"
        )
    coeffs = theta.reshape(len(circuit.blocks), -1)  # (t1, t2) pairs when k = 0
    return _product_blocks(coeffs) if circuit.k == 0 else _pauli_exponential(coeffs, circuit.k + 1)


def block_parameter_gradient(circuit: AnsatzCircuit, theta: np.ndarray, windows: list) -> np.ndarray:
    """Gradient in theta of sum_j 2 Re tr(B_j(theta) X_j), one 2^w x 2^w X_j per block.

    Wide blocks use the Daleckii-Krein derivative of exp(-i H) in H's eigenbasis
    (Higham, Functions of Matrices, SIAM 2008), with Gamma the divided differences
    of exp(-i x) at the eigenvalues: d tr(B X)/dc_a = tr(G_a V (Gamma^T o V^+ X V) V^+).
    """
    coeffs = np.asarray(theta, dtype=float).reshape(len(circuit.blocks), -1)
    x = np.stack(windows)
    if circuit.k >= 1:
        lam, vec = np.linalg.eigh(_pauli_sum(coeffs, circuit.k + 1))
        vh = vec.conj().swapaxes(1, 2)
        half_gap = 0.5 * (lam[:, :, None] - lam[:, None, :])  # sinc: exact where eigenvalues meet
        gamma = -1j * np.exp(-0.5j * (lam[:, :, None] + lam[:, None, :])) * np.sinc(half_gap / np.pi)
        w = vec @ (gamma.swapaxes(1, 2) * (vh @ x @ vec)) @ vh
        return 2.0 * _pauli_traces(w, circuit.k + 1).real.ravel()
    # coeffs are the (t1, t2) pairs: d/dt1 turns t1 by pi/2; d/dt2 scales row 1 by -i
    turned = np.column_stack([coeffs[:, 0] + 0.5 * np.pi, coeffs[:, 1]])
    dt1 = np.trace(_product_blocks(turned) @ x, axis1=1, axis2=2)
    dt2 = ((-1j * _product_blocks(coeffs)[:, 1, None]) @ x[:, :, 1, None])[:, 0, 0]
    return 2.0 * np.stack([dt1, dt2], axis=1).real.ravel()


def fused_windows(circuit: AnsatzCircuit, mats: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(targets, matrix) per window in staircase order: a run of blocks on disjoint, adjacent windows
    (the k = 0 layer) is fused into their Kronecker product, up to FUSED_WIDTH qubits wide."""
    windows = []
    for spec, m in zip(circuit.blocks, mats):
        targets, (run, fused) = spec.window.targets, windows[-1] if windows else ((), m)
        if run[-1:] == (targets[0] - 1,) and len(fused) * len(m) <= 2**FUSED_WIDTH:
            m = (fused[:, None, :, None] * m[:, None]).reshape(len(fused) * len(m), -1)  # fused (x) m
            targets = run + targets
            windows.pop()
        windows.append((targets, m))
    return windows


def apply_staircase(n: int, windows: list, amps: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U|amps> for U = the fused_windows in staircase order; with adjoint, U^dagger|amps>."""
    for targets, m in windows[::-1] if adjoint else windows:
        amps = apply_matrix_raw(amps, n, m.conj().T if adjoint else m, targets)
    return amps


def prepare_state(circuit: AnsatzCircuit, theta: np.ndarray) -> Statevector:
    """U(theta)|0...0>: apply the blocks in staircase order to the zero state."""
    windows = fused_windows(circuit, block_matrices(circuit, theta))
    return Statevector(circuit.n, apply_staircase(circuit.n, windows, zero_state(circuit.n).amplitudes))


def pauli_log_coefficients(u: np.ndarray) -> np.ndarray:
    """Coefficients c with exp(-i sum_j c_j G_j) = u up to a global phase.

    Takes the Hermitian logarithm of the (unitary, hence normal) matrix via a
    complex Schur decomposition and projects it onto the non-identity Pauli
    strings; the identity component is dropped, which only shifts the result
    by a global phase.
    """
    u = np.asarray(u, dtype=np.complex128)
    t, z = scipy.linalg.schur(u, output="complex")
    h = (z * (-np.angle(np.diag(t)))) @ z.conj().T
    h = 0.5 * (h + h.conj().T)
    width = int(u.shape[0]).bit_length() - 1
    return _pauli_traces(h[None], width)[0].real / u.shape[0]


def embed_parameters(prev_theta: np.ndarray, circuit: AnsatzCircuit) -> np.ndarray:
    """Lift optimized parameters of the (n, k-1) staircase into circuit, the (n, k) one, k >= 1.

    Block j of the wider circuit is seeded with the previous block j acting on
    its first k qubits and the identity on the extra qubit; the final wider
    block absorbs the two remaining previous blocks as a single composed
    unitary.  The lifted circuit prepares the same state as the previous one
    up to a global phase and to rounding, so warm-started certificates are
    non-decreasing in k up to the rounding of this lift (a few ulps).
    """
    if circuit.k == 0:
        raise ValidationError("no budget below k=0 to lift parameters from")
    prev_blocks = block_matrices(build_mps_ansatz(circuit.n, circuit.k - 1), prev_theta)
    eye2 = np.eye(2, dtype=np.complex128)
    targets = [np.kron(b, eye2) for b in prev_blocks[:-1]]  # prev_j (x) I for block j
    targets[-1] = np.kron(eye2, prev_blocks[-1]) @ targets[-1]
    return np.concatenate([pauli_log_coefficients(t) for t in targets])


def cnot_lower_bound(r: int) -> float:
    """Theoretical lower bound on CNOT count to realize a rank-r block: (r^2 - 3 log2 r - 1)/4."""
    if r < 2 or r & (r - 1):
        raise ValidationError(f"rank must be a power of two >= 2, got {r}")
    return (r * r - 3 * math.log2(r) - 1) / 4


def ebit_bound(n: int, m: int) -> int:
    """Entanglement cap of an m-depth circuit on n qubits: min(ceil(n/2), m)."""
    if n < 1:
        raise ValidationError(f"qubit count must be >= 1, got {n}")
    if m < 0:
        raise ValidationError(f"depth must be >= 0, got {m}")
    return min(math.ceil(n / 2), m)


def cost_estimate(n: int, r: int, l: int) -> int:
    """Nominal gate-cost figure of merit l * n * r^2 for reporting."""
    if min(n, r, l) < 1:
        raise ValidationError(f"all inputs must be >= 1, got n={n}, r={r}, l={l}")
    return l * n * r * r
