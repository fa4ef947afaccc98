"""Exact dense statevector simulation for small qubit registers.

Basis convention is big endian throughout the package: qubit 0 is the most
significant bit, so the basis index of bitstring b_0 ... b_{n-1} is
sum_i b_i * 2^(n-1-i).  Reshaping an amplitude vector to one axis per qubit
therefore makes axis i the axis of qubit i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError

# Dense vectors stay cheap well past the scales used here; 2^20 amplitudes
# is 16 MB.  Oracle construction, not the simulator, is the practical limit.
MAX_QUBITS = 20

UNITARY_TOL = 1e-10

MAX_SHOTS = 2**20  # one sample_probs call holds a few 8-byte arrays this long: about 25 MB


@dataclass(frozen=True)
class Statevector:
    """Dense complex amplitude vector for an n-qubit register."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if self.n < 1:
            raise ValidationError(f"qubit count must be >= 1, got {self.n}")
        if amps.shape != (2**self.n,):
            raise ShapeError(
                f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class QubitWindow:
    """Ordered distinct qubit indices a block acts on.

    The order fixes the tensor-index order of the applied block:
    targets[0] is the most significant bit of the block matrix index.
    """

    targets: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if not targets:
            raise ValidationError("window must contain at least one qubit")
        if len(set(targets)) != len(targets):
            raise ValidationError(f"window qubits must be distinct, got {targets}")
        if min(targets) < 0:
            raise ValidationError(f"window qubits must be non-negative, got {targets}")

    @property
    def width(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class DenseUnitary:
    """A 2^w x 2^w unitary block, validated once at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"block matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ShapeError(f"block dimension must be a power of two >= 2, got {dim}")
        defect = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
        if not defect <= UNITARY_TOL:
            raise ValidationError(
                f"matrix is not unitary: Frobenius defect {defect:.3e} > {UNITARY_TOL:g}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def zero_state(n: int) -> Statevector:
    """The computational basis state |0...0> on n qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n, amps)


def hermitian_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) of one Hermitian h, or of each in a stack, by eigh in h's own dtype.

    The result is unitary by construction unless the phases lam t overflow.
    """
    lam, vec = np.linalg.eigh(h)
    with np.errstate(over="ignore"):  # an overflowing lam t is an error here, not a warning
        if not np.isfinite(lam * t).all():
            raise ValidationError(f"evolution phases lam t are not finite at t={t!r}")
    return (vec * np.exp(-1j * lam * t)[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def apply_matrix_raw(amps: np.ndarray, n: int, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Unvalidated kernel behind apply_block; amps may stack vectors on leading axes.

    A window of consecutive ascending qubits j .. j+w-1 (every staircase window) is one
    matmul on a copy-free view: m on (..., 2^j, 2^w, rest), or m (x) I_rest on (-1, 2^w rest) once
    rows 2^j > 2^w rest^2 (measured; rows = stacked vectors); other windows are transposed.
    """
    lead, rows, w, j = amps.shape[:-1], amps.size >> n, len(targets), targets[0]
    if targets == tuple(range(j, j + w)):
        rest = 2 ** (n - j - w)
        if rows * 2**j <= 2**w * rest**2:
            return (matrix @ amps.reshape(*lead, 2**j, 2**w, rest)).reshape(amps.shape)
        widened = (matrix[:, None, :, None] * np.eye(rest)[:, None]).reshape(2**w * rest, -1)
        return (amps.reshape(-1, 2**w * rest) @ widened.T).reshape(amps.shape)
    others = [i for i in range(n) if i not in targets]
    axes = [*range(len(lead)), *(len(lead) + i for i in (*targets, *others))]
    psi = amps.reshape(*lead, *(2,) * n).transpose(axes)
    out = matrix @ psi.reshape(*lead, 2**w, -1)
    return out.reshape(psi.shape).transpose(np.argsort(axes)).reshape(amps.shape)


def apply_block(state: Statevector, u: DenseUnitary, window: QubitWindow) -> Statevector:
    """Apply u on the window qubits and the identity everywhere else; a pure function."""
    w = window.width
    if u.dim != 2**w:
        raise ShapeError(f"block of dimension {u.dim} does not fit a {w}-qubit window")
    if max(window.targets) >= state.n:
        raise ShapeError(f"window {window.targets} out of range for n={state.n}")
    return Statevector(state.n, apply_matrix_raw(state.amplitudes, state.n, u.entries, window.targets))


def qubit_zero_probs(amps: np.ndarray, n: int) -> np.ndarray:
    """Per-qubit probability of reading 0: sum of |a_x|^2 over bit_i(x) = 0, for every i."""
    return _zero_sums(np.abs(amps) ** 2, n)


@functools.cache
def _split_tables(n: int) -> list[np.ndarray]:
    """The (2^m, m + 1) tables of x's (2^h, 2^(n-h)) split, m = h = n // 2 and m = n - h: 1.0 where
    bit i of the m-bit index reads 0, and a last column of ones that sums over the other half."""
    return [1.0 - (np.arange(2**m)[:, None] >> np.array([*range(m - 1, -1, -1), m]) & 1)
            for m in (n // 2, n - n // 2)]


def _zero_sums(weights: np.ndarray, n: int) -> np.ndarray:
    """Sum of weights[x] over bit_i(x) = 0, for every qubit i: two small products over the split."""
    high, low = _split_tables(n)
    sums = high.T @ weights.reshape(len(high), -1) @ low
    return np.concatenate([sums[:-1, -1], sums[-1, :-1]])


def zero_weight(values: np.ndarray, n: int) -> np.ndarray:
    """w(x) = sum of values[i] over the qubits i reading 0 in x, for every x: _zero_sums' transpose."""
    (high, low), h = _split_tables(n), n // 2
    return ((high[:, :-1] @ values[:h])[:, None] + low[:, :-1] @ values[h:]).ravel()


def projector_prob(state: Statevector, i: int) -> float:
    """Probability of measuring qubit i in |0>."""
    if not 0 <= i < state.n:
        raise ValidationError(f"qubit index {i} out of range for n={state.n}")
    return float(qubit_zero_probs(state.amplitudes, state.n)[i])


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b> = sum_x conj(a_x) b_x."""
    if a.n != b.n:
        raise ShapeError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def sample_probs(state: Statevector, shots: int, seed: int) -> np.ndarray:
    """Shot-based estimates of the per-qubit |0> probabilities.

    Draws `shots` full bitstrings from the joint distribution |a_x|^2 with a
    seeded generator and returns, per qubit, the fraction of shots in which
    that qubit read 0.  Reproducible given (seed, shots).
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise CapacityError(f"shots exceeds the cap of {MAX_SHOTS}")
    rng = np.random.default_rng(seed)
    p = np.abs(state.amplitudes) ** 2
    outcomes = rng.choice(p.size, size=shots, p=p / p.sum())
    ones = shots - _zero_sums(np.bincount(outcomes, minlength=p.size), state.n)
    return 1.0 - ones / shots
