"""Black-box unitary construction and application.

An oracle is one of two kinds: "dense", a 2^n x 2^n operator applied as a
matrix-vector product, or "diagonal-phase", a 2^n phase vector applied
elementwise without ever building a matrix.  Dense oracles come from matrix
files, Hamiltonian evolution and planted constructions; SAT instances give
diagonal-phase oracles.  When h commutes with flipping every qubit or reversing
the qubit order, the evolution keeps the sectors of their group (Sectors) and
applies one product per sector; only to_matrix assembles the full U.  A planted
oracle makes a known ansatz state an exact eigenvector by conjugating a
diagonal with a fixed unitary completion of that state (a Householder
reflection mixed with a seeded unitary on the orthogonal complement); it is
a dense oracle that also keeps that state.

SAT assignment encoding: qubit i in |0> means variable i+1 is FALSE and |1>
means TRUE, so the all-zero register is the all-false assignment.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ansatz import AnsatzCircuit, prepare_state
from .errors import CapacityError, DimacsError, ShapeError, ValidationError, past_digit_limit, quote
from .simulator import Statevector, hermitian_exp

ORACLE_UNITARY_TOL = 1e-8

# Dense 2^n x 2^n payloads get heavy quickly; 12 qubits is already 268 MB.
MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class SatInstance:
    """CNF formula: clauses are tuples of nonzero signed literals (positive = true)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValidationError(f"variable count must be >= 0, got {self.num_vars}")
        clauses = tuple(tuple(int(l) for l in c) for c in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        for idx, clause in enumerate(clauses):
            if not clause:
                raise ValidationError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValidationError(
                        f"clause {idx}: literal {lit} outside [1, {self.num_vars}]"
                    )


class Sectors:
    """exp(-i h t) kept on the sectors of a group G of basis permutations that h commutes with.

    group[i] is the i-th element as an index map, group[0] the identity; members[g, r] =
    g(x_r) for each orbit's least element x_r.  Sector s of the character chi_s(g) = +-1
    spans the x_r whose stabilizer G_r chi_s keeps at +1 (rows[s]), with basis vectors
    sum_g chi_s(g) |g(x_r)> / sqrt(|G| |G_r|), so h_s[r, r'] = sum_g chi_s(g)
    h[x_r, g(x_r')] / sqrt(|G_r| |G_r'|) and blocks[s] = exp(-i h_s t).  U @ amps gathers
    amps[members], mixes them by the characters, runs one product per sector and scatters
    back; U.T is the transposed blocks, views; np.array(sectors) assembles U.
    """

    __array_ufunc__ = None  # amps @ sectors raises TypeError rather than assembling U

    def __init__(self, h: np.ndarray, t: float, group: np.ndarray):
        self.members = group[:, np.min(group, axis=0) == group[0]]
        fixed = self.members == self.members[0]
        stabilizer = np.count_nonzero(fixed, axis=0)
        self.gather = 1.0 / np.sqrt(stabilizer)  # 1 on free orbits
        self.scatter = stabilizer * self.gather / len(group)  # sqrt |G_r| / |G|, as gathered
        chars = scipy.linalg.hadamard(len(group), dtype=float)  # chi_s(i): (-1)^popcount(s & i)
        rows = [np.flatnonzero(~(fixed & (c[:, None] < 0)).any(axis=0)) for c in chars]
        kept = [s for s, r in enumerate(rows) if len(r)]
        self.chars, self.rows = chars[kept], [rows[s] for s in kept]
        mixed = np.tensordot(self.chars, h[self.members[0][:, None, None], self.members], (1, 1))
        self.blocks = [
            hermitian_exp(m[np.ix_(r, r)] * self.gather[r] * self.gather[r, None], t)
            for m, r in zip(mixed, self.rows)
        ]
        self.shape, self.dtype = h.shape, self.blocks[0].dtype

    @property
    def T(self) -> Sectors:
        transposed = copy.copy(self)
        transposed.blocks = [b.T for b in self.blocks]
        return transposed

    def __matmul__(self, amps: np.ndarray) -> np.ndarray:
        mixed = self.chars @ amps[self.members] * self.gather
        out = np.zeros_like(mixed)
        for s, (rows, block) in enumerate(zip(self.rows, self.blocks)):
            out[s, rows] = block @ mixed[s, rows]
        result = np.empty(len(amps), dtype=out.dtype)
        result[self.members] = self.chars.T @ (out * self.scatter)
        return result

    def __array__(self, dtype=None, copy=None):  # always a new array: U is assembled here
        # U[g(x_r), k(x_r')] = sum_s chi_s(g) chi_s(k) sqrt(|G_r| |G_r'|) U_s[r, r'] / |G|
        weighted = np.zeros((len(self.chars),) + self.members.shape[1:] * 2, dtype=self.dtype)
        for w, rows, u_s in zip(weighted, self.rows, self.blocks):
            w[np.ix_(rows, rows)] = u_s * self.scatter[rows] * self.scatter[rows, None]
        weighted *= len(self.members)
        u = np.empty(self.shape, dtype=self.dtype)
        for (g, x), (k, y) in itertools.product(enumerate(self.members), repeat=2):
            u[np.ix_(x, y)] = np.tensordot(self.chars[:, g] * self.chars[:, k], weighted, 1)
        return u if dtype is None else u.astype(dtype, copy=False)


@dataclass(frozen=True)
class BlackBoxUnitary:
    """Opaque apply-to-state oracle on n qubits.

    kind is the one discriminator: a "dense" oracle holds exactly its
    2^n x 2^n operator, a "diagonal-phase" oracle exactly its 2^n
    unit-modulus phase vector.  The dense operator is an ndarray, or the
    Sectors of a flip- or reflection-symmetric Hamiltonian evolution, which
    answers U @ amps with one product per sector, gives U^T as .T and is
    assembled into U only by to_matrix.  A planted oracle is dense and also keeps the
    planted eigenvector itself in planted_state, for ground-truth checks.
    """

    n: int
    kind: str
    matrix: np.ndarray | Sectors | None = None
    phases: np.ndarray | None = None
    planted_state: np.ndarray | None = None

    def __post_init__(self):
        dim = 2**self.n
        if self.kind == "dense":
            name, held, other, shape = "matrix", self.matrix, self.phases, (dim, dim)
        elif self.kind == "diagonal-phase":
            name, held, other, shape = "phases", self.phases, self.matrix, (dim,)
        else:
            raise ValidationError(
                f"oracle kind must be 'dense' or 'diagonal-phase', got {self.kind!r}"
            )
        if held is None or other is not None:
            raise ValidationError(f"a {self.kind!r} oracle holds its {name} and nothing else")
        if np.shape(held) != shape:
            raise ShapeError(f"{name} must have shape {shape} for n={self.n}, got {np.shape(held)}")
        if self.kind == "diagonal-phase":
            drift = float(np.max(np.abs(np.abs(self.phases) - 1.0)))
            if not drift <= 1e-12:
                raise ValidationError(f"phase vector is not unit modulus: drift {drift:.3e}")


def _dense_qubits(shape: tuple, what: str) -> int:
    """n for a 2^n x 2^n operator of this shape, checked before anything is built from it."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeError(f"{what} must be square, got shape {shape}")
    n = int(shape[0]).bit_length() - 1
    if shape[0] != 2**n or n < 1:
        raise ShapeError(f"{what} dimension must be a power of two >= 2, got {shape[0]}")
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"dense oracle capped at {MAX_DENSE_QUBITS} qubits, got n={n}")
    return n


def from_dense_matrix(m: np.ndarray) -> BlackBoxUnitary:
    """Oracle whose apply is the matrix-vector product with m."""
    n = _dense_qubits(np.shape(m), "oracle matrix")
    m = np.asarray(m, dtype=np.complex128)
    defect = float(np.linalg.norm(m.conj().T @ m - np.eye(2**n)))
    if not defect <= ORACLE_UNITARY_TOL:
        raise ValidationError(
            f"oracle matrix is not unitary: Frobenius defect {defect:.3e} > "
            f"{ORACLE_UNITARY_TOL:g}"
        )
    return BlackBoxUnitary(n, "dense", matrix=m)


def from_hamiltonian_evolution(h: np.ndarray, t: float) -> BlackBoxUnitary:
    """exp(-i h t) by exact eigendecomposition; eigenvectors coincide with h's.

    eigh runs in h's own dtype, real symmetric for the tfi preset; U is complex.  When h
    commutes with the qubit flip F (h == h[::-1, ::-1]) or, at n >= 2, the qubit-order
    reversal R (every tfi preset keeps both), one eigh runs per non-empty sector of their
    group G, about 2^n / |G| wide, and the oracle keeps the Sectors; U is never assembled.
    """
    n = _dense_qubits(np.shape(h), "Hamiltonian")
    h = np.asarray(h, dtype=np.complex128 if np.iscomplexobj(h) else np.float64)
    defect = float(np.linalg.norm(h - h.conj().T))
    if not defect <= ORACLE_UNITARY_TOL:
        raise ValidationError(
            f"Hamiltonian is not Hermitian: Frobenius defect {defect:.3e} > {ORACLE_UNITARY_TOL:g}"
        )
    index = np.arange(2**n)
    group = [index] + ([index[::-1]] if np.array_equal(h, h[::-1, ::-1]) else [])
    reverse = index.reshape((2,) * n).T.ravel()  # x with its n bits in reverse order
    if n >= 2 and np.array_equal(h, h[np.ix_(reverse, reverse)]):
        group += [g[reverse] for g in group]  # element i applies the generators in i's bits
    if len(group) == 1:
        return BlackBoxUnitary(n, "dense", matrix=hermitian_exp(h, t))
    return BlackBoxUnitary(n, "dense", matrix=Sectors(h, t, np.array(group)))


def tfi_hamiltonian(n: int, coupling: float, transverse: float) -> np.ndarray:
    """Transverse-field Ising chain -J sum Z_i Z_{i+1} - h sum X_i, open ends.

    Built from bit patterns: Z_i is the sign of bit i of the basis index, and
    X_i couples each index to the one with bit i flipped.
    """
    if not n >= 1:
        raise ValidationError(f"TFI chain needs n >= 1 qubits, got n={n}")
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"dense Hamiltonian capped at {MAX_DENSE_QUBITS} qubits, got n={n}")
    dim = 2**n
    index = np.arange(dim)
    spins = 1.0 - 2.0 * ((index[:, None] >> (n - 1 - np.arange(n))) & 1)
    h = np.zeros((dim, dim))
    for i in range(n - 1):
        h[index, index] -= coupling * (spins[:, i] * spins[:, i + 1])
    for i in range(n):
        h[index, index ^ (1 << (n - 1 - i))] -= transverse
    return h


def clause_violation_counts(sat: SatInstance) -> np.ndarray:
    """c(x) for every assignment x: the number of clauses x leaves unsatisfied."""
    n = sat.num_vars
    indices = np.arange(2**n, dtype=np.int64)
    counts = np.zeros(2**n, dtype=np.int64)
    for clause in sat.clauses:
        violated = np.ones(2**n, dtype=bool)
        for lit in clause:
            bit = (indices >> (n - abs(lit))) & 1
            # literal is false when a positive variable reads 0 or a negated one reads 1
            violated &= bit == (0 if lit > 0 else 1)
        counts += violated
    return counts


def default_sat_time(num_clauses: int) -> float:
    """Evolution time keeping the integer clause counts on distinct phases."""
    return 2.0 * math.pi / (num_clauses + 1) if num_clauses else 1.0


def from_sat_instance(sat: SatInstance, t: float) -> BlackBoxUnitary:
    """Diagonal-phase oracle exp(-i t c(x)) counting unsatisfied clauses."""
    if sat.num_vars < 1:
        raise ValidationError("SAT oracle needs at least one variable")
    phases = np.exp(-1j * t * clause_violation_counts(sat))
    return BlackBoxUnitary(sat.num_vars, "diagonal-phase", phases=phases)


def planted_unitary(
    circuit: AnsatzCircuit,
    theta_star: np.ndarray,
    phases: np.ndarray,
    completion_seed: int = 0,
) -> BlackBoxUnitary:
    """Q = V diag(exp(i phases)) V^dagger with V mapping e_0 to the ansatz state.

    V is a fixed unitary completion of the prepared state: a Householder
    reflection carrying e_0 onto it, composed with a seeded Haar unitary on
    the orthogonal complement.  The mixing step keeps the construction
    deterministic while making the non-planted eigenvectors generic; a pure
    reflection would leave them close to basis states, i.e. accidentally
    low-rank.  prepare_state(circuit, theta_star) is an exact eigenvector of
    Q with eigenvalue exp(i phases[0]).
    """
    phases = np.asarray(phases, dtype=float)
    dim = 2**circuit.n
    if phases.shape != (dim,):
        raise ShapeError(f"expected {dim} phases for n={circuit.n}, got shape {phases.shape}")
    if circuit.n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"planted completion capped at {MAX_DENSE_QUBITS} qubits, got n={circuit.n}"
        )
    psi = prepare_state(circuit, theta_star).amplitudes
    # Rotate the leading amplitude onto the real axis so the Householder
    # reflection lands exactly on the target direction.
    alpha = -np.angle(psi[0]) if abs(psi[0]) > 0 else 0.0
    target = np.exp(1j * alpha) * psi
    diff = np.zeros(dim, dtype=np.complex128)
    diff[0] = 1.0
    diff -= target
    norm = np.linalg.norm(diff)
    rng = np.random.default_rng(completion_seed)
    gauss = rng.normal(size=(dim - 1, dim - 1)) + 1j * rng.normal(size=(dim - 1, dim - 1))
    complement, upper = np.linalg.qr(gauss)
    # V = (I - 2 w w^dagger) blkdiag(1, complement), as a rank-1 update
    v = np.eye(dim, dtype=np.complex128)
    v[1:, 1:] = complement * np.sign(np.diagonal(upper).real)
    del gauss, complement, upper  # (2^n - 1)^2 each; free them before the product
    if norm > 1e-14:
        w = diff / norm
        v -= 2.0 * np.outer(w, w.conj() @ v)
    matrix = (v * np.exp(1j * phases)) @ v.conj().T
    return BlackBoxUnitary(circuit.n, "dense", matrix=matrix, planted_state=psi)


def apply(q: BlackBoxUnitary, state: Statevector) -> Statevector:
    """Q|state>.  Diagonal oracles multiply elementwise without a matrix."""
    if q.n != state.n:
        raise ShapeError(f"oracle on {q.n} qubits applied to {state.n}-qubit state")
    return Statevector(state.n, apply_raw(q, state.amplitudes))


def apply_raw(q: BlackBoxUnitary, amps: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Q|amps>, or Q^dagger|amps> with adjoint, on raw amplitudes (no shape re-validation); a matrix
    takes a (T, 2^n) stack row by row, as each row alone rounds (a stacked product saves nothing)."""
    if q.kind != "dense":
        return (q.phases.conj() if adjoint else q.phases) * amps
    # Q^dagger a as conj(Q^T conj(a)): no conjugated copy of the matrix
    product = (lambda a: np.conj(q.matrix.T @ a.conj())) if adjoint else q.matrix.__matmul__
    return product(amps) if amps.ndim == 1 else np.stack([product(row) for row in amps])


def to_matrix(q: BlackBoxUnitary) -> np.ndarray:
    """Assemble the dense matrix of any oracle kind (small n only)."""
    if q.n > MAX_DENSE_QUBITS:
        raise CapacityError(f"refusing to materialize a {q.n}-qubit oracle")
    if q.kind == "dense":
        return np.array(q.matrix)
    return np.diag(q.phases)


def parse_dimacs(text: str) -> SatInstance:
    """Parse DIMACS CNF: 'c' comments, one 'p cnf V C' header, 0-terminated clauses."""
    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {quote(line)}", lineno)
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                too_long = past_digit_limit(exc)
                what = "a count too long for an integer" if too_long else "non-integer counts"
                raise DimacsError(f"{what} in header {quote(line)}", lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError("negative counts in header", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                too_long = past_digit_limit(exc)
                what = "token too long for an integer" if too_long else "non-integer token"
                raise DimacsError(f"{what} {quote(tok)}", lineno) from None
            if lit == 0:
                if not current:
                    raise DimacsError("empty clause (terminator with no literals)", lineno)
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"literal {quote(lit)} exceeds declared variable count "
                        f"{quote(num_vars)}", lineno
                    )
                current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", lineno)
    if current:
        raise DimacsError("unterminated clause at end of input", lineno)
    if len(clauses) != declared_clauses:
        raise DimacsError(
            f"header declares {quote(declared_clauses)} clauses, found {len(clauses)}", lineno
        )
    return SatInstance(num_vars, tuple(clauses))


def read_dense_matrix_json(obj: dict) -> np.ndarray:
    """Decode the {"n", "re", "im"} dense-matrix file format."""
    try:
        n = obj["n"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed dense matrix object: {quote(str(exc))}") from exc
    if type(n) is not int:  # a JSON integer: not a bool, a fraction or a numeric string
        raise ValidationError(f"dense matrix n must be an integer, got {quote(n)}")
    if not 1 <= n <= MAX_DENSE_QUBITS:  # before 2^n, which at n = 20000 is too long to print
        raise CapacityError(f"dense matrix n={quote(n)} outside [1, {MAX_DENSE_QUBITS}], the cap")
    dim = 2**n
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            f"dense matrix parts must be {dim}x{dim} for n={n}, "
            f"got {quote(re.shape)} and {quote(im.shape)}"
        )
    return re + 1j * im
