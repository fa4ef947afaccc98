import tracemalloc

import numpy as np
import pytest

from conftest import planted_recovery_instance, random_state, random_unitary
from eigenmps.ansatz import build_mps_ansatz
from eigenmps.errors import CapacityError, DimacsError, ShapeError, ValidationError
from eigenmps.oracle import (
    BlackBoxUnitary,
    SatInstance,
    Sectors,
    apply,
    apply_raw,
    clause_violation_counts,
    default_sat_time,
    from_dense_matrix,
    from_hamiltonian_evolution,
    from_sat_instance,
    parse_dimacs,
    planted_unitary,
    read_dense_matrix_json,
    tfi_hamiltonian,
    to_matrix,
)
from eigenmps.simulator import Statevector, zero_state


def brute_force_unsat_count(sat: SatInstance, x: int) -> int:
    """Independent clause-evaluation loop (bit i big-endian = variable i+1)."""
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


def test_dense_identity():
    q = from_dense_matrix(np.eye(4))
    state = random_state(np.random.default_rng(0), 2)
    assert np.allclose(apply(q, state).amplitudes, state.amplitudes)


def test_dense_pauli_z():
    q = from_dense_matrix(np.diag([1, -1]))
    out = apply(q, Statevector(1, np.array([0.6, 0.8])))
    assert np.allclose(out.amplitudes, [0.6, -0.8])


def test_dense_random_unitary_preserves_norm():
    rng = np.random.default_rng(13)
    q = from_dense_matrix(random_unitary(rng, 8))
    for _ in range(5):
        state = random_state(rng, 3)
        assert abs(apply(q, state).norm() - 1.0) < 1e-10


def test_dense_rejects_non_unitary_with_defect():
    with pytest.raises(ValidationError, match="defect"):
        from_dense_matrix(np.diag([1.0, 2.0]))


NAN_2X2 = np.array([[np.nan, 0.0], [0.0, 1.0]])


def test_dense_rejects_nan_entries():
    with pytest.raises(ValidationError, match="unitary"):
        from_dense_matrix(NAN_2X2)


@pytest.mark.parametrize(
    "h, t",
    [
        (NAN_2X2, 1.0),
        (np.diag([1.0, -1.0]), np.nan),
        (tfi_hamiltonian(3, 1.0, 1.0), np.nan),  # symmetric: each sector sees t
    ],
)
def test_hamiltonian_evolution_rejects_nan(h, t):
    with pytest.raises(ValidationError):
        from_hamiltonian_evolution(h, t)


def test_hamiltonian_evolution_checks_its_size_before_eigh(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("eigh ran on an oversize input"))
    h = np.broadcast_to(0.0, (2**13, 2**13))  # a view of one float: nothing allocated
    with pytest.raises(CapacityError):
        from_hamiltonian_evolution(h, 1.0)


@pytest.mark.filterwarnings("error")  # the overflow is an error to report, not a warning
def test_hamiltonian_evolution_rejects_overflowing_phases():
    # lam t = 1e310 overflows to inf; the evolution would hold NaN entries
    with pytest.raises(ValidationError, match="not finite"):
        from_hamiltonian_evolution(np.diag([1e300, 0.0]), 1e10)


def test_diagonal_phase_oracle_rejects_nan_phase():
    with pytest.raises(ValidationError, match="unit modulus"):
        BlackBoxUnitary(1, "diagonal-phase", phases=np.array([1.0, np.nan]))


def test_dense_vs_matvec():
    rng = np.random.default_rng(17)
    m = random_unitary(rng, 16)
    q = from_dense_matrix(m)
    state = random_state(rng, 4)
    assert np.max(np.abs(apply(q, state).amplitudes - m @ state.amplitudes)) < 1e-12


def test_hamiltonian_evolution_at_zero_time():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    q = from_hamiltonian_evolution(h, 0.0)
    assert np.allclose(q.matrix, np.eye(4), atol=1e-12)


def test_hamiltonian_evolution_diagonal():
    q = from_hamiltonian_evolution(np.diag([1.0, -1.0]), np.pi / 2)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.allclose(q.matrix, expected, atol=1e-12)


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        from_hamiltonian_evolution(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def _tfi_dense(n: int, coupling: float = 1.0, transverse: float = 1.0) -> np.ndarray:
    # independent Kronecker construction of -J sum Z Z - h sum X
    eye, sx, sz = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])

    def op_at(op, site):
        m = np.array([[1.0]])
        for i in range(n):
            m = np.kron(m, op if i == site else eye)
        return m

    h = np.zeros((2**n, 2**n))
    for i in range(n - 1):
        h -= coupling * (op_at(sz, i) @ op_at(sz, i + 1))
    for i in range(n):
        h -= transverse * op_at(sx, i)
    return h


def test_tfi_ground_state_is_oracle_eigenvector():
    h = _tfi_dense(4)
    t = 0.7
    q = from_hamiltonian_evolution(h, t)
    lam, vec = np.linalg.eigh(h)
    ground = Statevector(4, vec[:, 0])
    out = apply(q, ground)
    assert np.max(np.abs(out.amplitudes - np.exp(-1j * lam[0] * t) * ground.amplitudes)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
@pytest.mark.parametrize("coupling, transverse", [(1.0, 1.0), (0.3, 0.7), (0.1, 1.3), (-0.4, 0.0)])
def test_tfi_hamiltonian_equals_kronecker_construction(n, coupling, transverse):
    h = tfi_hamiltonian(n, coupling, transverse)
    assert h.tobytes() == _tfi_dense(n, coupling, transverse).tobytes()


def test_tfi_hamiltonian_checks_its_size_before_allocating(monkeypatch):
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated before the check"))
    with pytest.raises(CapacityError):
        tfi_hamiltonian(13, 1.0, 1.0)
    for n in (0, -1):
        with pytest.raises(ValidationError, match="n >= 1"):
            tfi_hamiltonian(n, 1.0, 1.0)


def _real_hamiltonians():
    for n in range(1, 7):
        for coupling, transverse, t in [(1.0, 1.0, 1.0), (0.3, 0.7, 0.45), (-0.4, 1.3, 2.9)]:
            h = tfi_hamiltonian(n, coupling, transverse)
            yield pytest.param(h, t, id=f"tfi-{n}-{coupling}-{transverse}-{t}")
    a = np.random.default_rng(41).normal(size=(32, 32))
    yield pytest.param(a + a.T, 0.8, id="random-symmetric")


@pytest.mark.parametrize("h, t", _real_hamiltonians())
def test_real_hamiltonian_evolution_matches_the_complex_reference(h, t):
    real = to_matrix(from_hamiltonian_evolution(h, t))
    reference = to_matrix(from_hamiltonian_evolution(h.astype(complex), t))
    assert real.dtype == np.complex128
    assert np.max(np.abs(real - reference)) < 1e-12


def _eigh_spy(monkeypatch):
    seen, eigh = [], np.linalg.eigh

    def spy(h):
        seen.append(h)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


def _bit_reversal(n: int) -> np.ndarray:
    return np.array([int(f"{x:0{n}b}"[::-1], 2) for x in range(2**n)])


def _symmetries(h: np.ndarray) -> dict:
    """The flip of every qubit and the reversal of the qubit order, where h commutes with them."""
    n = len(h).bit_length() - 1
    maps = {"flip": np.arange(len(h))[::-1], "reflection": _bit_reversal(n)}
    if n == 1:  # reversing one qubit is the identity
        del maps["reflection"]
    return {name: g for name, g in maps.items() if np.array_equal(h, h[np.ix_(g, g)])}


def _sector_sizes(h: np.ndarray) -> list[int]:
    """Non-empty sector widths, sum_g chi_s(g) |fix g| / |G| over the symmetries' group."""
    group = [np.arange(len(h))]
    for g in _symmetries(h).values():
        group += [e[g] for e in group]  # element i composes the generators in the bits of i
    fixed = [np.count_nonzero(g == group[0]) for g in group]
    sizes = [
        sum((-1) ** bin(s & i).count("1") * f for i, f in enumerate(fixed)) // len(group)
        for s in range(len(group))
    ]
    return sorted(size for size in sizes if size)


def _assert_one_eigh_per_sector(seen: list, h: np.ndarray):
    # one eigh per non-empty sector, in the dtype of h, with widths that sum to 2^n
    assert [m.dtype for m in seen] == [h.dtype] * len(seen)
    assert sorted(len(m) for m in seen) == _sector_sizes(h)
    assert sum(len(m) for m in seen) == len(h)


def test_hamiltonian_evolution_runs_eigh_in_the_dtype_of_h(monkeypatch):
    seen = _eigh_spy(monkeypatch)
    h = tfi_hamiltonian(3, 1.0, 1.0)  # integer entries, so astype(int) is exact
    for m, dtype in [(h, float), (h.astype(int), float), (h.astype(complex), complex)]:
        del seen[:]
        from_hamiltonian_evolution(m, 0.5)
        _assert_one_eigh_per_sector(seen, m.astype(dtype))
        assert len(seen) == 4  # the chain keeps the flip and the reflection: widths 3, 3, 1, 1


def _reference_evolution(h: np.ndarray, t: float) -> np.ndarray:
    # independent of the sector split: one full-size eigendecomposition of h
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * lam * t)) @ vec.conj().T


def _assert_applies_as(q, reference: np.ndarray):
    x = random_state(np.random.default_rng(len(reference)), q.n).amplitudes
    assert np.max(np.abs(apply_raw(q, x) - reference @ x)) < 1e-12
    assert np.max(np.abs(apply_raw(q, x, adjoint=True) - reference.conj().T @ x)) < 1e-12
    assert np.max(np.abs(to_matrix(q) - reference)) < 1e-12


def _flip_symmetric_hamiltonians():
    for n in range(1, 9):
        for coupling, field, t in [
            (1.0, 1.0, 1.0),
            (0.3, 0.7, 0.45),
            (-0.4, 1.3, 2.9),
            (1.0, 0.0, 1.7),  # diagonal, with every level at least doubly degenerate
            (-1.0, 0.0, 0.6),
        ]:
            h = tfi_hamiltonian(n, coupling, field)
            yield pytest.param(h, t, id=f"tfi-{n}-{coupling}-{field}-{t}")
    rng = np.random.default_rng(43)
    for n in (1, 3, 5):
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        m = m + m.conj().T
        yield pytest.param(m + m[::-1, ::-1], 0.8, id=f"complex-flip-symmetric-{n}")


@pytest.mark.parametrize("h, t", _flip_symmetric_hamiltonians())
def test_flip_symmetric_evolution_matches_a_full_size_reference(h, t, monkeypatch):
    assert "flip" in _symmetries(h)
    reference = _reference_evolution(h, t)
    seen = _eigh_spy(monkeypatch)
    u = to_matrix(from_hamiltonian_evolution(h, t))
    _assert_one_eigh_per_sector(seen, h)
    assert u.dtype == np.complex128
    assert np.max(np.abs(u - reference)) < 1e-12


@pytest.mark.parametrize("h, t", _flip_symmetric_hamiltonians())
def test_flip_sector_oracle_applies_as_the_full_size_reference(h, t):
    q = from_hamiltonian_evolution(h, t)
    assert isinstance(q.matrix, Sectors)  # the sectors, never a full-size U
    assert sorted(len(b) for b in q.matrix.blocks) == _sector_sizes(h)
    _assert_applies_as(q, _reference_evolution(h, t))


def _longitudinal_field(n: int) -> np.ndarray:
    # sum Z_i: flipping every qubit negates it, so a chain plus this term has no flip symmetry
    index = np.arange(2**n)
    return np.diag(n - 2.0 * np.array([bin(x).count("1") for x in index]))


def _symmetric_hamiltonians():
    """(h, t, the symmetries h keeps): groups of order 4, and of order 2 from either generator."""
    chains = [(1.0, 0.7, 0.9), (-1.0, 1.3, 2.9), (1.0, 0.0, 1.7)]  # a negative coupling, no field
    for n in range(2, 11):
        for coupling, field, t in chains if n <= 8 else chains[:1]:  # one each at n = 9, 10
            h = tfi_hamiltonian(n, coupling, field)
            yield pytest.param(h, t, ("flip", "reflection"), id=f"tfi-{n}-{coupling}-{field}-{t}")
    rng = np.random.default_rng(43)
    for n in (3, 5):
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        m = m + m.conj().T
        yield pytest.param(m + m[::-1, ::-1], 0.8, ("flip",), id=f"complex-flip-symmetric-{n}")
    for n in (2, 4, 6):
        h = tfi_hamiltonian(n, 1.0, 0.7) + 0.3 * _longitudinal_field(n)
        yield pytest.param(h, 0.9, ("reflection",), id=f"tfi-longitudinal-{n}")


@pytest.mark.parametrize("h, t, kept", _symmetric_hamiltonians())
def test_evolution_runs_one_eigh_per_sector_of_the_symmetries_h_keeps(h, t, kept, monkeypatch):
    assert tuple(_symmetries(h)) == kept
    reference = _reference_evolution(h, t)
    seen = _eigh_spy(monkeypatch)
    q = from_hamiltonian_evolution(h, t)
    _assert_one_eigh_per_sector(seen, h)
    assert isinstance(q.matrix, Sectors) and len(q.matrix.blocks) == len(seen)
    _assert_applies_as(q, reference)


def _asymmetric_hamiltonians():
    for n in (2, 5):
        z0 = np.diag(1.0 - 2.0 * (np.arange(2**n) >> (n - 1)))  # Z on qubit 0 alone
        yield pytest.param(tfi_hamiltonian(n, 1.0, 0.7) + 0.3 * z0, 0.9, id=f"tfi-z0-{n}")
    a = np.random.default_rng(47).normal(size=(32, 32))
    yield pytest.param(a + a.T, 0.8, id="random-symmetric")


@pytest.mark.parametrize("h, t", _asymmetric_hamiltonians())
def test_flip_asymmetric_evolution_runs_one_full_size_eigh(h, t, monkeypatch):
    assert not _symmetries(h)  # neither the flip nor the reflection
    reference = _reference_evolution(h, t)
    seen = _eigh_spy(monkeypatch)
    q = from_hamiltonian_evolution(h, t)
    assert [m.shape for m in seen] == [h.shape] and seen[0].dtype == h.dtype
    assert type(q.matrix) is np.ndarray  # U as a plain array
    _assert_applies_as(q, reference)


def test_two_qubit_chain_has_an_empty_sector():
    # orbits {00, 11} and {01, 10}: each fixed by one of R and FR, so the character
    # that is -1 on both of them spans nothing, and three sectors of widths 2, 1, 1 remain
    h = tfi_hamiltonian(2, 1.0, 0.7)
    q = from_hamiltonian_evolution(h, 0.9)
    assert len(q.matrix.chars) == 3 and sorted(len(b) for b in q.matrix.blocks) == [1, 1, 2]
    _assert_applies_as(q, _reference_evolution(h, 0.9))


def test_flip_symmetric_oracle_keeps_about_half_the_memory_of_u():
    # U at n=10 is 2^20 complex entries, 16 MB.  The four sectors of the chain's
    # flip-and-reflection group are 272, 256, 240 and 256 wide: 4.0 MB kept.  The build's
    # peak is the reflection check's one gathered copy of h, 8 MB, and the comparison.
    h = tfi_hamiltonian(10, 1.0, 1.0)
    tracemalloc.start()
    try:
        q = from_hamiltonian_evolution(h, 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.matrix.shape == h.shape
    assert kept <= 0.55 * 2**20 * 16
    assert kept <= 0.3 * 2**20 * 16
    assert peak <= 0.75 * 2**20 * 16


def _row_times(amps: np.ndarray, m) -> np.ndarray:
    """amps @ M, with Sectors M paired on the right: its gather and scatter, row products."""
    if isinstance(m, np.ndarray):
        return amps @ m
    mixed = m.chars @ amps[m.members] * m.gather
    out = np.zeros_like(mixed)
    for s, (rows, block) in enumerate(zip(m.rows, m.blocks)):
        out[s, rows] = mixed[s, rows] @ block
    result = np.empty_like(amps)
    result[m.members] = m.chars.T @ (out * m.scatter)
    return result


def _adjoint_oracles():
    for n in range(1, 11):
        q = from_hamiltonian_evolution(tfi_hamiltonian(n, 1.0, 0.7), 0.9)
        yield pytest.param(q, id=f"tfi-{n}")
    yield pytest.param(planted_recovery_instance(0), id="planted-4")
    yield pytest.param(from_dense_matrix(random_unitary(np.random.default_rng(5), 32)), id="dense-5")


@pytest.mark.parametrize("q", _adjoint_oracles())
def test_dense_adjoint_through_the_transpose_is_bit_identical_to_the_row_product(q):
    # conj(Q^T conj(x)) runs the same products as conj(conj(x) Q), so no record moves
    x = random_state(np.random.default_rng(q.n), q.n).amplitudes
    assert np.array_equal(apply_raw(q, x, adjoint=True), np.conj(_row_times(x.conj(), q.matrix)))
    if isinstance(q.matrix, Sectors):
        assert np.array_equal(np.array(q.matrix.T), np.array(q.matrix).T)
        with pytest.raises(TypeError):  # no right-hand pairing: never a silently assembled U
            x @ q.matrix


@pytest.mark.filterwarnings("error")  # the overflow is an error to report, not a warning
def test_flip_sector_evolution_rejects_overflowing_phases():
    h = np.diag([1e300, 1e300])  # flip-symmetric, so the sectors see the overflow
    with pytest.raises(ValidationError, match="not finite"):
        from_hamiltonian_evolution(h, 1e10)


def test_flip_sector_evolution_memory_stays_near_the_size_of_u():
    # U at n=10 is 2^20 complex entries, 16 MB; h itself is 8 MB.  A full-size eigh with
    # a promoted complex product peaked at about 64 MB; the sectors stay at about 17 MB
    # (h, the reflection check's copy of it, and the quarter-size sectors).  The bound,
    # 2.5 U, fails if a full-size temporary such as np.block or a promoted copy returns.
    tracemalloc.start()
    try:
        from_hamiltonian_evolution(tfi_hamiltonian(10, 1.0, 1.0), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20 * 16


def test_spectral_consistency_all_eigenpairs():
    rng = np.random.default_rng(23)
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = h + h.conj().T
    t = 0.37
    q = from_hamiltonian_evolution(h, t)
    lam, vec = np.linalg.eigh(h)
    for j in range(16):
        v = Statevector(4, vec[:, j])
        out = apply(q, v)
        assert np.max(np.abs(out.amplitudes - np.exp(-1j * lam[j] * t) * v.amplitudes)) < 1e-8


def test_sat_phase_for_all_false_assignment():
    sat = SatInstance(2, ((1,), (2,)))
    t = 0.9
    q = from_sat_instance(sat, t)
    # |00> is the all-false assignment, so both unit clauses are unsatisfied
    assert q.phases[0] == pytest.approx(np.exp(-2j * t))


def test_sat_satisfying_assignment_has_unit_phase():
    sat = SatInstance(2, ((1, -2), (2,)))
    q = from_sat_instance(sat, 1.3)
    x = 0b11  # both variables true satisfies both clauses
    assert q.phases[x] == pytest.approx(1.0)


def test_sat_counts_match_brute_force():
    rng = np.random.default_rng(31)
    clauses = []
    for _ in range(10):
        variables = rng.choice(6, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    sat = SatInstance(6, tuple(clauses))
    t = 1.0
    q = from_sat_instance(sat, t)
    counts = clause_violation_counts(sat)
    for x in range(64):
        expected = brute_force_unsat_count(sat, x)
        assert counts[x] == expected
        assert q.phases[x] == pytest.approx(np.exp(-1j * t * expected))


def test_sat_basis_states_are_eigenvectors():
    sat = SatInstance(3, ((1, 2, -3),))
    q = from_sat_instance(sat, 0.5)
    amps = np.zeros(8, dtype=complex)
    amps[5] = 1.0
    out = apply(q, Statevector(3, amps))
    assert abs(abs(out.amplitudes[5]) - 1.0) < 1e-12


def test_default_sat_time_avoids_phase_collisions():
    t = default_sat_time(10)
    assert 0 < t < 2 * np.pi / 10


def test_planted_all_zero_phases_gives_identity():
    circuit = build_mps_ansatz(3, 1)
    theta = np.random.default_rng(5).uniform(0, 2 * np.pi, circuit.total_params)
    q = planted_unitary(circuit, theta, np.zeros(8))
    state = random_state(np.random.default_rng(6), 3)
    assert np.max(np.abs(apply(q, state).amplitudes - state.amplitudes)) < 1e-10


def test_planted_zero_state():
    circuit = build_mps_ansatz(3, 0)
    phases = np.random.default_rng(8).uniform(0, 2 * np.pi, 8)
    q = planted_unitary(circuit, np.zeros(6), phases)
    out = apply(q, zero_state(3))
    assert abs(out.amplitudes[0] - np.exp(1j * phases[0])) < 1e-12


def test_planted_eigenvector_recovered_by_dense_eigendecomposition():
    rng = np.random.default_rng(44)
    circuit = build_mps_ansatz(4, 1)
    theta_star = rng.uniform(0, 2 * np.pi, circuit.total_params)
    phases = rng.uniform(0, 2 * np.pi, 16)
    q = planted_unitary(circuit, theta_star, phases)
    dense = to_matrix(q)
    lam, vec = np.linalg.eig(dense)
    overlaps = np.abs(vec.conj().T @ q.planted_state)
    j = int(np.argmax(overlaps))
    assert overlaps[j] > 1 - 1e-8
    assert abs(lam[j] - np.exp(1j * phases[0])) < 1e-8


def test_planted_exactness_and_unitarity():
    rng = np.random.default_rng(45)
    circuit = build_mps_ansatz(4, 1)
    theta_star = rng.uniform(0, 2 * np.pi, circuit.total_params)
    q = planted_unitary(circuit, theta_star, rng.uniform(0, 2 * np.pi, 16))
    planted = Statevector(4, q.planted_state)
    assert abs(abs(np.vdot(planted.amplitudes, apply(q, planted).amplitudes)) - 1.0) < 1e-10
    for _ in range(5):
        state = random_state(rng, 4)
        assert abs(apply(q, state).norm() - 1.0) < 1e-10


def test_apply_shape_mismatch():
    q = from_dense_matrix(np.eye(2))
    with pytest.raises(ShapeError):
        apply(q, zero_state(2))


def test_parse_dimacs_basic():
    sat = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert sat.num_vars == 2
    assert sat.clauses == ((1, -2),)


def test_parse_dimacs_header_only():
    sat = parse_dimacs("p cnf 3 0\n")
    assert sat.num_vars == 3
    assert sat.clauses == ()


def test_parse_dimacs_comments_and_multiline_clauses():
    text = "c example\nc another comment\np cnf 3 2\n1 2\n-3 0\n2 3 0\n"
    sat = parse_dimacs(text)
    assert sat.clauses == ((1, 2, -3), (2, 3))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p cnf 2 2\n1 0\n", "declares 2"),
        ("1 2 0\n", "header"),
        ("p cnf 2 1\n3 0\n", "exceeds"),
        ("p cnf 2 1\n0\n", "empty clause"),
        ("p cnf 2 1\n1 2\n", "unterminated"),
        ("p cnf 2 1\nx 0\n", "non-integer"),
        ("p cnf 2 1\np cnf 2 1\n", "duplicate"),
        # short ids: pytest would otherwise name each of these cases after its 5000-character input
        pytest.param("p cnf " + "1" * 5000 + " 1\n", "count too long for an integer", id="long-count"),
        pytest.param("p cnf 2 1\n" + "1" * 5000 + " 0\n", "token too long for an integer",
                     id="long-literal"),
        pytest.param("p cnf 2 1\n" + "x" * 5000 + " 0\n", "non-integer token", id="long-word-literal"),
        pytest.param("p cnf 2 " + "x" * 5000 + "\n", "non-integer counts", id="long-word-count"),
        ("p cnf 3\n", "^line 1: malformed header 'p cnf 3'"),
        ("c no header\n", "^line 1: missing 'p cnf' header"),
    ],
)
def test_parse_dimacs_errors(text, fragment):
    with pytest.raises(DimacsError, match=fragment) as info:
        parse_dimacs(text)
    assert len(str(info.value)) <= 120  # a long token is cut, not echoed whole


def test_parse_dimacs_error_carries_line_number():
    with pytest.raises(DimacsError) as info:
        parse_dimacs("c ok\np cnf 2 1\n5 0\n")
    assert info.value.line == 3


def test_to_matrix_of_a_diagonal_phase_oracle_is_its_diagonal():
    q = from_sat_instance(SatInstance(3, ((1, -2), (2, 3))), 0.7)
    assert q.kind == "diagonal-phase"
    assert np.array_equal(to_matrix(q), np.diag(q.phases))


def test_sat_instance_validation():
    with pytest.raises(ValidationError):
        SatInstance(2, ((0,),))
    with pytest.raises(ValidationError):
        SatInstance(2, ((),))


def test_read_dense_matrix_json():
    obj = {"n": 1, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
    assert np.allclose(read_dense_matrix_json(obj), [[0, 1], [1, 0]])
    with pytest.raises(ValidationError):
        read_dense_matrix_json({"n": 1, "re": [[1]], "im": [[0]]})
    with pytest.raises(ValidationError):
        read_dense_matrix_json({"n": 1})
    for n in (13, 0):  # bounded before 2^n, whose size message failed to print at n = 20000
        with pytest.raises(CapacityError, match="cap"):
            read_dense_matrix_json({"n": n, "re": [], "im": []})


def test_diagonal_oracle_applied_without_matrix():
    sat = SatInstance(2, ((1, 2),))
    q = from_sat_instance(sat, 0.4)
    assert q.matrix is None
    state = random_state(np.random.default_rng(9), 2)
    assert np.allclose(apply(q, state).amplitudes, q.phases * state.amplitudes)


def test_every_oracle_kind_preserves_norm():
    rng = np.random.default_rng(55)
    circuit = build_mps_ansatz(3, 1)
    oracles = [
        from_dense_matrix(random_unitary(rng, 8)),
        from_sat_instance(SatInstance(3, ((1, -2), (2, 3))), 0.8),
        planted_unitary(circuit, rng.uniform(0, 2 * np.pi, circuit.total_params),
                        rng.uniform(0, 2 * np.pi, 8)),
    ]
    for q in oracles:
        for _ in range(5):
            state = random_state(rng, 3)
            assert abs(apply(q, state).norm() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("dense", {}),
        ("dense", {"phases": np.ones(2)}),
        ("dense", {"matrix": np.eye(2), "phases": np.ones(2)}),
        ("dense", {"matrix": np.eye(4)}),
        ("diagonal-phase", {}),
        ("diagonal-phase", {"matrix": np.eye(2)}),
        ("diagonal-phase", {"phases": np.ones(2), "matrix": np.eye(2)}),
        ("diagonal-phase", {"phases": np.ones(4)}),
        ("planted", {"matrix": np.eye(2)}),
    ],
)
def test_oracle_kind_must_match_its_one_field(kind, fields):
    with pytest.raises(ValidationError):
        BlackBoxUnitary(1, kind, **fields)


def test_oracle_kinds_are_dense_and_diagonal_phase():
    assert BlackBoxUnitary(1, "dense", matrix=np.eye(2)).kind == "dense"
    assert BlackBoxUnitary(1, "diagonal-phase", phases=np.ones(2)).kind == "diagonal-phase"
    circuit = build_mps_ansatz(3, 1)
    rng = np.random.default_rng(12)
    q = planted_unitary(circuit, rng.uniform(0, 2 * np.pi, circuit.total_params), np.zeros(8))
    assert q.kind == "dense"
    assert q.planted_state.shape == (8,)
