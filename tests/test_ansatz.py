import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eigenmps import ansatz
from eigenmps.ansatz import (
    FUSED_WIDTH,
    MAX_BLOCK_WIDTH,
    _pauli_exponential,
    _pauli_sum,
    _pauli_traces,
    apply_staircase,
    block_matrices,
    block_parameter_gradient,
    block_unitary,
    build_mps_ansatz,
    cnot_lower_bound,
    cost_estimate,
    ebit_bound,
    embed_parameters,
    fused_windows,
    pauli_log_coefficients,
    pauli_strings,
    prepare_state,
    product_qubit_unitary,
)
from eigenmps.errors import CapacityError, ShapeError, ValidationError
from eigenmps.simulator import MAX_QUBITS, apply_matrix_raw, zero_state
from eigenmps.tensor import rank, schmidt_spectrum


def test_build_shapes():
    c = build_mps_ansatz(4, 0)
    assert len(c.blocks) == 4 and c.total_params == 8
    c = build_mps_ansatz(4, 1)
    assert len(c.blocks) == 3 and c.total_params == 45
    assert all(b.window.width == 2 for b in c.blocks)
    c = build_mps_ansatz(6, 2)
    assert len(c.blocks) == 4 and c.total_params == 252
    assert [b.window.targets for b in c.blocks] == [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]
    c = build_mps_ansatz(14, 7)  # k = n/2 at n = 14 takes the widest blocks
    assert len(c.blocks) == 7 and c.total_params == 7 * (4**8 - 1)
    assert all(b.window.width == MAX_BLOCK_WIDTH for b in c.blocks)


def test_budget_out_of_range():
    with pytest.raises(ValidationError):
        build_mps_ansatz(4, 3)
    with pytest.raises(ValidationError):
        build_mps_ansatz(5, -1)
    with pytest.raises(CapacityError):
        build_mps_ansatz(18, 8)  # width 9


def test_qubit_count_above_the_cap_raises_before_any_block_is_built(monkeypatch):
    # n = 10^6 once spent seconds building a million blocks before anything checked n
    monkeypatch.setattr(ansatz, "BlockSpec", lambda *a: pytest.fail("a block was built"))
    for n in (MAX_QUBITS + 1, 10**6):
        with pytest.raises(CapacityError, match="qubit count"):
            build_mps_ansatz(n, 0)


def test_parameter_tiling():
    for n, k in [(4, 0), (5, 1), (6, 2)]:
        c = build_mps_ansatz(n, k)
        covered = []
        for b in c.blocks:
            covered.extend(range(b.param_offset, b.param_offset + b.param_len))
        assert covered == list(range(c.total_params))


def test_pauli_strings_order():
    assert pauli_strings(1) == ["X", "Y", "Z"]
    two = pauli_strings(2)
    assert len(two) == 15
    assert two[:5] == ["IX", "IY", "IZ", "XI", "XX"]


PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def kron_pauli_stack(width):
    """(4^w - 1, 2^w, 2^w) stack of the non-identity Pauli strings, built by Kronecker
    products: the slow reference for the per-qubit transform."""
    mats = []
    for label in pauli_strings(width):
        m = np.ones((1, 1), dtype=np.complex128)
        for ch in label:
            m = np.kron(m, PAULI[ch])
        mats.append(m)
    return np.stack(mats)


@pytest.mark.parametrize("width", range(1, 6))
def test_pauli_transform_matches_the_kron_stack(width):
    rng = np.random.default_rng(30 + width)
    stack = kron_pauli_stack(width)
    coeffs = rng.normal(size=(3, 4**width - 1))
    mats = rng.normal(size=(3, 2**width, 2**width)) + 1j * rng.normal(size=(3, 2**width, 2**width))
    summed = np.tensordot(coeffs, stack, axes=1)
    assert np.max(np.abs(_pauli_sum(coeffs, width) - summed)) <= 1e-13
    traces = np.einsum("aij,bji->ba", stack, mats)
    assert np.max(np.abs(_pauli_traces(mats, width) - traces)) <= 1e-13


@pytest.mark.parametrize("width", range(1, 5))
def test_pauli_log_coefficients_recover_small_coefficients(width):
    # sum |c| < 1 bounds the generator's spectrum inside (-pi, pi), where the log is exact
    coeffs = np.random.default_rng(40 + width).uniform(-1.0, 1.0, 4**width - 1) / 4**width
    u = _pauli_exponential(coeffs[None], width)[0]
    assert np.max(np.abs(pauli_log_coefficients(u) - coeffs)) <= 1e-13


def test_block_unitary_checks_its_width_before_allocating(monkeypatch):
    params = np.zeros(0)
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated before the check"))
    for width in (0, -1):
        with pytest.raises(ValidationError, match="width"):
            block_unitary(params, width)
    with pytest.raises(CapacityError):
        block_unitary(params, MAX_BLOCK_WIDTH + 1)


def test_block_unitary_zero_params_is_identity():
    u = block_unitary(np.zeros(15), 2)
    assert np.allclose(u.entries, np.eye(4), atol=1e-14)


def test_block_unitary_y_rotation():
    u = block_unitary(np.array([0.0, np.pi / 2, 0.0]), 1)
    # exp(-i (pi/2) Y) sends |0> to |1> exactly
    assert np.allclose(u.entries[:, 0], [0.0, 1.0], atol=1e-12)


def test_block_unitary_length_check():
    with pytest.raises(ShapeError):
        block_unitary(np.zeros(4), 1)


@given(st.integers(0, 10**6))
def test_block_unitary_is_unitary(seed):
    params = np.random.default_rng(seed).normal(size=15)
    u = block_unitary(params, 2).entries
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


@given(st.integers(0, 10**6), st.integers(1, 2))
def test_block_unitary_lipschitz(seed, width):
    # || U(t + d) - U(t) ||_F <= 2 sum |d_j| at widths 1 and 2
    rng = np.random.default_rng(seed)
    m = 4**width - 1
    theta = rng.normal(size=m)
    delta = rng.normal(size=m) * 0.1
    diff = block_unitary(theta + delta, width).entries - block_unitary(theta, width).entries
    assert np.linalg.norm(diff) <= 2 * np.abs(delta).sum() + 1e-12


def test_block_wrappers_equal_block_matrices():
    rng = np.random.default_rng(12)
    for n, k in [(4, 0), (4, 1), (6, 2), (9, 4)]:  # batched over the blocks when k >= 1
        c = build_mps_ansatz(n, k)
        theta = rng.uniform(0, 2 * np.pi, c.total_params)
        mats = block_matrices(c, theta)
        assert isinstance(mats, np.ndarray) and mats.shape == (len(c.blocks), *(2**(k + 1),) * 2)
        for spec, m in zip(c.blocks, mats):
            chunk = theta[spec.param_offset : spec.param_offset + spec.param_len]
            if k == 0:
                u = product_qubit_unitary(chunk[0], chunk[1])
            else:
                u = block_unitary(chunk, spec.window.width)
            assert np.array_equal(u.entries, m)


def scalar_product_block(t1, t2):
    """One product-qubit block from scalar math.cos/math.sin: the per-block reference."""
    c, s = math.cos(t1), math.sin(t1)
    phase = complex(math.cos(t2), -math.sin(t2))
    return np.array([[c, -s], [phase * s, phase * c]], dtype=np.complex128)


def per_block_product_gradient(circuit, theta, windows):
    """The k = 0 chain rule block by block: the reference for the batched one."""
    grad = np.empty_like(theta)
    for spec, x in zip(circuit.blocks, windows):
        chunk = theta[spec.param_offset : spec.param_offset + spec.param_len]
        turned = scalar_product_block(chunk[0] + 0.5 * np.pi, chunk[1])
        g = np.array([np.trace(turned @ x), -1j * scalar_product_block(*chunk)[1] @ x[:, 1]])
        grad[spec.param_offset : spec.param_offset + spec.param_len] = 2.0 * g.real
    return grad


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_product_blocks_and_chain_rule_equal_the_per_block_loop(n):
    rng = np.random.default_rng((17, n))
    c = build_mps_ansatz(n, 0)
    for _ in range(20):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, c.total_params)
        windows = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        blocks = [scalar_product_block(theta[2 * i], theta[2 * i + 1]) for i in range(n)]
        assert np.array_equal(block_matrices(c, theta), np.stack(blocks))
        expected = per_block_product_gradient(c, theta, windows)
        assert np.array_equal(block_parameter_gradient(c, theta, windows), expected)


def test_prepare_state_zero_params():
    for n, k in [(3, 0), (4, 1), (6, 2)]:
        c = build_mps_ansatz(n, k)
        out = prepare_state(c, np.zeros(c.total_params))
        assert np.allclose(out.amplitudes, zero_state(n).amplitudes, atol=1e-14)


def test_product_family_matches_closed_form():
    rng = np.random.default_rng(3)
    c = build_mps_ansatz(3, 0)
    theta = rng.uniform(0, 2 * np.pi, 6)
    state = prepare_state(c, theta)
    expected = np.array([1.0], dtype=complex)
    for i in range(3):
        t1, t2 = theta[2 * i], theta[2 * i + 1]
        expected = np.kron(expected, [np.cos(t1), np.exp(-1j * t2) * np.sin(t1)])
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


@given(st.integers(0, 10**6))
def test_product_unitary_round_trip(seed):
    rng = np.random.default_rng(seed)
    t1, t2 = rng.uniform(0, 2 * np.pi, 2)
    col = product_qubit_unitary(t1, t2).entries[:, 0]
    assert np.allclose(col, [np.cos(t1), np.exp(-1j * t2) * np.sin(t1)], atol=1e-14)


def test_rank_bound_on_staircase_outputs():
    rng = np.random.default_rng(12)
    c = build_mps_ansatz(4, 1)
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi, c.total_params)
        state = prepare_state(c, theta)
        for cut in range(1, 4):
            assert schmidt_spectrum(state, cut).rank_eps <= 2


def test_embedding_reproduces_previous_state():
    rng = np.random.default_rng(9)
    for n, k in [(4, 1), (5, 1), (5, 2), (6, 3)]:
        prev = build_mps_ansatz(n, k - 1)
        target = build_mps_ansatz(n, k)
        theta_prev = rng.uniform(0, 2 * np.pi, prev.total_params)
        lifted = embed_parameters(theta_prev, target)
        a = prepare_state(prev, theta_prev).amplitudes
        b = prepare_state(target, lifted).amplitudes
        assert abs(np.vdot(a, b)) > 1 - 1e-10


def test_embedding_into_a_product_circuit_raises():
    with pytest.raises(ValidationError, match="k=0"):
        embed_parameters(np.zeros(8), build_mps_ansatz(4, 0))


def test_embedding_rejects_a_wrong_length_theta():
    # (4, 2) lifts from (4, 1), which has 3 blocks of 15 parameters; 8 fits only (4, 0)
    with pytest.raises(ShapeError, match="45 parameters"):
        embed_parameters(np.zeros(8), build_mps_ansatz(4, 2))


def test_cnot_lower_bound_values():
    assert cnot_lower_bound(2) == 0.0
    assert cnot_lower_bound(4) == 2.25
    assert cnot_lower_bound(8) == 13.5
    with pytest.raises(ValidationError):
        cnot_lower_bound(3)
    with pytest.raises(ValidationError):
        cnot_lower_bound(1)


def test_ebit_bound_values():
    assert ebit_bound(6, 2) == 2
    assert ebit_bound(5, 10) == 3
    assert ebit_bound(4, 0) == 0


def test_cost_estimate_values():
    assert cost_estimate(4, 2, 1) == 16
    assert cost_estimate(10, 4, 100) == 16000
    assert cost_estimate(1, 1, 1) == 1
    with pytest.raises(ValidationError):
        cost_estimate(0, 1, 1)


def test_single_qubit_circuit_allowed():
    c = build_mps_ansatz(1, 0)
    assert c.total_params == 2
    state = prepare_state(c, np.array([np.pi / 4, 0.0]))
    assert np.allclose(state.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)])


def test_rank_of_wider_budgets():
    rng = np.random.default_rng(21)
    c = build_mps_ansatz(6, 2)
    theta = rng.uniform(0, 2 * np.pi, c.total_params)
    assert rank(prepare_state(c, theta)) <= 4


def per_block_staircase(circuit, mats, amps, adjoint=False):
    """One apply_matrix_raw per block, the adjoint through one conjugate-transposed copy."""
    steps = zip(circuit.blocks, mats)
    if adjoint:
        steps = zip(circuit.blocks[::-1], mats.conj().swapaxes(1, 2)[::-1])
    for spec, m in steps:
        amps = apply_matrix_raw(amps, circuit.n, m, spec.window.targets)
    return amps


@pytest.mark.parametrize("n", range(1, 15))
def test_fused_product_layer_matches_the_per_block_loop(n):
    rng = np.random.default_rng((91, n))
    circuit = build_mps_ansatz(n, 0)
    mats = block_matrices(circuit, rng.uniform(0, 2 * np.pi, circuit.total_params))
    windows = fused_windows(circuit, mats)
    assert [len(t) for t, _ in windows] == [FUSED_WIDTH] * (n // FUSED_WIDTH) + [n % FUSED_WIDTH] * (
        n % FUSED_WIDTH > 0)  # ceil(n / FUSED_WIDTH) applies in place of n
    for lead in [(), (4,)]:
        amps = rng.normal(size=(*lead, 2**n)) + 1j * rng.normal(size=(*lead, 2**n))
        for adjoint in (False, True):
            out = apply_staircase(n, windows, amps, adjoint)
            reference = per_block_staircase(circuit, mats, amps, adjoint)
            assert out.shape == amps.shape
            assert np.max(np.abs(out - reference)) <= 1e-12, (lead, adjoint)


@pytest.mark.parametrize("n, k", [(2, 1), (5, 1), (6, 2), (7, 3), (10, 2), (10, 4)])
def test_overlapping_blocks_apply_one_by_one_bit_for_bit(n, k):
    rng = np.random.default_rng((92, n, k))
    circuit = build_mps_ansatz(n, k)
    mats = block_matrices(circuit, rng.uniform(0, 2 * np.pi, circuit.total_params))
    windows = fused_windows(circuit, mats)
    assert [t for t, _ in windows] == [b.window.targets for b in circuit.blocks]
    for lead in [(), (4,)]:
        amps = rng.normal(size=(*lead, 2**n)) + 1j * rng.normal(size=(*lead, 2**n))
        for adjoint in (False, True):
            out = apply_staircase(n, windows, amps, adjoint)
            assert out.tobytes() == per_block_staircase(circuit, mats, amps, adjoint).tobytes()
