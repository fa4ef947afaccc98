import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ghz, moveaxis_apply, random_state, random_unitary
from eigenmps.ansatz import _pauli_sum
from eigenmps.errors import CapacityError, NumericalError, ShapeError, ValidationError
from eigenmps.oracle import tfi_hamiltonian
from eigenmps.simulator import (
    MAX_SHOTS,
    DenseUnitary,
    QubitWindow,
    Statevector,
    apply_block,
    apply_matrix_raw,
    hermitian_exp,
    inner_product,
    projector_prob,
    qubit_zero_probs,
    sample_probs,
    zero_state,
    zero_weight,
)

X = DenseUnitary(np.array([[0, 1], [1, 0]]))
H = DenseUnitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_zero_state_basic():
    assert np.array_equal(zero_state(1).amplitudes, [1, 0])
    assert np.array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])
    e0 = np.zeros(8)
    e0[0] = 1
    assert np.array_equal(zero_state(3).amplitudes, e0)


@pytest.mark.parametrize("n", [0, -1, 21])
def test_zero_state_capacity(n):
    with pytest.raises(CapacityError):
        zero_state(n)


def test_identity_block_is_bitwise_noop():
    state = random_state(np.random.default_rng(1), 3)
    eye = DenseUnitary(np.eye(4))
    out = apply_block(state, eye, QubitWindow((1, 2)))
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-15


def test_pauli_x_fixes_big_endian_convention():
    # qubit 0 is the most significant bit: X on qubit 0 of |00> gives index 2
    out = apply_block(zero_state(2), X, QubitWindow((0,)))
    assert np.allclose(out.amplitudes, [0, 0, 1, 0])


def test_hadamard_on_single_qubit():
    out = apply_block(zero_state(1), H, QubitWindow((0,)))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_block_shape_errors():
    with pytest.raises(ShapeError):
        apply_block(zero_state(2), X, QubitWindow((0, 1)))
    with pytest.raises(ShapeError):
        apply_block(zero_state(2), X, QubitWindow((5,)))


def test_non_unitary_rejected():
    with pytest.raises(ValidationError):
        DenseUnitary(np.array([[1, 0], [0, 2]]))


def test_nan_block_rejected():
    with pytest.raises(ValidationError, match="unitary"):
        DenseUnitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_window_validation():
    with pytest.raises(ValidationError):
        QubitWindow((1, 1))
    with pytest.raises(ValidationError):
        QubitWindow((-1,))
    for gapped_or_reversed in [(0, 2), (1, 0), (2, 1, 0), (0, 1, 3)]:
        with pytest.raises(ValidationError, match="consecutive"):
            QubitWindow(gapped_or_reversed)


def test_projector_prob_examples():
    for i in range(3):
        assert projector_prob(zero_state(3), i) == pytest.approx(1.0)
    plus = Statevector(1, np.array([1, 1]) / np.sqrt(2))
    assert projector_prob(plus, 0) == pytest.approx(0.5)
    for i in range(3):
        assert projector_prob(ghz(3), i) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        projector_prob(plus, 1)


def test_projector_prob_equals_marginals():
    state = random_state(np.random.default_rng(13), 5)
    marginals = qubit_zero_probs(state.amplitudes, 5)
    assert [projector_prob(state, i) for i in range(5)] == marginals.tolist()


def test_inner_product_examples():
    phi = random_state(np.random.default_rng(7), 3)
    assert inner_product(phi, phi) == pytest.approx(1.0)
    flipped = apply_block(zero_state(1), X, QubitWindow((0,)))
    assert inner_product(zero_state(1), flipped) == pytest.approx(0.0)
    rotated = apply_block(zero_state(1), H, QubitWindow((0,)))
    assert inner_product(zero_state(1), rotated) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ShapeError):
        inner_product(zero_state(1), zero_state(2))


def test_sample_probs_zero_state_is_exact():
    assert np.array_equal(sample_probs(zero_state(4), 100, seed=3), np.ones(4))


def test_sample_probs_binomial_concentration():
    plus = Statevector(1, np.array([1, 1]) / np.sqrt(2))
    est = sample_probs(plus, 10**6, seed=11)
    assert abs(est[0] - 0.5) < 0.005


def test_sample_probs_deterministic():
    state = random_state(np.random.default_rng(5), 3)
    a = sample_probs(state, 500, seed=42)
    b = sample_probs(state, 500, seed=42)
    assert np.array_equal(a, b)
    with pytest.raises(ValidationError):
        sample_probs(state, 0, seed=1)


def random_window(rng, n, width):
    """A window of `width` consecutive qubits at a random start."""
    j = int(rng.integers(0, n - width + 1))
    return QubitWindow(tuple(range(j, j + width)))


@given(st.integers(0, 10**6))
def test_norm_conserved_under_random_blocks(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, 4)
    for _ in range(4):
        width = int(rng.integers(1, 3))
        u = DenseUnitary(random_unitary(rng, 2**width))
        state = apply_block(state, u, random_window(rng, 4, width))
    assert abs(state.norm() - 1.0) < 1e-10


@given(st.integers(0, 10**6))
def test_apply_block_is_linear(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, 4)
    b = random_state(rng, 4)
    alpha = complex(rng.normal(), rng.normal())
    beta = complex(rng.normal(), rng.normal())
    u = DenseUnitary(random_unitary(rng, 4))
    window = random_window(rng, 4, 2)
    mixed = Statevector(4, alpha * a.amplitudes + beta * b.amplitudes)
    lhs = apply_block(mixed, u, window).amplitudes
    rhs = (
        alpha * apply_block(a, u, window).amplitudes
        + beta * apply_block(b, u, window).amplitudes
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(st.integers(0, 10**6))
def test_block_composition_matches_dense_product(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, 4)
    window = random_window(rng, 4, 2)
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    stepwise = apply_block(apply_block(state, DenseUnitary(u), window), DenseUnitary(v), window)
    fused = apply_block(state, DenseUnitary(v @ u), window)
    assert np.max(np.abs(stepwise.amplitudes - fused.amplitudes)) < 1e-12


@given(st.integers(0, 10**6))
def test_projector_probs_of_state_and_flipped_state_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, 4)
    i = int(rng.integers(0, 4))
    flipped = apply_block(state, X, QubitWindow((i,)))
    assert projector_prob(state, i) + projector_prob(flipped, i) == pytest.approx(1.0, abs=1e-12)


def test_basis_index_contract():
    # index of bitstring b_0..b_{n-1} is sum b_i 2^(n-1-i)
    n = 4
    for bits in [(1, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1)]:
        state = zero_state(n)
        for i, b in enumerate(bits):
            if b:
                state = apply_block(state, X, QubitWindow((i,)))
        expected = sum(b * 2 ** (n - 1 - i) for i, b in enumerate(bits))
        assert state.amplitudes[expected] == pytest.approx(1.0)


def kron_operator(n, matrix, targets):
    """matrix on the window j .. j+w-1 and the identity elsewhere: I_(2^j) (x) m (x) I_rest by np.kron."""
    j, w = targets[0], len(targets)
    return np.kron(np.kron(np.eye(2**j), matrix), np.eye(2 ** (n - j - w)))


def every_window(n):
    """Every window: every run of consecutive qubits j .. j+w-1, widths 1 .. n."""
    return [tuple(range(j, j + w)) for w in range(1, n + 1) for j in range(n - w + 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_matrix_raw_matches_the_kron_operator_and_the_moveaxis_reference(n):
    rng = np.random.default_rng((67, n))
    for targets in every_window(n):
        m = random_unitary(rng, 2 ** len(targets))
        op = kron_operator(n, m, targets)
        for lead in [(), (3,), (2, 3)]:
            amps = rng.normal(size=(*lead, 2**n)) + 1j * rng.normal(size=(*lead, 2**n))
            out = apply_matrix_raw(amps, n, m, targets)
            rows = amps.reshape(-1, 2**n)
            one_by_one = np.array([apply_matrix_raw(v, n, m, targets) for v in rows])
            reference = np.array([moveaxis_apply(v, n, m, targets) for v in rows])
            assert out.shape == amps.shape
            for other in (one_by_one, reference, rows @ op.T):
                assert np.max(np.abs(out.reshape(-1, 2**n) - other)) <= 1e-13, (targets, lead)


def loop_sample_probs(state, shots, seed):
    """Per-qubit zero fractions, one pass over the outcomes per qubit: the slow reference."""
    rng = np.random.default_rng(seed)
    p = np.abs(state.amplitudes) ** 2
    outcomes = rng.choice(p.size, size=shots, p=p / p.sum())
    estimates = np.empty(state.n)
    for i in range(state.n):
        bits = (outcomes >> (state.n - 1 - i)) & 1
        estimates[i] = 1.0 - float(bits.mean())
    return estimates


def test_sample_probs_equals_the_per_qubit_loop_bit_for_bit():
    rng = np.random.default_rng(71)
    for shots in (1, 3, 7, 100, 1000, 1024, 4097):
        for n in range(1, 11):
            state = random_state(rng, n)
            seed = int(rng.integers(2**31))
            assert sample_probs(state, shots, seed).tolist() == loop_sample_probs(
                state, shots, seed).tolist(), (shots, n)


def test_sample_probs_is_pinned_on_fixed_seeds():
    # the counts are integers, so the split sums are exact: the digest of the per-qubit loop
    rng = np.random.default_rng(81)
    digest = hashlib.sha256()
    for n in range(1, 13):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = Statevector(n, amps / np.linalg.norm(amps))
        for shots in (1, 5, 1000, 4097):
            digest.update(sample_probs(state, shots, int(rng.integers(2**31))).tobytes())
    assert digest.hexdigest() == "8670c8cd30211e466cfa4754fd9c0f74d904241c3745018711f692859c5fb0c3"


def test_sample_probs_above_the_shot_cap_is_refused_before_drawing():
    with pytest.raises(CapacityError, match="shots"):
        sample_probs(zero_state(2), MAX_SHOTS + 1, seed=0)
    with pytest.raises(CapacityError, match="shots"):
        sample_probs(zero_state(2), 4611686018427387904, seed=0)


@pytest.mark.parametrize("amps", [[np.nan, 1.0], [0.0, 0.0], [np.inf, 1.0]], ids=["nan", "zero", "inf"])
def test_sample_probs_refuses_a_state_without_a_finite_positive_norm(amps):
    # numpy's sampler would raise ValueError, a traceback; NumericalError exits with code 4
    with pytest.raises(NumericalError, match="squared norm"):
        sample_probs(Statevector(1, np.array(amps, dtype=complex)), 10, seed=0)


@pytest.mark.parametrize("n", range(1, 21))
def test_split_marginals_and_weight_match_the_take_and_add_outer_references(n):
    rng = np.random.default_rng((83, n))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    cube = (np.abs(amps) ** 2).reshape((2,) * n)
    taken = np.array([cube.take(0, axis=i).sum() for i in range(n)])
    assert np.max(np.abs(qubit_zero_probs(amps, n) - taken)) <= 1e-12 * taken.max()
    values = rng.uniform(0, 5, n)
    outer = np.asarray(functools.reduce(np.add.outer, ([v, 0.0] for v in values))).ravel()
    assert np.max(np.abs(zero_weight(values, n) - outer)) <= 1e-12 * outer.max()


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_apply_matrix_raw_on_a_stack_equals_row_by_row_for_every_window_and_both_forms(rows):
    # the widened form is taken once rows 2^j > 2^w rest^2: counting rows moves that boundary
    n, forms = 10, set()
    rng = np.random.default_rng((84, rows))
    stack = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    for w in range(1, n + 1):
        for j in range(n - w + 1):
            m = random_unitary(rng, 2**w)
            out = apply_matrix_raw(stack, n, m, tuple(range(j, j + w)))
            one_by_one = np.array([apply_matrix_raw(v, n, m, tuple(range(j, j + w))) for v in stack])
            assert np.max(np.abs(out - one_by_one)) <= 1e-13, (j, w)
            forms.add(rows * 2**j <= 2**w * 4 ** (n - j - w))
    assert forms == {True, False}


def test_hermitian_exp_equals_the_two_kernels_it_replaces_bit_for_bit():
    # the Hamiltonian oracle's former evolution, on one real-symmetric and one complex h
    rng = np.random.default_rng(72)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    for h in (tfi_hamiltonian(6, 1.0, 0.7), m + m.conj().T):
        lam, vec = np.linalg.eigh(h)
        expected = (vec * np.exp(-1j * lam * 0.9)) @ vec.conj().T
        assert hermitian_exp(h, 0.9).tobytes() == expected.tobytes()
    # the Pauli blocks' former exponential, where t = 1.0 must not flip a sign of zero
    for width in (1, 2, 3):
        for coeffs in (rng.normal(size=(4, 4**width - 1)), np.zeros((2, 4**width - 1))):
            lam, vec = np.linalg.eigh(_pauli_sum(coeffs, width))
            expected = (vec * np.exp(-1j * lam)[:, None, :]) @ vec.conj().swapaxes(1, 2)
            assert hermitian_exp(_pauli_sum(coeffs, width), 1.0).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [np.diag([1e300, 0.0]), np.stack([np.eye(2), np.diag([0.0, 1e300])])],
                         ids=["one", "stack"])
def test_hermitian_exp_rejects_overflowing_phases(h):
    with pytest.raises(ValidationError, match="not finite"):
        hermitian_exp(h, 1e10)
