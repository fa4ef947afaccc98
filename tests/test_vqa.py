import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import moveaxis_apply, planted_recovery_instance, random_3sat, random_unitary
from eigenmps import vqa
from eigenmps.ansatz import block_matrices, block_parameter_gradient, build_mps_ansatz
from eigenmps.ansatz import prepare_state
from eigenmps.errors import CapacityError, NumericalError, ShapeError, ValidationError
from eigenmps.oracle import BlackBoxUnitary, default_sat_time, from_sat_instance
from eigenmps.oracle import apply as oracle_apply, apply_raw, from_dense_matrix, planted_unitary
from eigenmps.oracle import Sectors, from_hamiltonian_evolution, tfi_hamiltonian, to_matrix
from eigenmps.simulator import inner_product, qubit_zero_probs, zero_state
from eigenmps.vqa import (
    OptimizerConfig,
    central_difference,
    certificate,
    log_likelihood,
    loss_and_gradient,
    loss_gradient_fd,
    minimize,
    objective_report,
    probabilities,
    run_sweep,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def dense_pipeline_probs(circuit, theta, q):
    """Brute force: materialize U(theta) by naive Kronecker products."""
    n = circuit.n
    total = np.eye(2**n, dtype=complex)
    for spec, block in zip(circuit.blocks, block_matrices(circuit, theta)):
        j = spec.window.targets[0]
        w = spec.window.width
        full = np.kron(np.eye(2**j), np.kron(block, np.eye(2 ** (n - j - w))))
        total = full @ total
    psi = total.conj().T @ to_matrix(q) @ total @ np.eye(2**n)[:, 0]
    probs = np.zeros(n)
    for x, amp in enumerate(psi):
        for i in range(n):
            if not (x >> (n - 1 - i)) & 1:
                probs[i] += abs(amp) ** 2
    return probs, psi


def test_probabilities_identity_oracle():
    circuit = build_mps_ansatz(4, 1)
    q = from_dense_matrix(np.eye(16))
    theta = np.random.default_rng(0).uniform(0, 2 * np.pi, circuit.total_params)
    assert np.allclose(probabilities(circuit, theta, q), np.ones(4), atol=1e-12)


def test_probabilities_single_qubit_hadamard():
    circuit = build_mps_ansatz(1, 0)
    q = from_dense_matrix(HADAMARD)
    p = probabilities(circuit, np.zeros(2), q)
    assert p[0] == pytest.approx(0.5)


def test_probabilities_match_dense_pipeline():
    rng = np.random.default_rng(19)
    circuit = build_mps_ansatz(4, 1)
    theta_star = rng.uniform(0, 2 * np.pi, circuit.total_params)
    q = planted_unitary(circuit, theta_star, rng.uniform(0, 2 * np.pi, 16))
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
        expected, _ = dense_pipeline_probs(circuit, theta, q)
        assert np.max(np.abs(probabilities(circuit, theta, q) - expected)) < 1e-10


def test_log_likelihood_examples():
    assert log_likelihood(np.array([1.0, 1.0, 1.0])) == 0.0
    assert log_likelihood(np.array([0.5, 0.5])) == pytest.approx(1.3862944, abs=1e-7)
    assert log_likelihood(np.array([0.0, 1.0])) == pytest.approx(
        -math.log(1e-12), abs=1e-6
    )


def test_certificate_examples():
    circuit = build_mps_ansatz(1, 0)
    identity = from_dense_matrix(np.eye(2))
    for t1 in (0.0, 0.4, 1.1):
        assert certificate(circuit, np.array([t1, 0.0]), identity) == pytest.approx(1.0)
    x_oracle = from_dense_matrix(np.array([[0, 1], [1, 0]]))
    assert certificate(circuit, np.zeros(2), x_oracle) == pytest.approx(0.0, abs=1e-12)
    plus = np.array([np.pi / 4, 0.0])
    assert certificate(circuit, plus, x_oracle) == pytest.approx(1.0)


def test_certificate_identity_between_both_expressions():
    rng = np.random.default_rng(23)
    circuit = build_mps_ansatz(4, 1)
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
        q = from_dense_matrix(random_unitary(rng, 16))
        via_pipeline = certificate(circuit, theta, q)
        prepared = prepare_state(circuit, theta)
        direct = abs(inner_product(prepared, oracle_apply(q, prepared))) ** 2
        assert via_pipeline == pytest.approx(direct, abs=1e-12)


def test_certificate_dominated_by_each_probability():
    rng = np.random.default_rng(29)
    circuit = build_mps_ansatz(4, 1)
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
        q = from_dense_matrix(random_unitary(rng, 16))
        report = objective_report(circuit, theta, q)
        assert report.certificate <= report.p.min() + 1e-10


def test_zero_loss_forces_certificate_one():
    rng = np.random.default_rng(31)
    circuit = build_mps_ansatz(4, 1)
    theta_star = rng.uniform(0, 2 * np.pi, circuit.total_params)
    q = planted_unitary(circuit, theta_star, rng.uniform(0, 2 * np.pi, 16))
    report = objective_report(circuit, theta_star, q)
    assert report.loss < 1e-10
    assert report.certificate > 1 - 1e-8


def test_gradient_zero_on_flat_landscape():
    circuit = build_mps_ansatz(3, 1)
    q = from_dense_matrix(np.eye(8))
    theta = np.random.default_rng(2).uniform(0, 2 * np.pi, circuit.total_params)
    grad = loss_gradient_fd(circuit, theta, q, step=1e-5)
    assert np.max(np.abs(grad)) < 1e-9


def test_loss_gradient_fd_is_the_central_difference_of_the_loss():
    circuit = build_mps_ansatz(3, 1)
    q = from_dense_matrix(random_unitary(np.random.default_rng(14), 8))
    theta = np.random.default_rng(15).uniform(0, 2 * np.pi, circuit.total_params)

    def loss(t):
        return log_likelihood(probabilities(circuit, t, q))

    def cubic(t):
        return float(t[0] ** 3 + 2.0 * t[0] * t[1])

    expected = central_difference(loss, theta, 1e-5)
    assert np.array_equal(loss_gradient_fd(circuit, theta, q, step=1e-5), expected)
    # up before down, divided by 2 step
    x = np.array([0.3, -1.1])
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1e-3
        up, down = cubic(x + e), cubic(x - e)
        assert central_difference(cubic, x, 1e-3)[j] == (up - down) / (2.0 * 1e-3)


def test_gradient_matches_analytic_model():
    # With q = Z on one qubit, the loss is -ln cos^2(2 t1), whose derivative
    # in t1 is 4 tan(2 t1); evaluate at 2 t1 = 0.3.
    circuit = build_mps_ansatz(1, 0)
    q = from_dense_matrix(np.diag([1.0, -1.0]))
    theta = np.array([0.15, 0.0])
    grad = loss_gradient_fd(circuit, theta, q, step=1e-5)
    assert grad[0] == pytest.approx(4 * math.tan(0.3), abs=1e-6)
    assert grad[1] == pytest.approx(0.0, abs=1e-9)


def test_gradient_step_consistency():
    rng = np.random.default_rng(37)
    circuit = build_mps_ansatz(4, 1)
    theta_star = rng.uniform(0, 2 * np.pi, circuit.total_params)
    q = planted_unitary(circuit, theta_star, rng.uniform(0, 2 * np.pi, 16))
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    coarse = loss_gradient_fd(circuit, theta, q, step=1e-4)
    fine = loss_gradient_fd(circuit, theta, q, step=1e-5)
    assert np.max(np.abs(coarse - fine)) < 1e-4


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan")])
def test_loss_gradient_fd_rejects_a_step_that_is_not_positive(step):
    circuit = build_mps_ansatz(2, 0)
    q = from_dense_matrix(np.eye(4))
    theta = np.zeros(circuit.total_params)
    with pytest.raises(ValidationError, match="step"):
        loss_gradient_fd(circuit, theta, q, step=step)


def test_minimize_quadratic_bowl():
    config = OptimizerConfig(method="fd-gradient-descent", max_iters=200, tol_loss=1e-12)
    theta, trace = minimize(lambda t: float(np.sum(t**2)), np.array([1.0, 1.0]), config)
    assert float(np.sum(theta**2)) < 1e-8
    best = [loss for _, loss in trace]
    assert all(b >= a for a, b in zip(best[1:], best))  # non-increasing


def test_minimize_rosenbrock():
    def rosenbrock(t):
        return float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2)

    config = OptimizerConfig(method="fd-gradient-descent", max_iters=2000, tol_loss=1e-14)
    theta, _ = minimize(rosenbrock, np.array([-1.2, 1.0]), config)
    assert np.max(np.abs(theta - 1.0)) < 1e-4


def test_minimize_planted_two_qubits():
    rng = np.random.default_rng(41)
    circuit = build_mps_ansatz(2, 1)
    theta_star = rng.uniform(0, 2 * np.pi, circuit.total_params)
    q = planted_unitary(circuit, theta_star, rng.uniform(0, 2 * np.pi, 4))

    def objective(t):
        return log_likelihood(probabilities(circuit, t, q))

    best_loss = math.inf
    best_theta = None
    for restart in range(5):
        theta0 = np.random.default_rng((41, restart)).uniform(0, 2 * np.pi, 15)
        config = OptimizerConfig(
            method="fd-gradient-descent", max_iters=3000, tol_loss=1e-14, seed=restart
        )
        theta, _ = minimize(objective, theta0, config)
        loss = objective(theta)
        if loss < best_loss:
            best_loss, best_theta = loss, theta
    assert best_loss < 1e-6
    # ground truth: the optimum must sit on an eigenvector of the dense matrix
    lam, vec = np.linalg.eig(to_matrix(q))
    prepared = prepare_state(circuit, best_theta).amplitudes
    assert np.max(np.abs(vec.conj().T @ prepared)) > 1 - 1e-4


def test_minimize_aborts_on_non_finite():
    config = OptimizerConfig(method="fd-gradient-descent", max_iters=50)
    with pytest.raises(NumericalError, match="theta"):
        minimize(lambda t: float("nan"), np.array([0.5]), config)
    config = OptimizerConfig(method="lbfgs", max_iters=50)
    with pytest.raises(NumericalError, match="theta"):
        minimize(lambda t: (math.inf, np.zeros(1), 0.0), np.array([0.5]), config)


def test_the_non_finite_report_quotes_theta_short():
    # at (14, 7) the message held all 458 745 parameters, 2 293 757 characters
    theta = np.random.default_rng(3).uniform(0, 2 * np.pi, build_mps_ansatz(14, 7).total_params)
    assert theta.size == 458_745
    with pytest.raises(NumericalError) as info:
        minimize(lambda t: (math.nan, t, 0.0), theta, OptimizerConfig())
    assert str(info.value).startswith(f"objective returned nan at theta=[{float(theta[0])!r}, ")
    assert len(str(info.value)) <= 200


def test_objective_report_rejects_an_oracle_on_other_qubits():
    circuit = build_mps_ansatz(3, 1)
    with pytest.raises(ShapeError, match="oracle on 2 qubits"):
        objective_report(circuit, np.zeros(circuit.total_params), from_dense_matrix(np.eye(4)))


def test_spsa_and_fd_methods_run():
    target = np.array([0.3, -0.7, 1.1])

    def objective(t):
        return float(np.sum((t - target) ** 2))

    for method in ("spsa", "fd-gradient-descent"):
        config = OptimizerConfig(method=method, max_iters=400, tol_loss=1e-12, seed=5)
        theta, trace = minimize(objective, np.zeros(3), config)
        assert objective(theta) < 1e-2, method
        assert trace


def test_fd_gradient_descent_at_zero_gradient():
    config = OptimizerConfig(method="fd-gradient-descent", max_iters=50, seed=0)
    # a constant objective has an exactly zero central difference
    theta, trace = minimize(lambda t: 0.25, np.array([0.1, 0.2]), config)
    assert trace and trace[0] == (0, 0.25)
    assert theta.tolist() == [0.1, 0.2]
    # the identity oracle's loss is flat: the first budget reaches the certificate
    result = run_sweep(2, from_dense_matrix(np.eye(16)), config)
    entry = result.per_k[0]
    assert entry.trace and entry.trace[0][0] == 0 and entry.trace[0][1] < 1e-12
    assert result.terminated_early and len(result.per_k) == 1
    assert entry.k == 0 and entry.certificate == pytest.approx(1.0)


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(method="annealing")
    with pytest.raises(ValidationError, match="nelder-mead"):
        OptimizerConfig(method="nelder-mead")
    with pytest.raises(ValidationError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValidationError, match="tol_loss"):
        OptimizerConfig(tol_loss=-1e-9)
    with pytest.raises(ValidationError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValidationError, match="seed"):
        OptimizerConfig(seed=-1)


def test_run_sweep_identity_terminates_at_zero():
    q = from_dense_matrix(np.eye(16))
    config = OptimizerConfig(max_iters=50, restarts=1, seed=0)
    result = run_sweep(2, q, config)
    assert result.terminated_early
    assert len(result.per_k) == 1
    entry = result.per_k[0]
    assert entry.k == 0
    assert entry.loss < 1e-12
    assert entry.certificate == pytest.approx(1.0)


def test_run_sweep_validation():
    q = from_dense_matrix(np.eye(4))
    with pytest.raises(ValidationError):
        run_sweep(5, q, OptimizerConfig())


def test_run_sweep_checks_the_widest_budget_before_the_first(monkeypatch):
    # k_max=8 needs width-9 blocks; found in the sweep, it would come after budgets 0..7
    monkeypatch.setattr(vqa, "minimize", lambda *args, **kwargs: pytest.fail("a budget ran"))
    q = BlackBoxUnitary(18, "diagonal-phase", phases=np.ones(2**18, dtype=complex))
    with pytest.raises(CapacityError, match="k=8"):
        run_sweep(8, q, OptimizerConfig())


def test_certificate_is_capped_at_one_and_passes_nan_through():
    assert abs(1.0 + 2**-52) ** 2 > 1.0
    assert vqa._overlap(np.array([1.0 + 2**-52 + 0j])) == 1.0
    assert math.isnan(vqa._overlap(np.array([complex("nan")])))


def _sweep_fingerprint(result):
    return [
        (e.k, e.theta.tolist(), e.loss, e.certificate, e.trace)
        for e in result.per_k
    ]


def test_run_sweep_deterministic_exact_and_shots():
    q = planted_recovery_instance(0)
    config = OptimizerConfig(method=None, max_iters=60, restarts=2, seed=77)
    a = run_sweep(1, q, config, cert_tol=1e-9)
    b = run_sweep(1, q, config, cert_tol=1e-9)
    assert _sweep_fingerprint(a) == _sweep_fingerprint(b)
    noisy_config = OptimizerConfig(max_iters=40, restarts=2, seed=78)
    a = run_sweep(1, q, noisy_config, cert_tol=1e-9, shots=128)
    b = run_sweep(1, q, noisy_config, cert_tol=1e-9, shots=128)
    assert _sweep_fingerprint(a) == _sweep_fingerprint(b)


def test_run_sweep_warm_start_monotone_certificates():
    q = planted_recovery_instance(1)
    config = OptimizerConfig(
        method="fd-gradient-descent", max_iters=150, tol_loss=1e-12, restarts=3, seed=11
    )
    result = run_sweep(2, q, config, cert_tol=1e-4)
    certs = [e.certificate for e in result.per_k]
    assert all(b >= a for a, b in zip(certs, certs[1:]))


def random_oracle(rng, n, dense):
    """A Haar-random dense oracle or a random diagonal-phase one on n qubits."""
    if dense:
        return from_dense_matrix(random_unitary(rng, 2**n))
    return BlackBoxUnitary(n, "diagonal-phase", phases=np.exp(1j * rng.uniform(0, 2 * np.pi, 2**n)))


@given(
    n=st.integers(1, 5),
    k_share=st.floats(0.0, 1.0),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_and_gradient_matches_central_differences(n, k_share, dense, seed):
    # the adjoint gradient is exact; the step-1e-5 central difference is good to ~1e-9 here
    rng = np.random.default_rng(seed)
    circuit = build_mps_ansatz(n, round(k_share * (n // 2)))
    q = random_oracle(rng, n, dense)
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    _, grad, _ = loss_and_gradient(circuit, theta, q)
    fd = loss_gradient_fd(circuit, theta, q, step=1e-5)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


def test_loss_and_gradient_on_a_flip_sector_oracle_matches_central_differences():
    # the tfi oracle keeps its symmetry sectors, so the adjoint apply runs through their .T
    rng = np.random.default_rng(61)
    circuit = build_mps_ansatz(6, 1)
    q = from_hamiltonian_evolution(tfi_hamiltonian(6, 1.0, 0.7), 0.9)
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    _, grad, _ = loss_and_gradient(circuit, theta, q)
    fd = loss_gradient_fd(circuit, theta, q, step=1e-5)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


@pytest.mark.parametrize("n, k", [(8, 3), (10, 5), (14, 7)])
def test_loss_and_gradient_on_wide_blocks_matches_a_directional_difference(n, k):
    # block widths 4, 6 and 8, past the n <= 5 above: the gradient along one seeded direction
    rng = np.random.default_rng((59, n, k))
    circuit = build_mps_ansatz(n, k)
    q = random_oracle(rng, n, dense=False)
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    direction = rng.normal(size=circuit.total_params)
    direction /= np.linalg.norm(direction)
    _, grad, _ = loss_and_gradient(circuit, theta, q)
    loss = lambda t: log_likelihood(probabilities(circuit, t, q))
    along = (loss(theta + 1e-4 * direction) - loss(theta - 1e-4 * direction)) / 2e-4
    assert abs(grad @ direction - along) <= 1e-6


def four_vector_gradient(circuit, theta, q):
    """The adjoint gradient with four running vectors on the moveaxis kernel: the slow reference."""
    n, steps = circuit.n, list(zip(circuit.blocks, block_matrices(circuit, theta)))

    def staircase(amps, adjoint=False):
        for spec, m in reversed(steps) if adjoint else steps:
            amps = moveaxis_apply(amps, n, m.conj().T if adjoint else m, spec.window.targets)
        return amps

    state = staircase(zero_state(n).amplitudes)
    kicked = apply_raw(q, state)
    psi = staircase(kicked, adjoint=True)
    p = qubit_zero_probs(psi, n)
    inverse = np.divide(1.0, p, out=np.zeros(n), where=p > vqa.DEFAULT_CLAMP)
    weight = np.asarray(functools.reduce(np.add.outer, ([v, 0.0] for v in inverse)))
    ahead = staircase(-weight.ravel() * psi)
    pulled = apply_raw(q, ahead, adjoint=True)
    windows = []
    for spec, m in reversed(steps):
        targets, undo = spec.window.targets, m.conj().T
        state, ahead = [moveaxis_apply(v, n, undo, targets) for v in (state, ahead)]
        shape = (2 ** targets[0], 2 ** len(targets), -1)
        windows.append(sum(np.einsum("prq,psq->rs", u.reshape(shape), v.reshape(shape).conj())
                           for u, v in ((state, pulled), (ahead, kicked))))
        kicked, pulled = [moveaxis_apply(v, n, undo, targets) for v in (kicked, pulled)]
    return block_parameter_gradient(circuit, theta, windows[::-1])


@pytest.mark.parametrize("n", range(1, 9))
def test_loss_and_gradient_matches_the_four_vector_reverse_sweep(n):
    rng = np.random.default_rng((73, n))
    for k in range(n // 2 + 1):
        circuit = build_mps_ansatz(n, k)
        for dense in (True, False):
            q = random_oracle(rng, n, dense)
            theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
            _, grad, _ = loss_and_gradient(circuit, theta, q)
            reference = four_vector_gradient(circuit, theta, q)
            scale = float(np.max(np.abs(reference)))
            assert np.max(np.abs(grad - reference)) <= 1e-12 * scale, (k, dense)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_window_contraction_equals_the_einsum_for_every_window(n):
    rng = np.random.default_rng((79, n))
    rows = rng.normal(size=(4, 2**n)) + 1j * rng.normal(size=(4, 2**n))
    for w in range(1, n + 1):
        for j in range(n - w + 1):
            u, v = rows.reshape(2, 2, 2**j, 2**w, -1)  # [state, ahead], [pulled, kicked]
            reference = np.einsum("aprq,apsq->rs", u, v.conj())
            out = vqa._window_product(rows, 2**w, 2 ** (n - j - w))
            assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference)), (j, w)


def test_loss_and_gradient_loss_and_certificate_are_objective_reports():
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            for dense in (True, False):
                circuit = build_mps_ansatz(n, k)
                q = random_oracle(rng, n, dense)
                theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
                loss, _, cert = loss_and_gradient(circuit, theta, q)
                report = objective_report(circuit, theta, q)
                assert (loss, cert) == (report.loss, report.certificate), (n, k, dense)


def test_loss_and_gradient_below_the_clamp_is_flat():
    # X on one qubit from |0>: p = 0 sits under the clamp, where the loss is constant
    circuit = build_mps_ansatz(1, 0)
    loss, grad, cert = loss_and_gradient(circuit, np.zeros(2), from_dense_matrix([[0, 1], [1, 0]]))
    assert loss == pytest.approx(-math.log(1e-12)) and cert == 0.0
    assert grad.tolist() == [0.0, 0.0]


def test_lbfgs_stops_at_the_first_iteration_holding_the_certificate():
    sat = random_3sat(3)
    q = from_sat_instance(sat, default_sat_time(len(sat.clauses)))
    circuit = build_mps_ansatz(sat.num_vars, 0)
    theta0 = np.random.default_rng(5).uniform(0, 2 * np.pi, circuit.total_params)
    config = OptimizerConfig(method="lbfgs", max_iters=500, tol_loss=1e-14)
    cert_tol = 1e-7
    certificates = {}

    def objective(theta):
        out = loss_and_gradient(circuit, theta, q)
        certificates.setdefault(out[0], out[2])
        return out

    _, trace = minimize(objective, theta0, config, cert_tol)
    # trace entries hold the best loss after each iteration; look up that point's certificate
    held = [certificates[loss] >= 1 - cert_tol for _, loss in trace]
    assert held[-1] and not any(held[:-1])
    _, unstopped = minimize(objective, theta0, config)
    assert len(unstopped) > len(trace)


def test_lbfgsb_methods_evaluate_theta0_once():
    rng = np.random.default_rng(47)
    circuit = build_mps_ansatz(3, 1)
    q = random_oracle(rng, 3, dense=True)
    theta0 = rng.uniform(0, 2 * np.pi, circuit.total_params)
    start_loss = objective_report(circuit, theta0, q).loss
    for method in vqa._METHODS:  # every method: one call at theta0, trace entry 0 its loss
        if method == "lbfgs":
            fn = lambda t: loss_and_gradient(circuit, t, q)
        else:
            fn = lambda t: log_likelihood(probabilities(circuit, t, q))
        at_theta0 = []

        def objective(theta):
            at_theta0.append(np.array_equal(theta, theta0))
            return fn(theta)

        _, trace = minimize(objective, theta0, OptimizerConfig(method=method, max_iters=3))
        assert at_theta0[0] and sum(at_theta0) == 1, method
        assert trace[0] == (0, start_loss), method


def test_loss_and_gradient_memory_does_not_grow_with_the_block_count():
    # n=16, k=0 has 16 blocks: keeping every intermediate state of one pass alone
    # would hold 17 vectors of 2^n amplitudes
    n = 16
    rng = np.random.default_rng(53)
    circuit = build_mps_ansatz(n, 0)
    q = random_oracle(rng, n, dense=False)
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    loss_and_gradient(circuit, theta, q)  # fills the lazy caches outside the traced call
    tracemalloc.start()
    try:
        loss_and_gradient(circuit, theta, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**n * 16


def stack_oracles(rng, n):
    """A diagonal-phase oracle, a dense ndarray one and the tfi chain's sector one on n qubits."""
    sectors = from_hamiltonian_evolution(tfi_hamiltonian(n, 1.0, 0.7), 0.45)
    assert isinstance(sectors.matrix, Sectors)
    return {"phase": random_oracle(rng, n, dense=False), "dense": random_oracle(rng, n, dense=True),
            "sectors": sectors}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_stacked_forward_pass_is_bit_equal_row_by_row_to_one_pass_per_vector(k):
    # at n = 9 every budget has windows of both apply_matrix_raw forms; k = 0 fuses its windows
    n = 9
    rng = np.random.default_rng((101, k))
    circuit = build_mps_ansatz(n, k)
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    forms = {2**t[0] <= 2 ** len(t) * 4 ** (n - t[-1] - 1) for t, _ in vqa._forward(
        circuit, theta, random_oracle(rng, n, dense=False))[1]}
    assert forms == {True, False}
    for name, q in stack_oracles(rng, n).items():
        for rows in (1, 2, 5):
            thetas = rng.uniform(0, 2 * np.pi, (rows, circuit.total_params))
            mats, windows, *states = vqa._forward(circuit, thetas, q)
            for t, theta in enumerate(thetas):
                one_mats, one_windows, *one_states = vqa._forward(circuit, theta, q)
                assert mats[t].tobytes() == one_mats.tobytes(), (name, rows)
                assert [w for w, _ in windows] == [w for w, _ in one_windows]
                for (_, m), (_, one) in zip(windows, one_windows):
                    assert m[t].tobytes() == one.tobytes(), (name, rows)
                for state, one in zip(states, one_states):  # prepared, kicked and psi
                    assert state[t].tobytes() == one.tobytes(), (name, rows)


def two_call_spsa(tracked, theta0, config):
    """SPSA with its plus and minus points as two calls, plus first: the reference for the stack."""
    rng = np.random.default_rng(config.seed)
    theta = theta0.copy()
    stability = 0.1 * config.max_iters
    tracked(theta)
    window_best = tracked.best_loss
    for it in range(1, config.max_iters + 1):
        ak, ck = 0.2 / (stability + it) ** 0.602, 0.1 / it**0.101
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        plus = tracked(theta + ck * delta)
        minus = tracked(theta - ck * delta)
        theta = theta - ak * (plus - minus) / (2.0 * ck) * (1.0 / delta)
        tracked.step()
        if it % 50 == 0:
            if window_best - tracked.best_loss < config.tol_loss:
                break
            window_best = tracked.best_loss
    tracked(theta)


@pytest.mark.parametrize("shots", [0, 64])
def test_stacked_spsa_takes_the_steps_of_the_two_call_reference(shots):
    rng = np.random.default_rng((103, shots))
    circuit = build_mps_ansatz(6, 1)
    q = random_oracle(rng, 6, dense=True)
    theta0 = rng.uniform(0, 2 * np.pi, circuit.total_params)
    config = OptimizerConfig(method="spsa", max_iters=120, tol_loss=1e-3, seed=9)
    stacked, shapes = vqa._loss(circuit, q, shots, np.random.default_rng(5)), []

    @functools.wraps(stacked)  # as bench/spans.py wraps it: max_rows is copied, the stack passes through
    def objective(theta):
        shapes.append(np.shape(theta))
        return stacked(theta)

    theta, trace = minimize(objective, theta0, config)
    reference = vqa._Tracked(vqa._loss(circuit, q, shots, np.random.default_rng(5)))
    two_call_spsa(reference, theta0, config)
    assert theta.tobytes() == reference.best_theta.tobytes()
    assert trace == reference.trace and len(trace) > 50
    p = circuit.total_params
    assert shapes == [(p,)] + [(2, p)] * (len(trace) - 1) + [(p,)]


def test_fd_gradient_descent_on_stacks_takes_the_steps_of_one_vector_per_call():
    rng = np.random.default_rng(107)
    circuit = build_mps_ansatz(5, 1)
    q = random_oracle(rng, 5, dense=True)
    theta0 = rng.uniform(0, 2 * np.pi, circuit.total_params)
    config = OptimizerConfig(method="fd-gradient-descent", max_iters=8)
    stacked = vqa._loss(circuit, q)
    assert stacked.max_rows >= 2 * circuit.total_params  # the whole gradient in one call
    theta, trace = minimize(stacked, theta0, config)
    one_by_one = minimize(lambda t: stacked(t), theta0, config)  # no max_rows: one vector per call
    assert theta.tobytes() == one_by_one[0].tobytes() and trace == one_by_one[1]


def test_a_stack_is_scored_in_row_order():
    # a tie keeps the first row as the best point, and a non-finite report quotes the first such row
    def flat(theta):
        return np.zeros(len(theta)) if np.ndim(theta) == 2 else 0.0

    def nan(theta):
        return np.full(len(theta), math.nan)

    flat.max_rows = nan.max_rows = 4
    thetas = np.arange(6.0).reshape(3, 2)
    tracked = vqa._Tracked(flat)
    assert tracked(thetas).tolist() == [0.0, 0.0, 0.0]
    assert tracked.best_theta.tolist() == [0.0, 1.0]
    with pytest.raises(NumericalError, match=r"theta=\[0\.0, 1\.0\]"):
        vqa._Tracked(nan)(thetas)

def coordinate_loop_difference(fn, theta, step):
    """Central differences one coordinate at a time, plus probe first: the reference for the stacks."""
    grad = np.empty_like(theta)
    for j in range(theta.size):
        probe = np.zeros_like(theta)
        probe[j] = step
        grad[j] = (fn(theta + probe) - fn(theta - probe)) / (2.0 * step)
    return grad


@pytest.mark.parametrize("n, k, kind", [(4, 1, "dense"), (6, 2, "sectors"), (10, 2, "phase")])
def test_loss_gradient_fd_is_bit_equal_to_the_coordinate_loop(n, k, kind):
    rng = np.random.default_rng((109, n, k))
    circuit = build_mps_ansatz(n, k)
    q = stack_oracles(rng, n)[kind]
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    loss = lambda t: log_likelihood(probabilities(circuit, t, q))
    expected = coordinate_loop_difference(loss, theta, 1e-5)
    assert loss_gradient_fd(circuit, theta, q, 1e-5).tobytes() == expected.tobytes()
    assert central_difference(loss, theta, 1e-5).tobytes() == expected.tobytes()


def test_loss_gradient_fd_memory_stays_within_its_stack_bound():
    # (8, 3) has 1275 parameters: its 2550 probes in one stack would hold 2550 x 5 block matrices
    # of 16 x 16 (52 MB per array) besides the states
    n, k = 8, 3
    rng = np.random.default_rng(113)
    circuit = build_mps_ansatz(n, k)
    q = random_oracle(rng, n, dense=False)
    theta = rng.uniform(0, 2 * np.pi, circuit.total_params)
    rows = vqa._loss(circuit, q).max_rows
    assert 8 * rows < 2 * circuit.total_params  # the probes run in chunks
    loss_gradient_fd(circuit, theta, q, 1e-5)  # fills the lazy caches outside the traced call
    tracemalloc.start()
    try:
        loss_gradient_fd(circuit, theta, q, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * (2**n + circuit.total_params) * 16  # 4.8 of these units measured
