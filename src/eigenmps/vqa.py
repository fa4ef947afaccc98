"""Objective, optimizers and the rank sweep.

The search state is psi(theta) = U(theta)^dagger Q U(theta) |0...0>.  With
p_i(theta) the probability of qubit i reading 0 in that state, the loss is
the negative log-likelihood -sum_i ln p_i, which is zero exactly when the
prepared state U(theta)|0...0> is an eigenvector of Q.  The certificate
|<0|psi(theta)>|^2 equals 1 under the same condition and is what the sweep
reports and terminates on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.optimize

from .ansatz import AnsatzCircuit, apply_staircase, block_matrices, build_mps_ansatz
from .ansatz import embed_parameters
from .errors import NumericalError, ShapeError, ValidationError
from .oracle import BlackBoxUnitary, apply_raw as oracle_apply_raw
from .simulator import Statevector, sample_probs, zero_state
from .simulator import qubit_zero_probs as _qubit_zero_probs  # the name bench/ traces

DEFAULT_CLAMP = 1e-12
DEFAULT_CERT_TOL = 1e-6

# Derivative-free default: simplex search while the parameter count stays
# moderate, simultaneous-perturbation above that.
NELDER_MEAD_MAX_PARAMS = 60

_METHODS = ("nelder-mead", "spsa", "fd-gradient-descent")


@dataclass(frozen=True)
class ObjectiveReport:
    """One exact evaluation: per-qubit probabilities, loss and certificate."""

    p: np.ndarray
    loss: float
    certificate: float


@dataclass(frozen=True)
class OptimizerConfig:
    method: str | None = None  # None picks by parameter count
    max_iters: int = 500
    tol_loss: float = 1e-10
    fd_step: float = 1e-5
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method is not None and self.method not in _METHODS:
            raise ValidationError(f"unknown optimizer method {self.method!r}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.fd_step <= 0:
            raise ValidationError(f"fd_step must be > 0, got {self.fd_step}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SweepEntry:
    k: int
    theta: np.ndarray
    loss: float
    certificate: float
    trace: tuple[tuple[int, float], ...]
    wall_time_s: float


@dataclass(frozen=True)
class SweepResult:
    per_k: tuple[SweepEntry, ...]
    terminated_early: bool
    reason: str


def _evolved_amps(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary) -> np.ndarray:
    if q.n != circuit.n:
        raise ShapeError(f"oracle on {q.n} qubits does not match circuit with n={circuit.n}")
    mats = block_matrices(circuit, theta)
    amps = apply_staircase(circuit, mats, zero_state(circuit.n).amplitudes)
    amps = oracle_apply_raw(q, amps)
    return apply_staircase(circuit, mats, amps, adjoint=True)


def evolved_state(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary) -> Statevector:
    """U(theta)^dagger Q U(theta)|0...0>: prepare, apply the oracle, unprepare."""
    return Statevector(circuit.n, _evolved_amps(circuit, theta, q))


def probabilities(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary) -> np.ndarray:
    """p_i(theta) for every qubit i."""
    return _qubit_zero_probs(_evolved_amps(circuit, theta, q), circuit.n)


def log_likelihood(p: np.ndarray, clamp: float = DEFAULT_CLAMP) -> float:
    """-sum_i ln p_i with p clamped to [clamp, 1]; zero iff every p_i is 1."""
    p = np.clip(np.asarray(p, dtype=float), clamp, 1.0)
    return float(-np.log(p).sum() + 0.0)  # +0.0 folds -0.0 into 0.0


def certificate(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary) -> float:
    """|<0|psi(theta)>|^2; equals 1 iff the prepared state is an eigenvector of Q."""
    return float(abs(_evolved_amps(circuit, theta, q)[0]) ** 2)


def objective_report(
    circuit: AnsatzCircuit,
    theta: np.ndarray,
    q: BlackBoxUnitary,
) -> ObjectiveReport:
    """Probabilities, loss and certificate from a single state construction."""
    amps = _evolved_amps(circuit, theta, q)
    p = _qubit_zero_probs(amps, circuit.n)
    return ObjectiveReport(p, log_likelihood(p), float(abs(amps[0]) ** 2))


def loss_gradient_fd(
    circuit: AnsatzCircuit,
    theta: np.ndarray,
    q: BlackBoxUnitary,
    step: float,
) -> np.ndarray:
    """Central finite difference of the loss, coordinate by coordinate."""
    if step <= 0:
        raise ValidationError(f"step must be > 0, got {step}")
    theta = np.asarray(theta, dtype=float)
    objective = _make_objective(circuit, q, shots=0, shot_rng=None)
    return central_difference(objective, theta, step)


def central_difference(fn: Callable, theta: np.ndarray, step: float) -> np.ndarray:
    """(fn(theta + step e_j) - fn(theta - step e_j)) / (2 step) for every coordinate j."""
    grad = np.empty_like(theta)
    for j in range(theta.size):
        probe = np.zeros_like(theta)
        probe[j] = step
        grad[j] = (fn(theta + probe) - fn(theta - probe)) / (2.0 * step)
    return grad


class _Tracked:
    """Objective wrapper: tracks the best-seen point, rejects non-finite values."""

    def __init__(self, fn: Callable[[np.ndarray], float]):
        self.fn = fn
        self.best_loss = math.inf
        self.best_theta: np.ndarray | None = None
        self.evals = 0

    def __call__(self, theta: np.ndarray) -> float:
        value = float(self.fn(np.asarray(theta, dtype=float)))
        self.evals += 1
        if not math.isfinite(value):
            raise NumericalError(
                f"objective returned {value} at theta={np.asarray(theta, dtype=float).tolist()}"
            )
        if value < self.best_loss:
            self.best_loss = value
            self.best_theta = np.array(theta, dtype=float, copy=True)
        return value


def minimize(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    config: OptimizerConfig,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Run one derivative-free minimization from theta0.

    Returns the best-seen parameter vector and a trace of (iteration,
    best-loss-so-far) pairs; the trace is non-increasing by construction.
    Deterministic for a fixed config.seed.
    """
    theta0 = np.asarray(theta0, dtype=float)
    method = config.method or (
        "nelder-mead" if theta0.size <= NELDER_MEAD_MAX_PARAMS else "spsa"
    )
    tracked = _Tracked(objective)
    trace: list[tuple[int, float]] = []
    if method == "nelder-mead":
        _nelder_mead(tracked, theta0, config, trace)
    elif method == "spsa":
        _spsa(tracked, theta0, config, trace)
    elif method == "fd-gradient-descent":
        _fd_gradient_descent(tracked, theta0, config, trace)
    else:
        raise ValidationError(f"unknown optimizer method {method!r}")
    if tracked.best_theta is None:
        tracked(theta0)
        trace.append((0, tracked.best_loss))
    return tracked.best_theta, trace


def _nelder_mead(tracked, theta0, config, trace):
    iteration = [0]

    def record(_xk):
        iteration[0] += 1
        trace.append((iteration[0], tracked.best_loss))

    scipy.optimize.minimize(
        tracked,
        theta0,
        method="Nelder-Mead",
        callback=record,
        options={
            "maxiter": config.max_iters,
            "maxfev": 10**9,
            "fatol": config.tol_loss,
            "xatol": 1e-8,
            "adaptive": theta0.size > 10,
        },
    )


def _spsa(tracked, theta0, config, trace):
    """Simultaneous-perturbation stochastic approximation with standard gains."""
    rng = np.random.default_rng(config.seed)
    theta = theta0.copy()
    a0, c0 = 0.2, 0.1
    stability = 0.1 * config.max_iters
    alpha, gamma = 0.602, 0.101
    tracked(theta)
    trace.append((0, tracked.best_loss))
    window_best = tracked.best_loss
    for it in range(1, config.max_iters + 1):
        ak = a0 / (stability + it) ** alpha
        ck = c0 / it**gamma
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        plus = tracked(theta + ck * delta)
        minus = tracked(theta - ck * delta)
        theta = theta - ak * (plus - minus) / (2.0 * ck) * (1.0 / delta)
        trace.append((it, tracked.best_loss))
        if it % 50 == 0:
            if window_best - tracked.best_loss < config.tol_loss:
                break
            window_best = tracked.best_loss
    tracked(theta)


def _fd_gradient_descent(tracked, theta0, config, trace):
    """Gradient descent on central-difference gradients.

    Step sizes follow the Barzilai-Borwein rule (spectral gradient descent)
    with a non-monotone Armijo backtracking safeguard, which converges far
    faster than a fixed step on these smooth trigonometric landscapes while
    remaining a pure gradient method.
    """
    theta = theta0.copy()
    loss = tracked(theta)
    trace.append((0, tracked.best_loss))
    grad = central_difference(tracked, theta, config.fd_step)
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        return
    step = min(1.0, 1.0 / gnorm)
    recent = [loss]
    stalls = 0
    window_best = tracked.best_loss
    for it in range(1, config.max_iters + 1):
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            trace.append((it, tracked.best_loss))
            break
        reference = max(recent[-10:])
        accepted = None
        trial = step
        for _ in range(40):
            candidate = theta - trial * grad
            value = tracked(candidate)
            if value <= reference - 1e-4 * trial * gnorm2:
                accepted = (candidate, value)
                break
            trial *= 0.5
        trace.append((it, tracked.best_loss))
        if accepted is None:
            # a failed line search usually means a bad spectral step, not a
            # minimum; retry once from the safe scale before giving up
            stalls += 1
            if stalls >= 2:
                break
            step = min(1.0, 1.0 / math.sqrt(gnorm2))
            continue
        stalls = 0
        new_theta, new_loss = accepted
        new_grad = central_difference(tracked, new_theta, config.fd_step)
        s = new_theta - theta
        y = new_grad - grad
        sy = float(s @ y)
        if sy > 1e-300:
            step = float(np.clip(float(s @ s) / sy, 1e-10, 1e3))
        else:
            step = min(1.0, 1.0 / max(float(np.linalg.norm(new_grad)), 1e-12))
        theta, loss, grad = new_theta, new_loss, new_grad
        recent.append(loss)
        if it % 20 == 0:
            if window_best - tracked.best_loss < config.tol_loss:
                break
            window_best = tracked.best_loss


def _make_objective(circuit, q, shots, shot_rng):
    if shots:

        def shot_objective(theta):
            state = evolved_state(circuit, theta, q)
            seed = int(shot_rng.integers(0, 2**31))
            return log_likelihood(sample_probs(state, shots, seed))

        return shot_objective

    def exact_objective(theta):
        return log_likelihood(probabilities(circuit, theta, q))

    return exact_objective


def run_sweep(
    n: int,
    k_max: int,
    q: BlackBoxUnitary,
    config: OptimizerConfig,
    *,
    warm_start: bool = True,
    cert_tol: float = DEFAULT_CERT_TOL,
    shots: int = 0,
) -> SweepResult:
    """Optimize the ansatz family for each ebit budget k = 0 .. k_max.

    Every budget runs config.restarts independent minimizations; with
    warm_start the first restart is seeded by lifting the previous budget's
    optimum, and that lifted point also stays in the candidate pool, so the
    reported certificate sequence is non-decreasing in k up to the rounding
    of the warm-start lift (a few ulps).  Per budget, the
    candidate with the highest certificate wins (ties break to lower loss).
    The sweep stops as soon as a budget reaches certificate >= 1 - cert_tol.

    With shots > 0 the optimizer sees shot-based probability estimates (the
    method is forced to SPSA), while the reported loss and certificate stay
    exact.  Fully deterministic given config.seed.
    """
    if not 0 <= k_max <= n // 2:
        raise ValidationError(f"k_max={k_max} outside valid range [0, {n // 2}] for n={n}")
    if q.n != n:
        raise ShapeError(f"oracle on {q.n} qubits does not match n={n}")
    per_k: list[SweepEntry] = []
    previous: tuple[AnsatzCircuit, np.ndarray] | None = None
    terminated = False
    reason = ""
    for k in range(k_max + 1):
        started = time.perf_counter()
        circuit = build_mps_ansatz(n, k)
        candidates: list[tuple[np.ndarray, float, float, tuple]] = []
        lifted = None
        if warm_start and previous is not None:
            lifted = embed_parameters(previous[0], previous[1], circuit)
            report = objective_report(circuit, lifted, q)
            candidates.append((lifted, report.loss, report.certificate, ((0, report.loss),)))
        restarts = 0 if candidates and candidates[0][2] >= 1.0 - cert_tol else config.restarts
        for restart in range(restarts):
            if restart == 0 and lifted is not None:
                theta0 = lifted
            else:
                rng = np.random.default_rng((config.seed, k, restart))
                theta0 = rng.uniform(0.0, 2.0 * np.pi, circuit.total_params)
            run_config = replace(
                config,
                method="spsa" if shots else config.method,
                seed=int(np.random.default_rng((config.seed, k, restart, 7)).integers(2**31)),
            )
            shot_rng = np.random.default_rng((config.seed, k, restart, 3)) if shots else None
            objective = _make_objective(circuit, q, shots, shot_rng)
            theta_best, trace = minimize(objective, theta0, run_config)
            report = objective_report(circuit, theta_best, q)
            candidates.append((theta_best, report.loss, report.certificate, tuple(trace)))
            if report.certificate >= 1.0 - cert_tol:
                break
        theta, loss, cert, trace = max(candidates, key=lambda c: (c[2], -c[1]))
        per_k.append(
            SweepEntry(k, theta, loss, cert, trace, time.perf_counter() - started)
        )
        previous = (circuit, theta)
        if cert >= 1.0 - cert_tol:
            terminated = True
            reason = f"certificate reached 1 - {cert_tol:g} at k={k}"
            break
    return SweepResult(tuple(per_k), terminated, reason)
