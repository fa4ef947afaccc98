"""Objective, optimizers and the rank sweep.

The search state is psi(theta) = U(theta)^dagger Q U(theta) |0...0>.  With
p_i(theta) the probability of qubit i reading 0 in that state, the loss is
the negative log-likelihood -sum_i ln p_i, which is zero exactly when the
prepared state U(theta)|0...0> is an eigenvector of Q.  The certificate
|<0|psi(theta)>|^2 equals 1 under the same condition and is what the sweep
reports and terminates on.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.optimize

from .ansatz import AnsatzCircuit, apply_staircase, block_matrices, build_mps_ansatz
from .ansatz import block_parameter_gradient, embed_parameters, fused_windows
from .errors import NumericalError, ShapeError, ValidationError, quote
from .oracle import BlackBoxUnitary, apply_raw as oracle_apply_raw
from .simulator import Statevector, apply_matrix_raw, sample_probs, zero_state, zero_weight
from .simulator import qubit_zero_probs as _qubit_zero_probs  # the name bench/ traces

DEFAULT_CLAMP = 1e-12
DEFAULT_CERT_TOL = 1e-6
FD_STEP = 1e-5  # central-difference step of fd-gradient-descent


@dataclass(frozen=True)
class ObjectiveReport:
    """One exact evaluation: per-qubit probabilities, loss and certificate."""

    p: np.ndarray
    loss: float
    certificate: float


@dataclass(frozen=True)
class OptimizerConfig:
    method: str | None = None  # None: "lbfgs", or "spsa" in run_sweep's shots mode
    max_iters: int = 500
    tol_loss: float = 1e-10
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in (None, *_METHODS):  # a tuple: compares, never hashes
            raise ValidationError(f"unknown optimizer method {quote(self.method)}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {quote(self.max_iters)}")
        if not self.tol_loss >= 0:  # L-BFGS-B stops at once on a negative ftol
            raise ValidationError(f"tol_loss must be >= 0, got {quote(self.tol_loss)}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {quote(self.restarts)}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {quote(self.seed)}")


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


def _forward(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary):
    """Block matrices, their fused windows, U|0...0>, QU|0...0> and psi = U^dagger Q U|0...0>."""
    if q.n != circuit.n:
        raise ShapeError(f"oracle on {q.n} qubits does not match circuit with n={circuit.n}")
    n, mats = circuit.n, block_matrices(circuit, theta)
    windows = fused_windows(circuit, mats)  # built once, shared by the staircase passes
    prepared = apply_staircase(n, windows, zero_state(n).amplitudes)
    kicked = oracle_apply_raw(q, prepared)
    return mats, windows, prepared, kicked, apply_staircase(n, windows, kicked, adjoint=True)


def probabilities(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary) -> np.ndarray:
    """p_i(theta) for every qubit i."""
    return _qubit_zero_probs(_forward(circuit, theta, q)[-1], circuit.n)


def log_likelihood(p: np.ndarray) -> float:
    """-sum_i ln p_i with p clamped to [DEFAULT_CLAMP, 1]; zero iff every p_i is 1."""
    p = np.clip(np.asarray(p, dtype=float), DEFAULT_CLAMP, 1.0)
    return float(-np.log(p).sum() + 0.0)  # +0.0 folds -0.0 into 0.0


def _overlap(psi: np.ndarray) -> float:
    """|<0|psi>|^2 capped at 1, which rounding in the block applies can exceed; NaN stays NaN."""
    return min(float(abs(psi[0]) ** 2), 1.0)  # min(1.0, nan) would return 1.0


def certificate(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary) -> float:
    """|<0|psi(theta)>|^2; equals 1 iff the prepared state is an eigenvector of Q."""
    return _overlap(_forward(circuit, theta, q)[-1])


def objective_report(
    circuit: AnsatzCircuit,
    theta: np.ndarray,
    q: BlackBoxUnitary,
) -> ObjectiveReport:
    """Probabilities, loss and certificate from a single state construction."""
    amps = _forward(circuit, theta, q)[-1]
    p = _qubit_zero_probs(amps, circuit.n)
    return ObjectiveReport(p, log_likelihood(p), _overlap(amps))


def loss_and_gradient(circuit: AnsatzCircuit, theta: np.ndarray, q: BlackBoxUnitary):
    """(loss, gradient, certificate) from one forward and one reverse (adjoint) pass.

    Loss and certificate are bit-equal to objective_report's.  dL = 2 Re <lam|dpsi> with
    lam = -w psi, w(x) = zero_weight of 1/p_i (0 below the clamp, where the loss is flat);
    Jones & Gacon, arXiv:2009.02823.  The reverse pass undoes each block B_j on one stack
    [state, ahead, pulled, kicked]; pairing its halves (one _window_product) gives Y_j = X_j B_j,
    and block j gets 2 Re tr(dB_j X_j) from its window matrix X_j = Y_j B_j^dagger.
    """
    n = circuit.n
    mats, windows, state, kicked, psi = _forward(circuit, theta, q)
    p = _qubit_zero_probs(psi, n)
    inverse = np.divide(1.0, p, out=np.zeros(n), where=p > DEFAULT_CLAMP)
    ahead = apply_staircase(n, windows, -zero_weight(inverse, n) * psi)
    rows = np.stack([state, ahead, oracle_apply_raw(q, ahead, adjoint=True), kicked])
    del state, kicked, ahead  # only the stack stays alive through the sweep
    per_block = []
    for spec, undo in zip(circuit.blocks[::-1], mats.conj().swapaxes(1, 2)[::-1]):
        rows = apply_matrix_raw(rows, n, undo, spec.window.targets)
        rest = 2 ** (n - 1 - spec.window.targets[-1])
        per_block.append(_window_product(rows, len(undo), rest) @ undo)
    gradient = block_parameter_gradient(circuit, theta, per_block[::-1])
    return log_likelihood(p), gradient, _overlap(psi)


def _window_product(rows: np.ndarray, dim: int, rest: int) -> np.ndarray:
    """sum_pq u[p, r, q] conj(v[p, s, q]) for [u, v] = rows on (2, -1, dim, rest) views: one product
    of the (dim, -1) transposed halves (measured against einsum, batched products and tensordot)."""
    u, v = rows.reshape(2, -1, dim, rest).swapaxes(1, 2).reshape(2, dim, -1)
    return u @ v.conj().T


def loss_gradient_fd(
    circuit: AnsatzCircuit,
    theta: np.ndarray,
    q: BlackBoxUnitary,
    step: float,
) -> np.ndarray:
    """Central finite difference of the loss, coordinate by coordinate."""
    if not step > 0:
        raise ValidationError(f"step must be > 0, got {step}")
    theta = np.asarray(theta, dtype=float)
    return central_difference(lambda t: log_likelihood(probabilities(circuit, t, q)), theta, step)


def central_difference(fn: Callable, theta: np.ndarray, step: float) -> np.ndarray:
    """(fn(theta + step e_j) - fn(theta - step e_j)) / (2 step) for every coordinate j."""
    grad = np.empty_like(theta)
    for j in range(theta.size):
        probe = np.zeros_like(theta)
        probe[j] = step
        grad[j] = (fn(theta + probe) - fn(theta - probe)) / (2.0 * step)
    return grad


class _Tracked:
    """Objective wrapper: tracks the best-seen point, rejects non-finite values and writes
    the trace of (iteration, best loss) pairs: entry 0 at the first call, one per step().
    Of an objective returning (loss, gradient, certificate) it passes on (loss, gradient)
    and keeps the best point's certificate, which makes step() stop at 1 - cert_tol."""

    def __init__(self, fn: Callable, cert_tol: float | None = None):
        self.fn = fn
        self.best_loss = math.inf
        self.best_theta: np.ndarray | None = None
        self.best_certificate = -math.inf
        self.target = math.inf if cert_tol is None else 1.0 - cert_tol
        self.trace: list[tuple[int, float]] = []

    def __call__(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        out = self.fn(theta)
        value, *extra = out if isinstance(out, tuple) else (out,)
        value = float(value)
        if not math.isfinite(value):
            raise NumericalError(f"objective returned {value} at theta={quote(theta.tolist())}")
        if value < self.best_loss:
            self.best_loss, self.best_theta = value, theta.copy()
            self.best_certificate = extra[1] if extra else -math.inf
        if not self.trace:  # no certificate check: scipy stops on StopIteration only from step
            self.trace.append((0, self.best_loss))
        return (value, extra[0]) if extra else value

    def step(self, _theta=None) -> None:
        """One iteration done (a scipy callback): trace it, stop once certified."""
        self.trace.append((len(self.trace), self.best_loss))
        if self.best_certificate >= self.target:
            raise StopIteration


def minimize(
    objective: Callable,
    theta0: np.ndarray,
    config: OptimizerConfig,
    cert_tol: float | None = None,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Run one minimization from theta0 with config.method ("lbfgs" when None).

    SPSA and fd-gradient-descent use objective values only, the latter as L-BFGS-B on
    central-difference gradients; "lbfgs" is L-BFGS-B on an objective returning (loss,
    gradient, certificate) like loss_and_gradient, stopped once the best point's
    certificate reaches 1 - cert_tol.  Returns the best-seen parameter vector and a
    non-increasing trace of (iteration, best loss) pairs; deterministic given config.seed.
    """
    theta0 = np.asarray(theta0, dtype=float)
    tracked = _Tracked(objective, cert_tol)
    _METHODS[config.method or "lbfgs"](tracked, theta0, config)
    return tracked.best_theta, tracked.trace


def _spsa(tracked, theta0, config):
    """Simultaneous-perturbation stochastic approximation with standard gains."""
    rng = np.random.default_rng(config.seed)
    theta = theta0.copy()
    a0, c0 = 0.2, 0.1
    stability = 0.1 * config.max_iters
    alpha, gamma = 0.602, 0.101
    tracked(theta)
    window_best = tracked.best_loss
    for it in range(1, config.max_iters + 1):
        ak = a0 / (stability + it) ** alpha
        ck = c0 / it**gamma
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


def _lbfgsb(tracked, theta0, config, fd_step=None):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on the objective's own gradient, or on
    central differences with fd_step."""
    jac = True if fd_step is None else lambda theta: central_difference(tracked, theta, fd_step)
    options = {"maxiter": config.max_iters, "maxfun": 10**9, "ftol": config.tol_loss, "gtol": 0.0}
    scipy.optimize.minimize(tracked, theta0, method="L-BFGS-B", jac=jac, callback=tracked.step,
                            options=options)


# The one table of method names: each entry runs one minimization from theta0.
_METHODS = {"spsa": _spsa, "lbfgs": _lbfgsb,
            "fd-gradient-descent": functools.partial(_lbfgsb, fd_step=FD_STEP)}


def _shot_loss(circuit, theta, q, shots: int, rng: np.random.Generator) -> float:
    """The loss on per-qubit probabilities estimated from `shots` seeded samples of psi."""
    state = Statevector(circuit.n, _forward(circuit, theta, q)[-1])
    return log_likelihood(sample_probs(state, shots, int(rng.integers(0, 2**31))))


def run_sweep(
    k_max: int,
    q: BlackBoxUnitary,
    config: OptimizerConfig,
    *,
    cert_tol: float = DEFAULT_CERT_TOL,
    shots: int = 0,
) -> SweepResult:
    """Optimize the ansatz family on q's n qubits for each ebit budget k = 0 .. k_max.

    Every budget runs config.restarts independent minimizations; from k=1 on
    the first restart is seeded by lifting the previous budget's optimum,
    and that lifted point also stays in the candidate pool, so the reported
    certificate sequence is non-decreasing in k up to the rounding of the
    warm-start lift (a few ulps).  Per budget, the candidate with the
    highest certificate wins (ties break to lower loss).
    The sweep stops as soon as a budget reaches certificate >= 1 - cert_tol.

    Method None means "lbfgs" on loss_and_gradient, which also ends a restart
    at the certificate.  With shots > 0 the optimizer sees shot-based
    probability estimates (the method is forced to SPSA), while the reported
    loss and certificate stay exact.  Fully deterministic given config.seed.
    """
    n = q.n
    build_mps_ansatz(n, k_max)  # the widest budget's range and capacity, before any budget runs
    method = "spsa" if shots else config.method or "lbfgs"
    target = 1.0 - cert_tol
    per_k: list[SweepEntry] = []
    for k in range(k_max + 1):
        started = time.perf_counter()
        circuit = build_mps_ansatz(n, k)
        candidates: list[tuple[np.ndarray, float, float, tuple]] = []
        for restart in range(config.restarts):
            if restart == 0 and per_k:  # the lifted optimum: a candidate, then the start
                theta0 = embed_parameters(per_k[-1].theta, circuit)
                report = objective_report(circuit, theta0, q)
                candidates.append((theta0, report.loss, report.certificate, ((0, report.loss),)))
                if report.certificate >= target:
                    break
            else:
                rng = np.random.default_rng((config.seed, k, restart))
                theta0 = rng.uniform(0.0, 2.0 * np.pi, circuit.total_params)
            seed = int(np.random.default_rng((config.seed, k, restart, 7)).integers(2**31))
            if shots:
                shot_rng = np.random.default_rng((config.seed, k, restart, 3))
                objective = lambda theta: _shot_loss(circuit, theta, q, shots, shot_rng)
            elif method == "lbfgs":
                objective = lambda theta: loss_and_gradient(circuit, theta, q)
            else:
                objective = lambda theta: log_likelihood(probabilities(circuit, theta, q))
            theta, trace = minimize(objective, theta0, replace(config, method=method, seed=seed),
                                    cert_tol)
            report = objective_report(circuit, theta, q)  # right after minimize: see bench/spans.py
            candidates.append((theta, report.loss, report.certificate, tuple(trace)))
            if report.certificate >= target:
                break
        theta, loss, cert, trace = max(candidates, key=lambda c: (c[2], -c[1]))
        per_k.append(SweepEntry(k, theta, loss, cert, trace, time.perf_counter() - started))
        if cert >= target:
            return SweepResult(tuple(per_k), True, f"certificate reached 1 - {cert_tol:g} at k={k}")
    return SweepResult(tuple(per_k), False, "")
