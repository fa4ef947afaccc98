"""Classical tensor-network output: MPS conversion, Schmidt analysis, truncation.

The canonical form used everywhere is left-canonical (left-to-right SVD
sweep): every site tensor A of shape (l, 2, r), reshaped to (l*2, r),
satisfies A^dagger A = I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError, quote
from .simulator import MAX_QUBITS, Statevector

# "Non-zero singular value" needs a numerical cutoff: one for Schmidt ranks, one for the MPS export.
RANK_TOL = 1e-10
EXPORT_TOL = 1e-12


@dataclass(frozen=True)
class MpsState:
    """Open-boundary MPS: a chain of (bond_left, 2, bond_right) tensors."""

    tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=np.complex128) for t in self.tensors)
        object.__setattr__(self, "tensors", tensors)
        if not tensors:
            raise ValidationError("MPS must have at least one site")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ShapeError("edge bond dimensions must be 1")
        for i, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != 2:
                raise ShapeError(f"site {i} must have shape (l, 2, r), got {t.shape}")
            if i and tensors[i - 1].shape[2] != t.shape[0]:
                raise ShapeError(
                    f"bond mismatch between sites {i - 1} and {i}: "
                    f"{tensors[i - 1].shape[2]} vs {t.shape[0]}"
                )

    @property
    def n(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tensors[:-1])


@dataclass(frozen=True)
class SchmidtData:
    """Singular values of one contiguous bipartition, sorted non-increasing."""

    cut: int
    singular_values: np.ndarray
    rank_eps: int

    @property
    def ebits(self) -> float:
        """Von Neumann entropy -sum sigma^2 log2 sigma^2 of the spectrum."""
        p = self.singular_values**2
        p = p[p > 0]
        return max(0.0, float(-(p * np.log2(p)).sum()))  # no -0.0, no -ulps for sigma just above 1


def _svd_sweep(amps: np.ndarray, n: int, keep_rule: Callable) -> tuple[list, float]:
    """Left-to-right reshape + SVD sweep keeping keep_rule(s) singular values per bond.

    Returns the site tensors and the largest singular value dropped (0.0 if none).
    """
    tensors = []
    vec = amps
    left = 1
    dropped = 0.0
    for _ in range(n - 1):
        mat = vec.reshape(left * 2, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = keep_rule(s)
        if keep < s.size:
            dropped = max(dropped, float(s[keep]))
        tensors.append(u[:, :keep].reshape(left, 2, keep))
        vec = (s[:keep, None] * vh[:keep]).reshape(-1)
        left = keep
    tensors.append(vec.reshape(left, 2, 1))
    return tensors, dropped


def statevector_to_mps(state: Statevector) -> MpsState:
    """Left-canonical MPS by sequential reshape + SVD, dropping values <= EXPORT_TOL."""
    tensors, _ = _svd_sweep(state.amplitudes, state.n, lambda s: max(1, int((s > EXPORT_TOL).sum())))
    return MpsState(tuple(tensors))


def mps_to_statevector(mps: MpsState) -> Statevector:
    """Full contraction of the chain back to a dense amplitude vector."""
    acc = mps.tensors[0].reshape(2, -1)
    for t in mps.tensors[1:]:
        acc = np.tensordot(acc, t, axes=([acc.ndim - 1], [0]))
    return Statevector(mps.n, acc.reshape(-1))


def schmidt_spectrum(state: Statevector, cut: int) -> SchmidtData:
    """Singular values of the split qubits [0, cut) vs [cut, n); rank_eps counts those > RANK_TOL."""
    if not 1 <= cut <= state.n - 1:
        raise ValidationError(f"cut must be in [1, {state.n - 1}], got {cut}")
    mat = state.amplitudes.reshape(2**cut, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return SchmidtData(cut, s, int((s > RANK_TOL).sum()))


def schmidt_spectra(state: Statevector) -> list[SchmidtData]:
    """Schmidt data of each of the n-1 contiguous cuts, one SVD per cut."""
    return [schmidt_spectrum(state, cut) for cut in range(1, state.n)]


def rank(state: Statevector) -> int:
    """Maximum Schmidt number over the n-1 contiguous cuts; 1 when there is no cut."""
    return max((data.rank_eps for data in schmidt_spectra(state)), default=1)


def entanglement_ebits(state: Statevector, cut: int) -> float:
    """Von Neumann entropy of the cut's Schmidt spectrum, in ebits."""
    return schmidt_spectrum(state, cut).ebits


def truncate(mps: MpsState, r: int) -> tuple[MpsState, float, float, float]:
    """Cap every bond at the r largest singular values and renormalize.

    Returns (truncated, eps, err1, err2) where eps is the largest discarded
    singular value across bonds, err1 = 2 sqrt(1 - F) is the one-norm
    (trace-norm) distance and err2 = 1 - F the infidelity, with
    F = |<original|truncated>|^2 computed from the contracted statevectors.
    """
    if r < 1:
        raise ValidationError(f"target rank must be >= 1, got {r}")
    if not mps.bond_dims or max(mps.bond_dims) <= r:
        return mps, 0.0, 0.0, 0.0
    original = mps_to_statevector(mps)
    tensors, eps = _svd_sweep(original.amplitudes, mps.n, lambda s: min(r, s.size))
    tensors[-1] = tensors[-1] / np.linalg.norm(tensors[-1])
    truncated = MpsState(tuple(tensors))
    fid = abs(np.vdot(original.amplitudes, mps_to_statevector(truncated).amplitudes)) ** 2
    err2 = max(0.0, 1.0 - fid)
    return truncated, eps, 2.0 * math.sqrt(err2), err2


def mps_to_json(mps: MpsState) -> dict:
    """JSON-serializable dict with row-major flattened real/imaginary parts."""
    return {
        "n": mps.n,
        "bond_dims": list(mps.bond_dims),
        "tensors": [
            {
                "shape": list(t.shape),
                "re": t.real.ravel().tolist(),
                "im": t.imag.ravel().tolist(),
            }
            for t in mps.tensors
        ],
    }


def mps_from_json(obj: dict) -> MpsState:
    """Inverse of mps_to_json, with shape validation."""
    try:
        site_objs = obj["tensors"]
        n = obj["n"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed MPS object: bad or missing {exc}") from exc
    if type(n) is not int:  # a JSON integer: not a bool, a fraction or a numeric string
        raise ValidationError(f"MPS n must be an integer, got {quote(n)}")
    if n > MAX_QUBITS:  # before any tensor is decoded or contracted to 2^n amplitudes
        raise CapacityError(f"MPS n={quote(n)} exceeds the simulator cap of {MAX_QUBITS} qubits")
    if not isinstance(site_objs, list):
        raise ValidationError(f"MPS tensors must be a list, got {type(site_objs).__name__}")
    if len(site_objs) != n:
        raise ValidationError(f"MPS declares n={quote(n)} but has {len(site_objs)} tensors")
    tensors = []
    for i, site in enumerate(site_objs):
        try:
            shape = site["shape"]
            re = np.asarray(site["re"], dtype=float)
            im = np.asarray(site["im"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed tensor at site {i}: {quote(str(exc))}") from exc
        if not (isinstance(shape, list) and len(shape) == 3
                and all(type(d) is int and d > 0 for d in shape)):  # type(): bools are not sizes
            raise ValidationError(f"site {i}: shape {quote(shape)} is not 3 positive integers")
        if re.size != math.prod(shape) or im.size != math.prod(shape):  # exact: np.prod wraps
            raise ValidationError(
                f"tensor at site {i}: {re.size} values do not fill shape {quote(shape)}"
            )
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValidationError(f"tensor at site {i} holds a non-finite value")
        tensors.append((re + 1j * im).reshape(shape))
    return MpsState(tuple(tensors))
