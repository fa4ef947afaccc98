import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bell, ghz, random_state
from eigenmps.ansatz import build_mps_ansatz, prepare_state
from eigenmps.errors import ValidationError
from eigenmps.simulator import Statevector, zero_state
from eigenmps.tensor import (
    MpsState,
    SchmidtData,
    entanglement_ebits,
    mps_from_json,
    mps_to_json,
    mps_to_statevector,
    rank,
    schmidt_spectra,
    schmidt_spectrum,
    statevector_to_mps,
    truncate,
)


def product_state(rng, n):
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        local = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, local / np.linalg.norm(local))
    return Statevector(n, amps)


def left_isometry_defect(mps: MpsState) -> float:
    worst = 0.0
    for t in mps.tensors:
        mat = t.reshape(-1, t.shape[2])
        worst = max(worst, float(np.linalg.norm(mat.conj().T @ mat - np.eye(t.shape[2]))))
    return worst


def test_product_state_has_unit_bonds():
    mps = statevector_to_mps(product_state(np.random.default_rng(0), 5))
    assert mps.bond_dims == (1, 1, 1, 1)


def test_bell_pair_schmidt_structure():
    mps = statevector_to_mps(bell())
    assert mps.bond_dims == (2,)
    data = schmidt_spectrum(bell(), 1)
    assert np.allclose(data.singular_values, [0.70710678, 0.70710678])


def test_ghz_bond_dims():
    assert statevector_to_mps(ghz(4)).bond_dims == (2, 2, 2)


def test_mps_to_statevector_product():
    tensors = tuple(np.array([1.0, 0.0]).reshape(1, 2, 1) for _ in range(3))
    out = mps_to_statevector(MpsState(tensors))
    assert np.allclose(out.amplitudes, zero_state(3).amplitudes)


def test_bell_round_trip():
    out = mps_to_statevector(statevector_to_mps(bell()))
    assert np.max(np.abs(out.amplitudes - bell().amplitudes)) < 1e-12


@given(st.integers(0, 10**6))
def test_round_trip_random_five_qubits(seed):
    state = random_state(np.random.default_rng(seed), 5)
    out = mps_to_statevector(statevector_to_mps(state))
    assert abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2 >= 1 - 1e-10


@given(st.integers(0, 10**6), st.integers(2, 8))
def test_round_trip_and_canonical_form(seed, n):
    state = random_state(np.random.default_rng(seed), n)
    mps = statevector_to_mps(state)
    assert left_isometry_defect(mps) < 1e-10
    out = mps_to_statevector(mps)
    assert abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2 >= 1 - 1e-10


def test_schmidt_spectrum_examples():
    prod = product_state(np.random.default_rng(1), 4)
    for cut in range(1, 4):
        data = schmidt_spectrum(prod, cut)
        assert data.rank_eps == 1
        assert data.singular_values[0] == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        schmidt_spectrum(prod, 0)
    with pytest.raises(ValidationError):
        schmidt_spectrum(prod, 4)


def test_schmidt_spectrum_against_density_matrix():
    # independent reference: eigenvalues of the reduced density matrix
    state = random_state(np.random.default_rng(6), 4)
    mat = state.amplitudes.reshape(4, 4)
    rho = mat @ mat.conj().T
    expected = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(rho))[::-1], 0, None))
    got = schmidt_spectrum(state, 2).singular_values
    assert np.max(np.abs(got - expected)) < 1e-10


def test_schmidt_squares_sum_to_one():
    state = random_state(np.random.default_rng(7), 5)
    for cut in range(1, 5):
        s = schmidt_spectrum(state, cut).singular_values
        assert np.sum(s**2) == pytest.approx(1.0, abs=1e-10)


def test_rank_examples():
    assert rank(product_state(np.random.default_rng(2), 4)) == 1
    for n in (2, 3, 5):
        assert rank(ghz(n)) == 2
    c = build_mps_ansatz(5, 1)
    theta = np.random.default_rng(3).uniform(0, 2 * np.pi, c.total_params)
    assert rank(prepare_state(c, theta)) <= 2


def test_entanglement_ebits_examples():
    assert entanglement_ebits(product_state(np.random.default_rng(4), 3), 1) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_ebits(bell(), 1) == pytest.approx(1.0)
    for cut in range(1, 4):
        assert entanglement_ebits(ghz(4), cut) == pytest.approx(1.0)


def test_ebits_of_an_exact_product_cut_is_positive_zero():
    ebits = schmidt_spectrum(zero_state(3), 1).ebits
    assert ebits == 0.0 and math.copysign(1.0, ebits) == 1.0  # not -0.0, which prints as "-0"


def test_ebits_of_a_product_cut_rounded_above_one_is_positive_zero():
    # sigma = 1 + 2.2e-16 gives -(p log2 p) = -6.4e-16 before the clamp
    data = SchmidtData(1, np.array([np.nextafter(1.0, 2.0)]), 1)
    assert data.ebits == 0.0 and math.copysign(1.0, data.ebits) == 1.0


def test_ebits_bounded_by_log_rank():
    state = random_state(np.random.default_rng(5), 6)
    for cut in range(1, 6):
        data = schmidt_spectrum(state, cut)
        assert entanglement_ebits(state, cut) <= np.log2(data.rank_eps) + 1e-10


def test_truncate_noop_when_rank_already_small():
    mps = statevector_to_mps(ghz(4))
    out, eps, err1, err2 = truncate(mps, 2)
    assert out is mps
    assert eps == err1 == err2 == 0.0


def test_truncate_ghz_to_rank_one():
    mps = statevector_to_mps(ghz(4))
    out, eps, err1, err2 = truncate(mps, 1)
    assert eps == pytest.approx(1 / np.sqrt(2))
    assert err2 == pytest.approx(0.5)
    assert err1 == pytest.approx(2 * np.sqrt(0.5))
    assert max(out.bond_dims) == 1
    assert mps_to_statevector(out).norm() == pytest.approx(1.0)


def test_truncation_error_scaling_family():
    # cos(a)|00> + sin(a)|11>: eps = sin a, err1 = 2 sin a, err2 = sin^2 a
    for alpha in (0.3, 0.1, 0.03):
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = np.cos(alpha), np.sin(alpha)
        mps = statevector_to_mps(Statevector(2, amps))
        _, eps, err1, err2 = truncate(mps, 1)
        assert eps == pytest.approx(np.sin(alpha), abs=1e-12)
        assert err1 / eps == pytest.approx(2.0, rel=1e-6)
        assert err2 / eps**2 == pytest.approx(1.0, rel=1e-6)


def test_truncate_rejects_bad_rank():
    with pytest.raises(ValidationError):
        truncate(statevector_to_mps(bell()), 0)


def test_mps_json_round_trip():
    state = random_state(np.random.default_rng(8), 4)
    mps = statevector_to_mps(state)
    rebuilt = mps_from_json(mps_to_json(mps))
    assert rebuilt.bond_dims == mps.bond_dims
    out = mps_to_statevector(rebuilt)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_mps_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        mps_from_json({"n": 2})
    good = mps_to_json(statevector_to_mps(bell()))
    bad = {**good, "tensors": [{**good["tensors"][0], "re": [0.0]}, good["tensors"][1]]}
    with pytest.raises(ValidationError, match="site 0"):
        mps_from_json(bad)


def test_mps_state_validates_bonds():
    with pytest.raises(Exception):
        MpsState((np.zeros((1, 2, 3)), np.zeros((2, 2, 1))))


def test_rank_without_a_cut_is_one():
    assert schmidt_spectra(Statevector(1, np.array([0.6, 0.8]))) == []
    assert rank(Statevector(1, np.array([0.6, 0.8]))) == 1


def test_schmidt_spectra_carry_each_cut_ebits():
    state = random_state(np.random.default_rng(21), 4)
    spectra = schmidt_spectra(state)
    assert [data.cut for data in spectra] == [1, 2, 3]
    for data in spectra:
        assert data.ebits == entanglement_ebits(state, data.cut)
        assert np.array_equal(data.singular_values, schmidt_spectrum(state, data.cut).singular_values)
