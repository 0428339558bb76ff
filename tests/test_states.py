"""Schmidt data, reduced density matrices and entropy of coefficient states."""

import math
import re

import numpy as np
import pytest

from holoent import (
    IndexOutOfRange,
    LambdaRestriction,
    NotNormalized,
    NotOrthonormal,
    ReducedDensity,
    StateTensor,
    ToeplitzMatrix,
    ZeroState,
    bell_vector,
    entanglement_entropy,
    kernel_basis,
    frobenius_norm,
    max_entropy_vector,
    near_product_vector,
    partial_trace_first,
    schmidt,
    schmidt_rank,
)
from holoent.states import orthonormal_rows


def random_unit_state(k, rng):
    c = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
    return StateTensor(k, c / np.linalg.norm(c))


def random_unitary(n, rng):
    """Haar unitary via QR of a complex Ginibre matrix with phase fixing."""
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(x)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph.conj()


def reduced_density_oracle(state):
    """Trace out the first factor straight from the rank-one projector.

    Builds P = v v* on the full product space and sums the diagonal blocks
    belonging to the first factor, independently of the matrix shortcut.
    """
    n = state.k + 1
    v = state.coeffs.reshape(-1)
    p = np.outer(v, v.conj())
    rho = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for l in range(n):
            rho[j, l] = sum(p[i * n + j, i * n + l] for i in range(n))
    return rho


def test_frobenius_norm_zero_state():
    assert frobenius_norm(StateTensor(1, np.zeros((2, 2)))) == 0.0


def test_frobenius_norm_of_unit_combination():
    assert abs(frobenius_norm(bell_vector(1)) - 1.0) < 1e-12


def test_frobenius_norm_identity_k2():
    # nine entries, three of modulus one
    state = StateTensor(2, np.eye(3))
    assert abs(frobenius_norm(state) - math.sqrt(3)) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_schmidt_of_bell_states(k):
    alphas = schmidt(bell_vector(k)).alphas
    expected = np.zeros(k + 1)
    expected[:2] = 1 / math.sqrt(2)
    assert np.allclose(alphas, expected, atol=1e-14)


def test_schmidt_of_product_state():
    alphas = schmidt(StateTensor.basis_element(2, 0, 0)).alphas
    assert np.allclose(alphas, [1.0, 0.0, 0.0], atol=0)


def test_schmidt_of_near_product_k2():
    # singular values of diag(-2, 1, 0)/sqrt(5)
    alphas = schmidt(near_product_vector(2)).alphas
    expected = [2 / math.sqrt(5), 1 / math.sqrt(5), 0.0]
    assert np.allclose(alphas, expected, atol=1e-14)
    assert np.all(np.diff(alphas) <= 0)


def test_schmidt_rejects_zero_state():
    with pytest.raises(ZeroState):
        schmidt(StateTensor(1, np.zeros((2, 2))))


def test_partial_trace_of_bell_is_maximally_mixed():
    rho = partial_trace_first(bell_vector(1)).matrix
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_of_product_state():
    rho = partial_trace_first(StateTensor.basis_element(2, 0, 0)).matrix
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=0)


def test_partial_trace_of_flipped_bell():
    state = StateTensor.from_diagonal(1, [-1 / math.sqrt(2), 1 / math.sqrt(2)])
    rho = partial_trace_first(state).matrix
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_matches_projector_oracle():
    rng = np.random.default_rng(11)
    for k in (1, 2, 4):
        state = random_unit_state(k, rng)
        rho = partial_trace_first(state).matrix
        assert np.allclose(rho, reduced_density_oracle(state), atol=1e-13)


def test_partial_trace_rejects_zero_state():
    with pytest.raises(ZeroState):
        partial_trace_first(StateTensor(2, np.zeros((3, 3))))


def test_reduced_density_invariants():
    rng = np.random.default_rng(12)
    for k in (1, 3, 5):
        state = random_unit_state(k, rng)
        rho = partial_trace_first(state).matrix
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() >= -1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-10


def test_reduced_spectrum_equals_squared_schmidt():
    rng = np.random.default_rng(13)
    for k in (1, 2, 5):
        state = random_unit_state(k, rng)
        eigs = np.sort(np.linalg.eigvalsh(partial_trace_first(state).matrix))[::-1]
        assert np.allclose(eigs, schmidt(state).alphas ** 2, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 7, 12])
def test_entropy_of_bell_is_ln2(k):
    assert abs(entanglement_entropy(bell_vector(k)) - math.log(2)) < 1e-12


def test_entropy_of_product_state_is_zero():
    assert entanglement_entropy(StateTensor.basis_element(3, 0, 0)) == 0.0


def test_entropy_of_near_product_k2():
    # ln 5 - (4/5) ln 4 from the squared singular values (1/5, 4/5)
    expected = math.log(5) - 0.8 * math.log(4)
    assert abs(entanglement_entropy(near_product_vector(2)) - expected) < 1e-12


def test_entropy_requires_unit_norm():
    with pytest.raises(NotNormalized):
        entanglement_entropy(StateTensor(1, 2 * bell_vector(1).coeffs))


def test_schmidt_rank_examples():
    assert schmidt_rank(bell_vector(4)) == 2
    assert schmidt_rank(StateTensor.basis_element(3, 1, 2)) == 1
    for k in (1, 3, 7):
        assert schmidt_rank(max_entropy_vector(k)) == k + 1


def test_schmidt_rank_rejects_zero_state():
    with pytest.raises(ZeroState):
        schmidt_rank(StateTensor(1, np.zeros((2, 2))))


def test_phase_invariance():
    rng = np.random.default_rng(14)
    state = random_unit_state(3, rng)
    base = entanglement_entropy(state)
    for gamma in [1j, -1.0, np.exp(0.3j), np.exp(-2.1j), np.exp(1j * rng.uniform(0, 2 * np.pi))]:
        rotated = StateTensor(3, gamma * state.coeffs)
        assert abs(entanglement_entropy(rotated) - base) <= 1e-12


def test_unitary_invariance_of_schmidt_data():
    rng = np.random.default_rng(15)
    for k in (1, 2, 4):
        state = random_unit_state(k, rng)
        u = random_unitary(k + 1, rng)
        w = random_unitary(k + 1, rng)
        moved = StateTensor(k, u @ state.coeffs @ w)
        assert np.allclose(schmidt(moved).alphas, schmidt(state).alphas, atol=1e-10)
        assert abs(entanglement_entropy(moved) - entanglement_entropy(state)) < 1e-10


def test_entropy_range_bound():
    rng = np.random.default_rng(16)
    for k in range(1, 7):
        for _ in range(20):
            value = entanglement_entropy(random_unit_state(k, rng))
            assert 0.0 <= value <= math.log(k + 1) + 1e-9


def test_zero_entropy_iff_rank_one():
    rng = np.random.default_rng(17)
    for k in (1, 2, 4):
        left = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
        right = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
        product = np.outer(left, right)
        product /= np.linalg.norm(product)
        state = StateTensor(k, product)
        assert entanglement_entropy(state) < 1e-9
        assert schmidt_rank(state) == 1
        generic = random_unit_state(k, rng)
        assert entanglement_entropy(generic) >= 1e-9
        assert schmidt_rank(generic) > 1


def test_state_validation():
    with pytest.raises(ValueError):
        StateTensor(2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        StateTensor(0, np.zeros((1, 1)))


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_basis_element_rejects_indices_outside_the_level(i, j):
    # numpy would wrap -1 to the last index and give e_2 (x) e_0 for (-1, 0)
    bad = i if not 0 <= i <= 2 else j
    with pytest.raises(IndexOutOfRange, match=rf"basis index {bad} outside \[0, 2\]"):
        StateTensor.basis_element(2, i, j)


def test_coefficients_are_immutable():
    state = bell_vector(1)
    with pytest.raises(ValueError):
        state.coeffs[0, 0] = 3.0


def test_state_freezes_a_copy_of_writeable_coeffs():
    given = np.eye(3, dtype=complex)
    state = StateTensor(2, given)
    given[0, 0] = 5.0
    assert state.coeffs[0, 0] == 1.0
    assert not state.coeffs.flags.writeable
    frozen = np.eye(3, dtype=complex)
    frozen.setflags(write=False)
    assert StateTensor(2, frozen).coeffs is frozen


# each level-k record with its array field and that field's shape at k = 1
LEVEL_RECORDS = pytest.mark.parametrize("record, field, shape", [
    (LambdaRestriction, "fourier", (3,)),
    (ReducedDensity, "matrix", (2, 2)),
    (StateTensor, "coeffs", (2, 2)),
    (ToeplitzMatrix, "entries", (4, 4)),
], ids=["LambdaRestriction", "ReducedDensity", "StateTensor", "ToeplitzMatrix"])


@LEVEL_RECORDS
def test_records_freeze_a_copy_of_writeable_arrays(record, field, shape):
    given = np.ones(shape, dtype=complex)
    frozen = getattr(record(1, given), field)
    given[0] = 5.0
    assert np.all(frozen == 1.0)
    assert not frozen.flags.writeable
    with pytest.raises(ValueError):
        frozen[0] = 3.0
    given.setflags(write=False)
    assert getattr(record(1, given), field) is given


@LEVEL_RECORDS
def test_records_reject_an_array_of_the_wrong_shape_naming_the_field(record, field, shape):
    wrong = shape + (1,)
    message = f"{record.__name__}.{field} must have shape {shape}, got {wrong}"
    with pytest.raises(ValueError, match=re.escape(message)):
        record(1, np.ones(wrong))


def test_from_diagonal_needs_one_coefficient_per_basis_index():
    with pytest.raises(ValueError, match=re.escape("need 3 diagonal coefficients, got (2,)")):
        StateTensor.from_diagonal(2, [1, 0])


def test_json_roundtrip():
    rng = np.random.default_rng(18)
    state = random_unit_state(2, rng)
    again = StateTensor.from_dict(state.to_dict())
    assert again.k == state.k
    assert np.array_equal(again.coeffs, state.coeffs)


@pytest.mark.parametrize("record, field", [
    ({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}, "'k'"),
    ({"k": 1, "im": [[0, 0], [0, 0]]}, "'re'"),
    ({"k": 1, "re": [[1, 0], [0, 0]]}, "'im'"),
    ({"k": 1, "re": {"a": 1}, "im": [[0, 0], [0, 0]]}, "'re'"),
    ({"k": 1, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0]]}, "'im'"),
    ({"k": 1, "re": [[1, 0], [0, "x"]], "im": [[0, 0], [0, 0]]}, "'re'"),
])
def test_from_dict_names_the_malformed_field(record, field):
    with pytest.raises(ValueError, match=field):
        StateTensor.from_dict(record)


def test_schmidt_data_gives_entropy_and_rank_of_its_state():
    state = random_unit_state(3, np.random.default_rng(19))
    decomposition = schmidt(state)
    assert decomposition.entropy() == entanglement_entropy(state)
    assert decomposition.rank() == schmidt_rank(state) == 4
    assert decomposition.rank(tol=2.0) == 0


def test_orthonormal_rows_flattens_states_read_only():
    basis = kernel_basis(3)
    rows = orthonormal_rows(basis)
    assert rows.shape == (9, 16) and rows.dtype == complex
    assert all(np.array_equal(row, v.coeffs.reshape(-1)) for row, v in zip(rows, basis))
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0


def test_orthonormal_rows_rejects_skewed_basis_as_value_error():
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(NotOrthonormal, match="deviates from identity"):
        orthonormal_rows([skewed])
    with pytest.raises(ValueError):
        orthonormal_rows([bell_vector(1), bell_vector(1)])
