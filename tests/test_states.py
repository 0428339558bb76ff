"""Schmidt data, reduced density matrices and entropy of coefficient states."""

import json
import math
import re

import numpy as np
import pytest

from holoent import (
    DomainError,
    IndexOutOfRange,
    LambdaRestriction,
    NotNormalized,
    NotOrthonormal,
    ReducedDensity,
    SchmidtData,
    StateTensor,
    ToeplitzMatrix,
    ZeroState,
    bell_vector,
    critical_residual,
    diagonal_kernel_basis,
    entanglement_entropy,
    kernel_basis,
    frobenius_norm,
    max_entropy_vector,
    near_product_vector,
    partial_trace_first,
    schmidt,
    schmidt_rank,
)
from holoent import sampling
from holoent.states import (
    ENTROPY_ZERO_FLOOR,
    RANK_TOL,
    _orthonormal_blocks,
    entropy_from_squared_schmidt,
    unit_norm,
)


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


@pytest.mark.parametrize("entry", [unit_norm, entanglement_entropy])
def test_nan_state_is_not_normalized(entry):
    with pytest.raises(NotNormalized, match="nan"):
        entry(StateTensor(1, np.full((2, 2), np.nan)))


def test_schmidt_rank_examples():
    assert schmidt_rank(bell_vector(4)) == 2
    assert schmidt_rank(StateTensor.basis_element(3, 1, 2)) == 1
    for k in (1, 3, 7):
        assert schmidt_rank(max_entropy_vector(k)) == k + 1


def test_schmidt_rank_rejects_zero_state():
    with pytest.raises(ZeroState):
        schmidt_rank(StateTensor(1, np.zeros((2, 2))))


@pytest.mark.parametrize("call", [
    lambda: schmidt_rank(bell_vector(3), 0.5),
    lambda: schmidt(bell_vector(3)).rank(tol=0.5),
    lambda: critical_residual(bell_vector(2), support_tol=0.4),
], ids=["schmidt_rank", "SchmidtData.rank", "critical_residual"])
def test_the_rank_and_support_tolerances_are_not_arguments(call):
    with pytest.raises(TypeError):
        call()


def test_state_tensor_has_no_diagonality_predicate():
    assert not hasattr(StateTensor, "is_diagonal")


def test_rank_counts_coefficients_strictly_above_rank_tol_times_the_largest():
    assert RANK_TOL == 1e-8
    assert SchmidtData([1, 1.01e-8, 0.99e-8]).rank() == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [schmidt, schmidt_rank, partial_trace_first])
def test_a_state_with_a_non_finite_coefficient_is_not_normalized(entry, value):
    with pytest.raises(NotNormalized, match=re.escape(f"state norm is {abs(value)!r}")):
        entry(StateTensor(1, [[value, 0], [0, 1]]))


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


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (3, 0), (0, 3), (True, 0), (0, 1.5)])
def test_basis_element_rejects_indices_outside_the_level(i, j):
    # numpy would wrap -1 to the last index and give e_2 (x) e_0 for (-1, 0),
    # read True as a mask that sets all of row 0, and fail on 1.5 with a
    # bare IndexError
    bad = i if isinstance(i, bool) or not 0 <= i <= 2 else j
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


@LEVEL_RECORDS
def test_records_store_a_numpy_integer_level_as_an_int(record, field, shape):
    built = record(np.int64(1), np.ones(shape))
    assert type(built.k) is int and built.k == 1


def test_a_numpy_integer_level_state_round_trips_through_json():
    for state in (kernel_basis(np.int64(2))[0], StateTensor(np.int64(1), np.eye(2))):
        again = StateTensor.from_dict(json.loads(json.dumps(state.to_dict())))
        assert type(again.k) is int and again.k == state.k
        assert np.array_equal(again.coeffs, state.coeffs)


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
    # shapes that numpy would broadcast into another state, or refuse unnamed
    ({"k": 1, "re": [[0.5, 0], [0.5, 0]], "im": [[0.5, 0]]},
     re.escape("'im' must have shape (2, 2), got (1, 2)")),
    ({"k": 1, "re": [[1, 0, 0], [0, 0, 0]], "im": [[0, 0], [0, 0]]},
     re.escape("'re' must have shape (2, 2), got (2, 3)")),
])
def test_from_dict_names_the_malformed_field(record, field):
    with pytest.raises(ValueError, match=field):
        StateTensor.from_dict(record)


def test_schmidt_data_gives_entropy_and_rank_of_its_state():
    state = random_unit_state(3, np.random.default_rng(19))
    decomposition = schmidt(state)
    assert decomposition.entropy() == entanglement_entropy(state)
    assert decomposition.rank() == schmidt_rank(state) == 4


@pytest.mark.parametrize("alphas", [
    [0.5, 1.0], [], [[0.6, 0.8]], 0.5, [1.0, np.nan], [1.0, np.inf], [1.0, -0.0, -1e-300],
    [1.0, 1j], ["a"], [[1.0], [1.0, 0.0]],
])
def test_schmidt_data_refuses_anything_but_a_descending_spectrum(alphas):
    with pytest.raises(ValueError, match="alphas must be"):
        SchmidtData(alphas)


@pytest.mark.parametrize("shuffle", [False, True])
def test_orthonormal_blocks_partition_the_states_read_only(shuffle):
    basis = kernel_basis(3)
    if shuffle:
        basis = [basis[i] for i in np.random.default_rng(4).permutation(len(basis))]
    k, blocks = _orthonormal_blocks(iter(basis))
    assert k == 3 and len(blocks) > 1
    owned = np.concatenate([rows for rows, *_ in blocks])
    assert sorted(owned) == list(range(len(basis)))
    for rows, cols, block, _ in blocks:
        assert block.shape == (len(rows), len(cols)) and block.dtype == complex
        for row, coeffs in zip(rows, block):
            flat = basis[row].coeffs.reshape(-1)
            assert np.array_equal(flat[cols], coeffs)
            assert not np.any(np.delete(flat, cols))
        for a in (rows, cols, block):
            with pytest.raises(ValueError):
                a[0] = 0


def test_orthonormal_blocks_name_the_mode_of_a_single_diagonal_block():
    def modes(states):
        return [mode for *_, mode in _orthonormal_blocks(states)[1]]

    assert modes(diagonal_kernel_basis(4)) == [0]
    assert modes([StateTensor.basis_element(2, 2, 0)]) == [2]
    assert modes([StateTensor.basis_element(3, 0, 2)]) == [-2]
    # the state spans modes -1 and 0, so its block lies on no single mode
    assert modes([StateTensor(2, np.array([[1, 1, 0], [0, 0, 0], [0, 0, 0]]) / np.sqrt(2))]) \
        == [None]
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))
    assert modes([StateTensor(2, col.reshape(3, 3)) for col in q.T]) == [None]
    assert modes(kernel_basis(3)) == list(range(-2, 3))


def test_orthonormal_rows_rejects_skewed_basis_as_value_error():
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(NotOrthonormal, match="deviates from identity"):
        _orthonormal_blocks([skewed])
    with pytest.raises(ValueError):
        _orthonormal_blocks([bell_vector(1), bell_vector(1)])


def test_orthonormal_rows_rejects_mixed_levels_and_an_empty_set():
    with pytest.raises(DomainError, match=r"levels \[1, 3\]"):
        _orthonormal_blocks([bell_vector(1), bell_vector(3)])
    with pytest.raises(ValueError, match="at least one state"):
        _orthonormal_blocks([])


def entropy_by_negated_terms(p):
    """Reference: -sum p ln p with every term negated, masked by np.where, summed by .sum."""
    terms = np.where(p > ENTROPY_ZERO_FLOOR, -p * np.log(np.maximum(p, ENTROPY_ZERO_FLOOR)), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def assert_same_bits(got, expected):
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), (got, expected)


BELOW_FLOOR = np.nextafter(ENTROPY_ZERO_FLOOR, 0.0)
ABOVE_FLOOR = np.nextafter(ENTROPY_ZERO_FLOOR, 1.0)


@pytest.mark.parametrize("p", [
    [1.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0],
    [0.0],
    [0.5, 0.5 - ABOVE_FLOOR, ABOVE_FLOOR],
    [0.5, 0.5 - BELOW_FLOOR, BELOW_FLOOR],
    [1.0 - ENTROPY_ZERO_FLOOR, ENTROPY_ZERO_FLOOR],
    [2 * ENTROPY_ZERO_FLOOR, 1e-17, -1e-17, 1.0],
    [0.5, np.nan, 0.5],
    [np.nan] * 3,
    [0.25] * 4 + [np.nan] + [0.0] * 12,
    [1.0 + 1e-15, 0.0],
], ids=repr)
def test_entropy_keeps_the_bits_of_the_negated_terms_at_the_edges(p):
    p = np.array(p)
    assert_same_bits(entropy_from_squared_schmidt(p), entropy_by_negated_terms(p))
    # a row of a stack gives the same bits as the row alone
    stack = np.stack([p, p[::-1]])
    assert_same_bits(entropy_from_squared_schmidt(stack), entropy_by_negated_terms(stack))


@pytest.mark.parametrize("p", [[1.0], [1.0, 0.0, 0.0], [0.0, 1.0], [np.nan, 1.0], [0.0]])
def test_a_product_spectrum_has_entropy_plus_zero(p):
    assert repr(float(entropy_from_squared_schmidt(np.array(p)))) == "0.0"
    rows = entropy_from_squared_schmidt(np.array([p, p]))
    assert not np.signbit(rows).any() and not rows.any()


def test_entropy_of_random_spectra_keeps_the_bits_of_the_negated_terms():
    rng = np.random.default_rng(2028)
    for n in [*range(1, 22), 33, 64, 101, 257]:
        for zeros in (0, n // 3):
            p = rng.exponential(size=(50, n))
            p[:, rng.permutation(n)[:zeros]] = 0.0
            p /= p.sum(axis=-1, keepdims=True)
            assert_same_bits(entropy_from_squared_schmidt(p), entropy_by_negated_terms(p))
            for row in p[:5]:
                assert_same_bits(entropy_from_squared_schmidt(row), entropy_by_negated_terms(row))


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_entropy_of_the_sampler_rows_keeps_the_bits_of_the_negated_terms(monkeypatch, k):
    spectra = []

    def recording_entropy(p):
        spectra.append(p)
        return entropy_from_squared_schmidt(p)

    monkeypatch.setattr(sampling, "entropy_from_squared_schmidt", recording_entropy)
    sampling._block_entropies(k, 3000, 7, 0)
    assert spectra and all(p.ndim == 2 for p in spectra)
    for p in spectra:
        assert_same_bits(entropy_from_squared_schmidt(p), entropy_by_negated_terms(p))
