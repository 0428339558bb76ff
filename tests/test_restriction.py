"""Restriction to the antidiagonal circle, its kernel and the named states."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from holoent import (
    DomainError,
    IndexOutOfRange,
    StateTensor,
    bell_vector,
    diagonal_kernel_basis,
    entanglement_entropy,
    evaluate_section,
    kernel_basis,
    max_entropy_vector,
    near_product_entropy,
    near_product_vector,
    restrict,
    schmidt_rank,
)
from holoent.restriction import _kernel_blocks
from holoent.states import _orthonormal_blocks

EQ_SERIES_K1 = math.log(2)
EQ_SERIES_K3 = 0.3250829733914482
EQ_SERIES_K10 = 0.05554607526889177


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 20, 30])
def test_restrict_diagonal_basis_products_exact(k):
    for j in range(k + 1):
        modes = restrict(StateTensor.basis_element(k, j, j)).fourier
        assert modes[k] == (k + 1) * math.comb(k, j)
        others = np.delete(modes, k)
        assert np.all(others == 0)


def test_restrict_offdiagonal_single_mode():
    r = restrict(StateTensor.basis_element(1, 0, 1))
    assert r.mode(-1) == 2.0
    assert r.mode(0) == 0.0
    assert r.mode(1) == 0.0


@pytest.mark.parametrize("coeffs", [np.full((2, 2), 1e308), [[math.nan, 0], [0, 0]]])
def test_restrict_refuses_a_restriction_that_is_not_finite(coeffs):
    # mode 0 of the 1e308 state overflows to inf; its exact imaginary part
    # is 0, but inf * 0 would read nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="restriction of the state is not finite"):
            restrict(StateTensor(1, coeffs))


def test_restrict_matches_pointwise_evaluation():
    # the restricted trig polynomial reproduces section values on the circle
    rng = np.random.default_rng(21)
    for k in (1, 2, 4):
        c = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        state = StateTensor(k, c / np.linalg.norm(c))
        r = restrict(state)
        for t in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            direct = evaluate_section(state, np.exp(1j * t), np.exp(-1j * t))
            assert abs(r.evaluate(t) - direct) < 1e-10


@pytest.mark.parametrize("k", list(range(1, 31)))
def test_restriction_identity_exact(k):
    base = restrict(StateTensor.basis_element(k, 0, 0)).fourier
    for j in range(k + 1):
        scaled = math.comb(k, j) * base
        assert np.array_equal(restrict(StateTensor.basis_element(k, j, j)).fourier, scaled)


def _reference_restriction_matrix(k):
    """Dense restriction map from math.comb weights: row d+k, column i*(k+1)+j.

    Entry (k+1) sqrt(binom(k,i) binom(k,j)) where i - j = d, zero
    elsewhere; rows have disjoint support.
    """
    a = np.zeros((2 * k + 1, (k + 1) ** 2))
    for i in range(k + 1):
        for j in range(k + 1):
            a[i - j + k, i * (k + 1) + j] = (k + 1) * math.sqrt(math.comb(k, i) * math.comb(k, j))
    return a


def test_constraint_system_level_one():
    # column i*2+j is the restriction of e_i (x) e_j
    expected = np.array(
        [
            [0.0, 2.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 2.0, 0.0],
        ]
    )
    for i in range(2):
        for j in range(2):
            modes = restrict(StateTensor.basis_element(1, i, j)).fourier
            assert np.array_equal(modes, expected[:, i * 2 + j])
    # the zero mode forces the two diagonal coefficients to cancel
    assert restrict(bell_vector(1)).max_abs() == 0.0


def test_constraint_zero_mode_binomials_k2():
    row = np.array([restrict(StateTensor.basis_element(2, i, j)).mode(0)
                    for i in range(3) for j in range(3)])
    support = [row[0], row[4], row[8]]
    assert np.allclose(np.array(support) / support[0], [1.0, 2.0, 1.0], atol=1e-14)
    assert np.count_nonzero(row) == 3


@pytest.mark.parametrize("k", list(range(1, 31)))
def test_constraint_rank_and_kernel_dimension(k):
    # e_m (x) e_{m-d} with m = max(0, d) restricts to a nonzero value in
    # mode d alone, so the restriction maps onto all 2k+1 modes: its rank
    # is 2k+1 and its kernel has dimension exactly (k+1)^2 - (2k+1) = k^2
    for d in range(-k, k + 1):
        m = max(0, d)
        modes = restrict(StateTensor.basis_element(k, m, m - d)).fourier
        assert modes[d + k] != 0 and np.count_nonzero(modes) == 1
    # kernel_basis attains it: k^2 orthonormal states whose residual under
    # the reference map A is <= 1e-12 relative to ||A||_2 = (k+1) sqrt(C(2k,k)),
    # the largest row norm of A
    basis = kernel_basis(k)
    vectors = np.column_stack([v.coeffs.reshape(-1) for v in basis])
    assert vectors.shape[1] == k * k
    # each state fills at most k+1 entries, so a sparse Gram matrix is cheap
    sparse = scipy.sparse.csr_array(vectors.T)
    gram = (sparse.conj() @ sparse.T).toarray()
    assert np.max(np.abs(gram - np.eye(k * k))) <= 1e-12
    scale = (k + 1) * math.sqrt(math.comb(2 * k, k))
    assert np.max(np.abs(_reference_restriction_matrix(k) @ vectors)) / scale <= 1e-12


def test_restrict_agrees_with_constraint_matrix():
    rng = np.random.default_rng(22)
    for k in (1, 3, 5):
        a = _reference_restriction_matrix(k)
        c = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        state = StateTensor(k, c)
        flat = state.coeffs.reshape(-1)
        assert np.allclose(a @ flat, restrict(state).fourier, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_kernel_basis_dimension_and_membership(k):
    basis = kernel_basis(k)
    assert len(basis) == k * k
    vectors = np.column_stack([v.coeffs.reshape(-1) for v in basis])
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(k * k))) < 1e-12
    for v in basis:
        assert restrict(v).max_abs() <= 1e-10


@pytest.mark.parametrize("k", [35, 40, 60])
def test_kernel_basis_exact_at_high_levels(k):
    # weights span many orders of magnitude here, so the residual is
    # measured against the largest constraint row norm (k+1) sqrt(C(2k,k))
    basis = kernel_basis(k)
    assert len(basis) == k * k
    scale = (k + 1) * math.sqrt(math.comb(2 * k, k))
    for v in basis:
        assert restrict(v).max_abs() / scale <= 1e-12
    if k <= 40:
        vectors = np.column_stack([v.coeffs.reshape(-1) for v in basis])
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(k * k))) <= 1e-12


def _mode_of(state):
    i, j = np.nonzero(state.coeffs)
    modes = set((i - j).tolist())
    assert len(modes) == 1
    return modes.pop()


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_kernel_basis_lists_single_diagonal_states_mode_by_mode(k):
    modes = [_mode_of(v) for v in kernel_basis(k)]
    expected = [d for d in range(-k, k + 1) for _ in range(k - abs(d))]
    assert modes == expected


@pytest.mark.parametrize("k", [1, 2, 7, 20])
def test_kernel_basis_zero_mode_block_is_diagonal_kernel_basis(k):
    start = k * (k - 1) // 2
    block = kernel_basis(k)[start:start + k]
    diagonal = diagonal_kernel_basis(k)
    assert len(block) == len(diagonal) == k
    for a, b in zip(block, diagonal):
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("build, k", [
    *[pytest.param(kernel_basis, k, id=str(k)) for k in (1, 4, 30)],
    *[pytest.param(diagonal_kernel_basis, k, id=f"diagonal-{k}") for k in (1, 4, 30)],
])
def test_kernel_basis_states_are_views_of_one_read_only_block(build, k):
    basis = build(k)
    block = basis[0].coeffs.base
    count = k * k if build is kernel_basis else k
    assert block.shape == (count, k + 1, k + 1) and not block.flags.writeable
    assert all(v.coeffs.base is block for v in basis)
    assert np.array_equal(np.stack([v.coeffs for v in basis]), block)


@pytest.mark.parametrize("k", [*range(1, 13), 20])
def test_kernel_blocks_are_the_mode_blocks_of_kernel_basis(k):
    built = _kernel_blocks(k, range(-k, k + 1))
    _, found = _orthonormal_blocks(kernel_basis(k))
    assert len(built) == len(found) == 2 * k - 1
    for (rows, cols, submatrix, mode), (rows_f, cols_f, submatrix_f, mode_f) in zip(built, found):
        assert mode == mode_f
        assert np.array_equal(rows, rows_f) and np.array_equal(cols, cols_f)
        assert submatrix.dtype == float and submatrix.shape == submatrix_f.shape
        assert np.array_equal(submatrix.view(np.uint64), submatrix_f.real.view(np.uint64))
        assert not submatrix_f.imag.view(np.uint64).any()  # +0.0, not -0.0
        assert not any(a.flags.writeable for a in (rows, cols, submatrix))


@pytest.mark.parametrize("k", [1, 2, 7])
def test_kernel_blocks_of_modes_d_and_minus_d_share_one_array(k):
    blocks = {mode: submatrix for *_, submatrix, mode in _kernel_blocks(k, range(-k, k + 1))}
    assert sorted(blocks) == list(range(1 - k, k))
    assert all(blocks[d] is blocks[-d] for d in blocks)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_null_space_is_solved_once_per_absolute_mode(monkeypatch, k):
    # modes d and -d share one weight vector, hence one solve
    calls = []
    solve = scipy.linalg.null_space
    monkeypatch.setattr(scipy.linalg, "null_space", lambda a: calls.append(a) or solve(a))
    kernel_basis(k)
    assert len(calls) == k + 1
    calls.clear()
    diagonal_kernel_basis(k)
    assert len(calls) == 1


def test_kernel_basis_rejects_level_zero():
    with pytest.raises(ValueError):
        kernel_basis(0)


def test_kernel_basis_level_one_is_bell_line():
    basis = kernel_basis(1)
    assert len(basis) == 1
    target = bell_vector(1).coeffs
    found = basis[0].coeffs
    phase = np.vdot(target, found)
    aligned = found * phase.conjugate() / abs(phase)
    assert np.max(np.abs(aligned - target)) < 1e-12


def test_kernel_basis_deterministic_and_sign_fixed():
    first = kernel_basis(3)
    second = kernel_basis(3)
    for a, b in zip(first, second):
        assert np.array_equal(a.coeffs, b.coeffs)
    for v in first:
        flat = v.coeffs.reshape(-1)
        pivot = np.argmax(np.abs(flat))
        assert flat[pivot].real > 0


def _reference_kernel_block(k, d):
    """Kernel block of mode d: null_space of the diagonal's weights, signs fixed."""
    rows = range(max(0, d), min(k, k + d) + 1)
    weights = np.array([math.sqrt(math.comb(k, i) * math.comb(k, i - d)) for i in rows])
    null = scipy.linalg.null_space(weights[None, :])
    for c in range(null.shape[1]):
        if null[np.argmax(np.abs(null[:, c])), c] < 0:
            null[:, c] = -null[:, c]
    return null


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 20])
def test_kernel_basis_bits_match_reference_recipe(k):
    # the kernel CLI bytes rest on these bits
    expected = []
    for d in range(-k, k + 1):
        rows = np.arange(max(0, d), min(k, k + d) + 1)
        for column in _reference_kernel_block(k, d).T:
            c = np.zeros((k + 1, k + 1), dtype=complex)
            c[rows, rows - d] = column
            expected.append(c)
    basis = kernel_basis(k)
    assert len(basis) == len(expected) == k * k
    assert all(np.array_equal(v.coeffs, c) for v, c in zip(basis, expected))
    diagonal = diagonal_kernel_basis(k)
    block = _reference_kernel_block(k, 0).T
    assert len(diagonal) == len(block) == k
    assert all(np.array_equal(v.coeffs, np.diag(a).astype(complex)) for v, a in zip(diagonal, block))


def test_modewise_elimination_crosscheck():
    # within one Fourier mode, weighted differences of two basis products
    # lie in the kernel; counting them per mode recovers k^2. The two-term
    # cancellation is exact in plain float arithmetic; the matrix product
    # may fuse operations, so it gets a tight tolerance instead.
    for k in (2, 3, 5, 8):
        a = _reference_restriction_matrix(k)
        count = 0
        for d in range(-k, k + 1):
            pairs = [(i, i - d) for i in range(k + 1) if 0 <= i - d <= k]
            count += len(pairs) - 1
            for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
                c = np.zeros((k + 1, k + 1))
                w1 = float(a[d + k, i1 * (k + 1) + j1])
                w2 = float(a[d + k, i2 * (k + 1) + j2])
                c[i1, j1] = w2
                c[i2, j2] = -w1
                assert w1 * w2 + w2 * (-w1) == 0.0
                assert np.max(np.abs(a @ c.reshape(-1))) <= 1e-10
                assert restrict(StateTensor(k, c / np.linalg.norm(c))).max_abs() <= 1e-12
        assert count == k * k


@pytest.mark.parametrize("k", list(range(1, 31)))
def test_diagonal_kernel_dimension(k):
    basis = diagonal_kernel_basis(k)
    assert len(basis) == k
    binoms = np.array([math.comb(k, j) for j in range(k + 1)], dtype=float)
    for v in basis:
        assert np.array_equal(v.coeffs, np.diag(np.diag(v.coeffs)))
        diag = np.diag(v.coeffs)
        assert abs(binoms @ diag) <= 1e-9 * binoms.max()
    vectors = np.column_stack([np.diag(v.coeffs) for v in basis])
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(k))) < 1e-12


def test_diagonal_kernel_orthogonal_to_binomial_direction_k2():
    binom_unit = np.array([1.0, 2.0, 1.0]) / math.sqrt(6)
    for v in diagonal_kernel_basis(2):
        assert abs(np.diag(v.coeffs) @ binom_unit) < 1e-12


def test_random_kernel_span_vanishes_on_circle():
    k = 3
    basis = kernel_basis(k)
    rng = np.random.default_rng(23)
    angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for _ in range(100):
        w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        w /= np.linalg.norm(w)
        coeffs = sum(wi * v.coeffs for wi, v in zip(w, basis))
        state = StateTensor(k, coeffs)
        worst = max(abs(evaluate_section(state, np.exp(1j * t), np.exp(-1j * t))) for t in angles)
        assert worst <= 1e-9


@pytest.mark.parametrize("k", list(range(1, 21)))
def test_antisymmetric_diagonals_lie_in_kernel(k):
    # palindromic binomial weights cancel against a_j = -a_{k-j}
    rng = np.random.default_rng(100 + k)
    diag = np.zeros(k + 1)
    for j in range((k + 1) // 2):
        diag[j] = rng.standard_normal()
        diag[k - j] = -diag[j]
    state = StateTensor.from_diagonal(k, diag)
    assert restrict(state).max_abs() <= 1e-9


@pytest.mark.parametrize("k", list(range(1, 21)))
def test_near_product_vector_properties(k):
    state = near_product_vector(k)
    assert abs(np.linalg.norm(state.coeffs) - 1.0) < 1e-14
    assert restrict(state).max_abs() == 0.0
    assert abs(entanglement_entropy(state) - near_product_entropy(k)) <= 1e-12


def test_near_product_entropy_series():
    assert abs(near_product_entropy(1) - EQ_SERIES_K1) <= 1e-15
    assert abs(near_product_entropy(3) - EQ_SERIES_K3) <= 1e-15
    assert abs(near_product_entropy(10) - EQ_SERIES_K10) <= 1e-15
    series = [near_product_entropy(k) for k in range(1, 21)]
    assert all(a > b for a, b in zip(series, series[1:]))
    assert series[-1] < 0.02


@pytest.mark.parametrize("k", list(range(4, 21)))
def test_near_product_sequence_is_not_the_least_entangled(k):
    # binom(k, h) e_0 (x) e_0 - e_h (x) e_h cancels against the binomial
    # weights exactly (before normalizing, which rounds), and its entropy
    # lies below near_product_entropy(k)
    h = k // 2
    diag = np.zeros(k + 1)
    diag[0], diag[h] = math.comb(k, h), -1.0
    assert restrict(StateTensor.from_diagonal(k, diag)).max_abs() == 0.0
    state = StateTensor.from_diagonal(k, diag / np.linalg.norm(diag))
    assert entanglement_entropy(state) < near_product_entropy(k)


@pytest.mark.parametrize("k", [1, 2, 5, 12, 20])
def test_bell_vector_properties(k):
    state = bell_vector(k)
    assert restrict(state).max_abs() == 0.0
    assert abs(entanglement_entropy(state) - math.log(2)) <= 1e-12
    assert schmidt_rank(state) == 2


def test_bell_vector_level_one_spans_kernel():
    target = bell_vector(1).coeffs
    found = kernel_basis(1)[0].coeffs
    overlap = abs(np.vdot(target, found))
    assert abs(overlap - 1.0) < 1e-12


@pytest.mark.parametrize("k", [1, 3, 5, 9, 15])
def test_max_entropy_vector_odd(k):
    state = max_entropy_vector(k)
    assert restrict(state).max_abs() <= 1e-10
    assert abs(entanglement_entropy(state) - math.log(k + 1)) <= 1e-12
    assert schmidt_rank(state) == k + 1


@pytest.mark.parametrize("k", [2, 4, 8, 14])
def test_max_entropy_vector_even(k):
    state = max_entropy_vector(k)
    assert np.array_equal(state.coeffs, np.diag(np.diag(state.coeffs)))
    assert restrict(state).max_abs() <= 1e-10
    assert abs(entanglement_entropy(state) - math.log(k + 1)) <= 1e-12
    assert schmidt_rank(state) == k + 1


@pytest.mark.parametrize("k", list(range(1, 9)))
def test_max_entropy_vector_is_the_normalized_power_of_sigma(k):
    # sqrt(k+1) (1 - z w)^k = (-1)^k sigma^k in the frame z1 = w1 = 1; the
    # error is relative to the sum of term moduli sqrt(k+1) (1 + |z w|)^k,
    # since the value itself cancels to zero near the curve z w = 1
    rng = np.random.default_rng(700 + k)
    state = max_entropy_vector(k)
    for _ in range(20):
        z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        expected = math.sqrt(k + 1) * (1 - z * w) ** k
        scale = math.sqrt(k + 1) * (1 + abs(z * w)) ** k
        assert abs(evaluate_section(state, z, w) - expected) <= 1e-12 * scale


@pytest.mark.parametrize("build", [near_product_vector, near_product_entropy])
def test_near_product_rejects_level_zero(build):
    with pytest.raises(ValueError, match="level k must be >= 1"):
        build(0)


def test_fourier_mode_accessor_bounds():
    r = restrict(bell_vector(2))
    with pytest.raises(IndexError):
        r.mode(3)
    with pytest.raises(IndexOutOfRange, match=r"mode -3 outside \[-2, 2\]"):
        r.mode(-3)
    # True would read as mode 1, and 1.5 fail as numpy's bare IndexError
    for bad in (True, 1.5):
        with pytest.raises(IndexOutOfRange, match=rf"mode {bad} outside \[-2, 2\]"):
            r.mode(bad)
