"""Matrix elements of rational-monomial multipliers and the kernel projection."""

import decimal
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from holoent import (
    StateTensor,
    SymbolExpr,
    SymbolTerm,
    ToeplitzMatrix,
    bell_vector,
    diagonal_kernel_basis,
    evaluate_symbol,
    kernel_basis,
    kernel_projection_symbol,
    projection_matrix,
    toeplitz_matrix,
)
from holoent.errors import DomainError, NotOrthonormal
from holoent.sections import _mode_weights, basis_norm_const
from holoent.states import _mode_blocks
from holoent.toeplitz import _factor_diagonal

EXPECTED_LEVEL1_COMPRESSION = np.array(
    [
        [0.5, 0.0, 0.0, -0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.0, 0.5],
    ]
)


def casimir(k):
    """Total-spin Casimir J^2 on the product basis e_i (x) e_j, lexicographic in (i, j).

    It keeps each diagonal i - j = d and is tridiagonal there: k(k+2)/2 +
    2 m1 m2 on the diagonal, with m1 = i - k/2 and m2 = k/2 - j, and
    +sqrt((i+1)(k-i)(j+1)(k-j)) coupling (i, j) with (i+1, j+1).
    """
    n = k + 1
    c = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            c[i * n + j, i * n + j] = k * (k + 2) / 2 + 2 * (i - k / 2) * (k / 2 - j)
            if i < k and j < k:
                off = math.sqrt((i + 1) * (k - i) * (j + 1) * (k - j))
                c[i * n + j, (i + 1) * n + j + 1] = c[(i + 1) * n + j + 1, i * n + j] = off
    return c


def projection_symbol_eigenvalue(k, spin):
    """Exact eigenvalue of the compressed projection symbol on total spin J."""
    return Fraction(9, 2) * ((k + 1) * (k + 2) - spin * (spin + 1)) / (k + 2) ** 2 - 2


def measure_grid(n_rad=24, n_ang=32):
    """Quadrature nodes and weights for the normalized affine-chart measure.

    Radial substitution s = r^2/(1+r^2) turns the radial factor into a
    polynomial on (0, 1), handled by Gauss-Legendre; the angular integral
    of a trigonometric polynomial is exact on the equispaced grid.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_rad)
    s = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    r = np.sqrt(s / (1.0 - s))
    z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.repeat(ws / 2.0, n_ang) * (2 * np.pi / n_ang) / np.pi
    return z, w


def symbol_on_grid(symbol, z, w):
    """Vectorized pointwise symbol values on the tensor grid (independent path)."""
    dz = 1.0 + np.abs(z) ** 2
    dw = 1.0 + np.abs(w) ** 2
    total = np.full((z.size, w.size), complex(symbol.offset), dtype=complex)
    for t in symbol.terms:
        fz = z**t.pz * np.conj(z) ** t.qz / dz**t.nz
        fw = w**t.pw * np.conj(w) ** t.qw / dw**t.nw
        total += complex(t.coef) * np.outer(fz, fw)
    return total


def entry_by_quadrature(symbol, k, a, b, c, d):
    """Pairing of symbol * e_a (x) e_b against e_c (x) e_d by tensor quadrature."""
    z, wz = measure_grid()
    w, ww = measure_grid()
    metric_z = (1.0 + np.abs(z) ** 2) ** (-k)
    metric_w = (1.0 + np.abs(w) ** 2) ** (-k)
    pz = wz * basis_norm_const(k, a) * z**a * np.conj(basis_norm_const(k, c) * z**c) * metric_z
    pw = ww * basis_norm_const(k, b) * w**b * np.conj(basis_norm_const(k, d) * w**d) * metric_w
    grid = symbol_on_grid(symbol, z, w)
    return pz @ grid @ pw


def random_real_symbol(rng, max_power=2):
    """Random symbol closed under conjugation, hence real valued."""
    terms = []
    for _ in range(rng.integers(1, 4)):
        pz, pw = rng.integers(0, max_power + 1, size=2)
        qz, qw = rng.integers(0, max_power + 1, size=2)
        nz = int(max(pz, qz)) + int(rng.integers(0, 2))
        nw = int(max(pw, qw)) + int(rng.integers(0, 2))
        coef = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(SymbolTerm(coef, pz=pz, qz=qz, pw=pw, qw=qw, nz=nz, nw=nw))
        terms.append(SymbolTerm(coef.conjugate(), pz=qz, qz=pz, pw=qw, qw=pw, nz=nz, nw=nw))
    return SymbolExpr(terms=tuple(terms), offset=float(rng.standard_normal()))


def test_projection_symbol_values():
    f = kernel_projection_symbol()
    assert evaluate_symbol(f, 0.0, 0.0) == pytest.approx(2.5, abs=1e-14)
    assert evaluate_symbol(f, 1.0, 1.0) == pytest.approx(-2.0, abs=1e-14)
    # constant on the whole circle, where zw = 1
    for t in np.linspace(0, 2 * np.pi, 7):
        value = evaluate_symbol(f, np.exp(1j * t), np.exp(-1j * t))
        assert value == pytest.approx(-2.0, abs=1e-13)


def test_projection_symbol_is_real_valued():
    assert kernel_projection_symbol().is_real_valued()
    lopsided = SymbolExpr(terms=(SymbolTerm(1.0, pz=1, nz=1),))
    assert not lopsided.is_real_valued()
    assert not SymbolExpr(offset=1j).is_real_valued()


def test_level1_compression_matches_frozen_matrix():
    T = toeplitz_matrix(kernel_projection_symbol(), 1)
    assert np.max(np.abs(T.entries - EXPECTED_LEVEL1_COMPRESSION)) == 0.0


def test_level1_compression_equals_kernel_projection():
    T = toeplitz_matrix(kernel_projection_symbol(), 1)
    P = projection_matrix([bell_vector(1)])
    assert np.max(np.abs(T.entries - P.entries)) <= 1e-12


def test_level1_compression_is_idempotent():
    T = toeplitz_matrix(kernel_projection_symbol(), 1).entries
    assert np.max(np.abs(T @ T - T)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_symbol_gives_identity(k):
    T = toeplitz_matrix(SymbolExpr(offset=1), k)
    assert np.array_equal(T.entries, np.eye((k + 1) ** 2))


def test_single_factor_symbol_diagonal():
    # |z|^2/(1+|z|^2) acts on the first factor only
    f = SymbolExpr(terms=(SymbolTerm(Fraction(1), pz=1, qz=1, nz=1),))
    T = toeplitz_matrix(f, 1)
    assert np.array_equal(np.diag(T.entries).real, [1 / 3, 1 / 3, 2 / 3, 2 / 3])
    assert np.max(np.abs(T.entries - np.diag(np.diag(T.entries)))) == 0.0
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        idx = a * 2 + b
        oracle = entry_by_quadrature(f, 1, a, b, a, b)
        assert abs(T.entries[idx, idx] - oracle) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_entries_match_quadrature(k):
    f = kernel_projection_symbol()
    T = toeplitz_matrix(f, k)
    n = k + 1
    rng = np.random.default_rng(31)
    indices = {(0, 0, 0, 0), (k, k, k, k)}
    while len(indices) < 8:
        indices.add(tuple(int(x) for x in rng.integers(0, n, size=4)))
    for a, b, c, d in indices:
        got = T.entries[c * n + d, a * n + b]
        oracle = entry_by_quadrature(f, k, a, b, c, d)
        assert abs(got - oracle) < 1e-8


def test_random_symbol_entries_match_quadrature():
    rng = np.random.default_rng(32)
    for k in (1, 2, 3):
        f = random_real_symbol(rng)
        T = toeplitz_matrix(f, k)
        n = k + 1
        for _ in range(6):
            a, b, c, d = (int(x) for x in rng.integers(0, n, size=4))
            got = T.entries[c * n + d, a * n + b]
            oracle = entry_by_quadrature(f, k, a, b, c, d)
            assert abs(got - oracle) < 1e-8


@pytest.mark.parametrize("k", list(range(1, 11)))
def test_real_symbols_give_hermitian_matrices(k):
    rng = np.random.default_rng(330 + k)
    for _ in range(3):
        f = random_real_symbol(rng)
        assert f.is_real_valued()
        T = toeplitz_matrix(f, k).entries
        assert np.max(np.abs(T - T.conj().T)) <= 1e-12


@pytest.mark.parametrize("k", list(range(1, 9)))
def test_bounded_symbols_give_bounded_spectra(k):
    # diagonal-monomial factors u = |z|^(2p)/(1+|z|^2)^n with p <= n take
    # values in [0, 1], so coefficient-wise bounds on the symbol are known
    rng = np.random.default_rng(40 + k)
    terms = []
    lo = hi = offset = float(rng.standard_normal())
    for _ in range(3):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3))
        nz = p + int(rng.integers(0, 2))
        nw = q + int(rng.integers(0, 2))
        coef = float(rng.standard_normal())
        terms.append(SymbolTerm(coef, pz=p, qz=p, pw=q, qw=q, nz=nz, nw=nw))
        lo += min(coef, 0.0)
        hi += max(coef, 0.0)
    f = SymbolExpr(terms=tuple(terms), offset=offset)
    # sampled values stay inside the analytic bounds
    rng_pts = np.random.default_rng(7)
    for _ in range(50):
        z = rng_pts.standard_normal() + 1j * rng_pts.standard_normal()
        w = rng_pts.standard_normal() + 1j * rng_pts.standard_normal()
        value = evaluate_symbol(f, z, w)
        assert lo - 1e-12 <= value.real <= hi + 1e-12
        assert abs(value.imag) < 1e-12
    eigs = np.linalg.eigvalsh(toeplitz_matrix(f, k).entries)
    assert eigs.min() >= lo - 1e-9
    assert eigs.max() <= hi + 1e-9


@pytest.mark.parametrize("bad", [0.5, True, None, -1, 2.0])
@pytest.mark.parametrize("name", ["pz", "qz", "pw", "qw", "nz", "nw"])
def test_symbol_term_exponents_must_be_integers(name, bad):
    with pytest.raises(ValueError, match=f"exponent {name} must be an integer >= 0, got {bad!r}"):
        SymbolTerm(1.0, **{name: bad})
    assert getattr(SymbolTerm(1.0, **{name: np.int64(2)}), name) == 2


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, complex(0.0, math.inf), np.float64(math.nan),
    "x", "1", None, True, np.bool_(True), Fraction(10**400), (SymbolTerm(1.0),),
])
def test_symbol_coefficients_and_offsets_must_be_finite_numbers(bad):
    with pytest.raises(ValueError, match=re.escape(f"coef must be a finite number, got {bad!r}")):
        SymbolTerm(bad, pz=1, nz=1)
    with pytest.raises(ValueError, match=re.escape(f"offset must be a finite number, got {bad!r}")):
        SymbolExpr(offset=bad)
    with pytest.raises(ValueError, match=re.escape(f"terms must be SymbolTerms, got {bad!r}")):
        SymbolExpr(terms=(SymbolTerm(1.0, pz=1, qz=1, nz=1), bad))
    for good in (Fraction(1, 3), np.float32(2.0), np.int64(-3), 1j, np.complex128(1 - 2j)):
        term = SymbolTerm(good, pz=1, qz=1, nz=1)
        assert np.isfinite(toeplitz_matrix(SymbolExpr(terms=(term,), offset=good), 2).entries).all()


def test_slowly_decaying_symbol_raises():
    with pytest.raises(DomainError):
        toeplitz_matrix(SymbolExpr(terms=(SymbolTerm(1.0, pz=1, qz=1),)), 2)


def test_divergent_term_without_entries_does_not_raise():
    # |z|^2 alone diverges, but the w-shift of 3 > k moves every
    # basis index out of range, so the term contributes nothing
    f = SymbolExpr(terms=(SymbolTerm(1.0, pz=1, qz=1, pw=3, nw=3),), offset=1)
    assert np.array_equal(toeplitz_matrix(f, 2).entries, np.eye(9))


@pytest.mark.parametrize("k", [8, 20])
def test_product_symbol_is_product_of_factor_compressions(k):
    # z^2 zbar / (1+|z|^2)^2 times w wbar^3 / (1+|w|^2)^3 acts on the two
    # factors separately, so its compression factors through them
    fz = SymbolExpr(terms=(SymbolTerm(1.0, pz=2, qz=1, nz=2),))
    gw = SymbolExpr(terms=(SymbolTerm(1.0, pw=1, qw=3, nw=3),))
    product = SymbolExpr(terms=(SymbolTerm(1.0, pz=2, qz=1, pw=1, qw=3, nz=2, nw=3),))
    T = toeplitz_matrix(product, k).entries
    factored = toeplitz_matrix(fz, k).entries @ toeplitz_matrix(gw, k).entries
    assert np.max(np.abs(T - factored)) <= 1e-12 * np.max(np.abs(factored))


def _exact_factor_entry(k, a, c, p, nu):
    """(k+1) sqrt(binom(k,a) binom(k,c)) I(a+p, k+nu) to 60 digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        n = k + nu
        weight = decimal.Decimal(math.comb(k, a) * math.comb(k, c)).sqrt()
        return (k + 1) * weight / ((n + 1) * math.comb(n, a + p))


@pytest.mark.parametrize("k", list(range(1, 21)))
def test_factor_entries_lie_within_three_ulps_of_the_exact_value(k):
    # each entry multiplies a rounded moment by a rounded square-root
    # weight, so it is not correctly rounded in general (2.02 ulps at
    # worst for k <= 20 on the exponents below); at k = 1 it is
    exponents = [(t.pz, t.qz, t.nz) for t in kernel_projection_symbol().terms]
    exponents += [(p, q, nu) for p in range(3) for q in range(3) for nu in range(p + 1, 4)]
    for p, q, nu in exponents:
        if abs(p - q) > k:
            continue  # no entries: toeplitz_matrix skips such a term
        a, c, values = _factor_diagonal(_mode_weights(k), k, p, q, nu)
        for ai, ci, value in zip(a.tolist(), c.tolist(), values.tolist()):
            exact = _exact_factor_entry(k, ai, ci, p, nu)
            if k == 1:
                assert value == float(exact)
            else:
                error = abs(decimal.Decimal(value) - exact) / decimal.Decimal(math.ulp(float(exact)))
                assert error <= 3, (p, q, nu, ai, float(error))


def test_projection_symbol_hermitian_at_level_40():
    T = toeplitz_matrix(kernel_projection_symbol(), 40).entries
    assert np.max(np.abs(T - T.conj().T)) <= 1e-12 * np.max(np.abs(T))


@pytest.mark.parametrize("k, mean_square", [
    (1, Fraction(1, 4)),
    (2, Fraction(31, 64)),
    (5, Fraction(181, 196)),
    (10, Fraction(79, 64)),
    (20, Fraction(2821, 1936)),
])
def test_projection_symbol_compresses_to_a_function_of_the_casimir(k, mean_square):
    # J^2 has eigenvalues J(J+1), each 2J+1 times, for J = 0..k
    c = casimir(k)
    spins = np.repeat(np.arange(k + 1), 2 * np.arange(k + 1) + 1)
    assert np.max(np.abs(np.linalg.eigvalsh(c) - spins * (spins + 1))) <= 1e-13 * k * (k + 1)
    # T = (9/2)((k+1)(k+2) - J^2)/(k+2)^2 - 2 entrywise
    t = toeplitz_matrix(kernel_projection_symbol(), k).entries
    eye = np.eye((k + 1) ** 2)
    expected = 4.5 * ((k + 1) * (k + 2) * eye - c) / (k + 2) ** 2 - 2 * eye
    assert np.max(np.abs(t - expected)) <= 1e-15 * np.max(np.abs(expected))
    # so tr T^2/(k+1)^2 is an exact sum over the spin sectors
    exact = sum((2 * spin + 1) * projection_symbol_eigenvalue(k, spin) ** 2
                for spin in range(k + 1)) / (k + 1) ** 2
    assert exact == mean_square
    assert np.sum(np.abs(t) ** 2) / (k + 1) ** 2 == pytest.approx(float(exact), rel=1e-14)


@pytest.mark.parametrize("k", list(range(1, 9)))
def test_kernel_projection_is_the_spectral_projector_below_top_spin(k):
    # the circle sees only the top spin J = k, so the kernel is J < k
    values, vectors = np.linalg.eigh(casimir(k))
    low = vectors[:, values < k * k]
    assert low.shape[1] == k * k
    p = projection_matrix(kernel_basis(k)).entries
    assert np.max(np.abs(p - low @ low.T)) <= 1e-14


def test_projection_matrix_of_bell_line():
    P = projection_matrix([bell_vector(1)]).entries
    assert np.max(np.abs(P - EXPECTED_LEVEL1_COMPRESSION)) < 1e-15


def test_projection_matrix_empty_and_complete():
    with pytest.raises(ValueError, match="at least one state"):
        projection_matrix([])
    full = [StateTensor.basis_element(1, i, j) for i in range(2) for j in range(2)]
    identity = projection_matrix(full)
    assert np.array_equal(identity.entries, np.eye(4))


def test_projection_matrix_idempotent_on_kernel():
    basis = kernel_basis(2)
    P = projection_matrix(basis).entries
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.max(np.abs(P - P.conj().T)) < 1e-14
    assert np.trace(P).real == pytest.approx(len(basis), abs=1e-10)


def test_projection_matrix_rejects_non_orthonormal():
    tilted = StateTensor(1, bell_vector(1).coeffs * 0.9)
    with pytest.raises(NotOrthonormal):
        projection_matrix([tilted])


def dense_projection(basis):
    """The dense product R^T conj(R) that the per-block projection replaces."""
    rows = np.stack([v.coeffs.reshape(-1) for v in basis])
    return rows.T @ rows.conj()


def assert_matches_dense(basis):
    P = projection_matrix(basis).entries
    assert not P.flags.writeable
    assert np.max(np.abs(P - dense_projection(basis))) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("k", list(range(1, 13)))
def test_projection_matrix_of_kernel_matches_dense_product(k):
    assert_matches_dense(kernel_basis(k))


@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_projection_matrix_of_diagonal_kernel_matches_dense_product(k):
    assert_matches_dense(diagonal_kernel_basis(k))


@pytest.mark.parametrize("k", [3, 20])
def test_kernel_basis_has_one_support_block_per_nonempty_mode(k):
    rows = np.stack([v.coeffs.reshape(-1) for v in kernel_basis(k)])
    blocks = list(_mode_blocks(rows))
    # modes d = -k and k hold no kernel state; mode d holds k - |d| states
    # on the k - |d| + 1 coefficients of its diagonal
    assert [len(r) for r, _, _ in blocks] == [k - abs(d) for d in range(1 - k, k)]
    assert [len(c) for _, c, _ in blocks] == [k - abs(d) + 1 for d in range(1 - k, k)]
    assert [mode for *_, mode in blocks] == list(range(1 - k, k))


def argmax_mode_blocks(rows):
    """_mode_blocks by its earlier recipe: argmax over the mode-sorted support."""
    n = math.isqrt(rows.shape[1])
    mode = flat_modes(n - 1)
    by_mode = np.argsort(mode, kind="stable")
    support = (rows != 0)[:, by_mode]
    low = mode[by_mode[support.argmax(axis=1)]]
    high = mode[by_mode[-1 - support[:, ::-1].argmax(axis=1)]]
    order = np.argsort(low, kind="stable")
    low, reach = low[order], np.maximum.accumulate(high[order])
    bounds = [0, *(np.flatnonzero(low[1:] > reach[:-1]) + 1), len(order)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        cols = np.flatnonzero((mode >= low[start]) & (mode <= reach[stop - 1]))
        yield np.sort(order[start:stop]), cols


def assert_same_blocks(rows):
    blocks = list(_mode_blocks(rows))
    expected = list(argmax_mode_blocks(rows))
    assert len(blocks) == len(expected)
    modes = flat_modes(math.isqrt(rows.shape[1]) - 1)
    for (row_idx, col_idx, mode), (want_rows, want_cols) in zip(blocks, expected):
        assert np.array_equal(row_idx, want_rows) and np.array_equal(col_idx, want_cols)
        # the block names its mode exactly when its columns lie on one diagonal
        spanned = set(modes[col_idx].tolist())
        assert mode == (spanned.pop() if len(spanned) == 1 else None)


@pytest.mark.parametrize("k", range(1, 7))
def test_mode_blocks_match_the_argmax_recipe_on_sparse_rows(k):
    rng = np.random.default_rng(100 + k)
    n = (k + 1) ** 2
    for density in (0.02, 0.1, 0.3):
        rows = np.where(rng.random((12, n)) < density,
                        rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n)), 0)
        rows[[0, 5]] = 0  # zero rows span every mode
        rows[7, rng.integers(n)] = -0.0  # a -0.0 coefficient is not in the support
        assert_same_blocks(rows)
    assert_same_blocks(np.zeros((3, n), dtype=complex))


@pytest.mark.parametrize("k", [1, 2, 5, 13, 30])
def test_mode_blocks_match_the_argmax_recipe_on_the_kernel_bases(k):
    for basis in (kernel_basis(k), diagonal_kernel_basis(k)):
        assert_same_blocks(np.stack([v.coeffs.reshape(-1) for v in basis]))


def test_projection_matrix_of_dense_random_basis_is_one_block():
    rng = np.random.default_rng(15)
    k, m = 3, 6
    n = (k + 1) ** 2
    q, _ = np.linalg.qr(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    basis = [StateTensor(k, col.reshape(k + 1, k + 1)) for col in q.T]
    rows = np.stack([v.coeffs.reshape(-1) for v in basis])
    [(row_idx, col_idx, mode)] = _mode_blocks(rows)
    assert np.array_equal(row_idx, np.arange(m)) and np.array_equal(col_idx, np.arange(n))
    assert mode is None
    P = projection_matrix(basis).entries
    assert np.array_equal(P, dense_projection(basis))


def flat_modes(k):
    """Mode i - j of each flattened coefficient i (k+1) + j."""
    return np.subtract.outer(np.arange(k + 1), np.arange(k + 1)).reshape(-1)


def partly_overlapping_basis():
    """Level-2 orthonormal states on coefficients 0-1, 2-3, 0-1-2-3 and 8.

    Their mode ranges are [-1, 0], [-2, 1], [-2, 1] and [0, 0], so all four
    are one block over the eight coefficients with d in [-2, 1]: every
    coefficient but 6 (e_2 (x) e_0, mode 2). The fourth state shares no
    coefficient with the others, and coefficients 4-7 are touched by none.
    """
    flat = np.zeros((4, 9), dtype=complex)
    flat[0, [0, 1]] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    flat[1, [2, 3]] = [1j / np.sqrt(2), -1j / np.sqrt(2)]
    flat[2, [0, 1, 2, 3]] = [0.5, -0.5, 0.5, 0.5]
    flat[3, 8] = -1.0
    return [StateTensor(2, row.reshape(3, 3)) for row in flat]


def test_support_blocks_merge_through_a_shared_state():
    rows = np.stack([v.coeffs.reshape(-1) for v in partly_overlapping_basis()])
    blocks = [(list(r), list(c)) for r, c, _ in _mode_blocks(rows)]
    assert blocks == [([0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 7, 8])]


def chain_basis():
    """Level-3 orthonormal states on modes {0, 1}, {2, 3} and {1, 2}, in that order."""
    flat = np.zeros((3, 16), dtype=complex)
    flat[0, [0, 4]] = [1 / np.sqrt(2), 1 / np.sqrt(2)]  # e_0 e_0, e_1 e_0
    flat[1, [8, 12]] = [1 / np.sqrt(2), -1 / np.sqrt(2)]  # e_2 e_0, e_3 e_0
    flat[2, [9, 13]] = [0.6, 0.8j]  # e_2 e_1, e_3 e_1
    return [StateTensor(3, row.reshape(4, 4)) for row in flat]


def test_mode_blocks_merge_a_chain_of_overlapping_ranges():
    basis = chain_basis()
    rows = np.stack([v.coeffs.reshape(-1) for v in basis])
    mode = flat_modes(3)
    blocks = [(list(r), list(c)) for r, c, _ in _mode_blocks(rows[:2])]
    assert blocks == [
        ([0], list(np.flatnonzero((mode >= 0) & (mode <= 1)))),
        ([1], list(np.flatnonzero(mode >= 2))),
    ]
    blocks = [(list(r), list(c)) for r, c, _ in _mode_blocks(rows)]
    assert blocks == [([0, 1, 2], list(np.flatnonzero(mode >= 0)))]
    assert_matches_dense(basis)


def test_zero_state_spans_every_mode_and_is_refused():
    zero = StateTensor(2, np.zeros((3, 3)))
    basis = partly_overlapping_basis()[3:] + [zero]
    rows = np.stack([v.coeffs.reshape(-1) for v in basis])
    [(row_idx, col_idx, mode)] = _mode_blocks(rows)
    assert list(row_idx) == [0, 1] and list(col_idx) == list(range(9)) and mode is None
    with pytest.raises(NotOrthonormal, match="deviates from identity by 1.000e"):
        projection_matrix(basis)
    with pytest.raises(NotOrthonormal):
        projection_matrix([zero])


def test_projection_matrix_of_partly_overlapping_basis_matches_dense_product():
    basis = partly_overlapping_basis()
    assert_matches_dense(basis)
    P = projection_matrix(basis).entries
    assert np.trace(P).real == pytest.approx(4.0, abs=1e-15)


def test_projection_matrix_rejects_non_orthonormal_pair_inside_one_block():
    good = partly_overlapping_basis()
    skew = np.zeros(9, dtype=complex)
    skew[[0, 1]] = [1.0, 0.9]
    skew /= np.linalg.norm(skew)  # unit, but not orthogonal to the first state
    basis = good[:1] + [StateTensor(2, skew.reshape(3, 3))] + good[3:]
    with pytest.raises(NotOrthonormal, match="deviates from identity"):
        projection_matrix(basis)


@pytest.mark.parametrize("k", [2, 5])
def test_projection_matrix_of_full_product_basis_is_exactly_identity(k):
    full = [StateTensor.basis_element(k, i, j) for i in range(k + 1) for j in range(k + 1)]
    assert np.array_equal(projection_matrix(full).entries, np.eye((k + 1) ** 2))
    # one block per mode; row n is the basis element of coefficient n,
    # so each block's rows and columns agree
    rows = np.stack([v.coeffs.reshape(-1) for v in full])
    mode = flat_modes(k)
    blocks = list(_mode_blocks(rows))
    assert [(list(r), list(c)) for r, c, _ in blocks] \
        == [(list(np.flatnonzero(mode == d)),) * 2 for d in range(-k, k + 1)]
    assert [d for *_, d in blocks] == list(range(-k, k + 1))


@pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.diag([np.nan, 0.0])])
def test_projection_matrix_rejects_non_finite_coefficients(bad):
    with pytest.raises(NotOrthonormal, match="nan"):
        projection_matrix([StateTensor(1, bad)])


def test_projection_matrix_rejects_mixed_levels_naming_them():
    with pytest.raises(DomainError, match=r"levels \[1, 2\]"):
        projection_matrix([bell_vector(1), bell_vector(2)])
    # the level is the one the states share
    assert projection_matrix(kernel_basis(2)).k == 2


def test_projection_matrix_takes_a_one_shot_iterable():
    # an iterator used to pass the emptiness check and fail inside np.stack
    P = projection_matrix(iter(kernel_basis(2)))
    assert P.k == 2
    assert np.array_equal(P.entries, projection_matrix(kernel_basis(2)).entries)
    with pytest.raises(ValueError) as info:
        projection_matrix(iter([]))
    assert str(info.value) == "an orthonormal set needs at least one state"


def test_matrix_freezes_a_copy_of_writeable_entries():
    given = np.eye(4, dtype=complex)
    T = ToeplitzMatrix(1, given)
    given[0, 0] = 5.0
    assert T.entries[0, 0] == 1.0
    assert not T.entries.flags.writeable
    assert not toeplitz_matrix(kernel_projection_symbol(), 1).entries.flags.writeable


def test_a_numpy_integer_level_matrix_serializes():
    symbol = kernel_projection_symbol()
    record = toeplitz_matrix(symbol, np.int64(1)).to_dict()
    assert json.loads(json.dumps(record)) == toeplitz_matrix(symbol, 1).to_dict()


def test_matrix_serialization():
    T = toeplitz_matrix(kernel_projection_symbol(), 1)
    record = T.to_dict()
    assert record["k"] == 1 and record["dim"] == 4
    assert np.array_equal(np.array(record["re"]), T.entries.real)
    assert np.array_equal(np.array(record["im"]), T.entries.imag)
