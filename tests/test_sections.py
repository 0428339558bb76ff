"""Basis normalization constants and exact monomial moments of the measure."""

import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from holoent import (
    HoloentError,
    LambdaRestriction,
    ReducedDensity,
    StateTensor,
    ToeplitzMatrix,
    asymptotic_mean_entropy,
    basis_norm_const,
    basis_values,
    bell_vector,
    diagonal_kernel_basis,
    evaluate_section,
    fit_tail,
    kernel_basis,
    kernel_projection_symbol,
    max_entropy_vector,
    mc_mean_entropy,
    near_product_entropy,
    near_product_vector,
    restrict,
    monomial_integral,
    sample_uniform_state,
    section_inner_product,
    toeplitz_matrix,
)
from holoent.errors import DomainError, IndexOutOfRange
from holoent.sections import WEIGHT_LEVEL_MAX, _mode_weights


def radial_moment_oracle(a, N):
    """Direct numerical integral of the moment against the normalized measure.

    In polar coordinates the angular factor contributes 2 pi / pi = 2,
    leaving 2 * int_0^inf r^(2a+1) (1+r^2)^(-N-2) dr.
    """
    value, err = integrate.quad(lambda r: 2 * r ** (2 * a + 1) * (1 + r * r) ** (-N - 2), 0, np.inf)
    assert err < 1e-6
    return value


def test_total_volume_is_one():
    assert monomial_integral(0, 0) == Fraction(1)


def test_moment_examples_against_quadrature():
    assert monomial_integral(1, 2) == Fraction(1, 6)
    assert monomial_integral(2, 2) == Fraction(1, 3)
    for a, n in [(0, 0), (1, 2), (2, 2), (0, 5), (3, 7), (6, 6)]:
        assert abs(float(monomial_integral(a, n)) - radial_moment_oracle(a, n)) < 1e-8


def test_moment_domain_error():
    with pytest.raises(DomainError):
        monomial_integral(3, 2)
    with pytest.raises(DomainError):
        monomial_integral(-1, 2)
    # 1.5 would reach math.comb as a TypeError, and True read as 1
    with pytest.raises(DomainError, match=re.escape("moment (1.5, 3)")):
        monomial_integral(1.5, 3)
    with pytest.raises(DomainError, match=re.escape("moment (True, 2)")):
        monomial_integral(True, 2)


def test_moment_recursion_is_exact():
    for n in range(13):
        for a in range(1, n + 1):
            assert monomial_integral(a, n) == monomial_integral(a - 1, n) * Fraction(a, n + 1 - a)


def test_moment_closed_form_equals_factorial_formula():
    for n in range(121):
        for a in range(n + 1):
            expected = Fraction(math.factorial(a) * math.factorial(n - a), math.factorial(n + 1))
            assert monomial_integral(a, n) == expected


def test_norm_const_examples():
    assert abs(basis_norm_const(1, 0) - math.sqrt(2)) < 1e-15
    for k in (1, 4, 9, 25):
        assert abs(basis_norm_const(k, 0) - math.sqrt(k + 1)) < 1e-13
    assert abs(basis_norm_const(4, 2) - math.sqrt(30)) < 1e-14


def test_norm_const_symmetry_exact():
    for k in range(1, 31):
        for j in range(k + 1):
            assert basis_norm_const(k, j) == basis_norm_const(k, k - j)


def test_norm_const_paths_agree_at_crossover():
    # exact integer square root against an independent log-gamma evaluation at k = 40
    k = 40
    for j in range(k + 1):
        exact = basis_norm_const(k, j)
        via_lgamma = math.exp(
            0.5 * (math.log(k + 1) + math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1))
        )
        assert abs(exact - via_lgamma) <= 1e-12 * exact
    assert np.isfinite(basis_norm_const(80, 40))


def test_norm_const_bits_equal_the_float_square_root_up_to_level_40():
    for k in range(1, 41):
        for j in range(k + 1):
            assert basis_norm_const(k, j) == math.sqrt((k + 1) * math.comb(k, j))


@pytest.mark.parametrize("k", [41, 100, 516, 1500])
def test_norm_const_within_one_ulp_of_the_decimal_square_root(k):
    # at k = 1500 the integer under the root exceeds 2^1024
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for j in range(k + 1):
            ref = float(decimal.Decimal((k + 1) * math.comb(k, j)).sqrt())
            assert abs(basis_norm_const(k, j) - ref) <= math.ulp(ref)


def test_norm_const_beyond_the_float_range_is_a_domain_error():
    assert np.isfinite(basis_norm_const(2042, 1021))
    with pytest.raises(DomainError, match=r"k=2043"):
        basis_norm_const(2043, 1021)


def test_norm_const_index_errors():
    with pytest.raises(IndexOutOfRange):
        basis_norm_const(3, 4)
    with pytest.raises(IndexOutOfRange):
        basis_norm_const(3, -1)
    # True would read as 1, and 1.5 reach math.comb as a TypeError
    for bad in (True, 1.5):
        with pytest.raises(IndexOutOfRange, match=rf"basis index {bad} outside \[0, 2\]"):
            basis_norm_const(2, bad)


# every public entry that takes a level k, called with arguments that are
# valid at k = 1, so only the level itself can be at fault
LEVEL_ENTRIES = {
    "StateTensor": lambda k: StateTensor(k, np.eye(2)),
    "StateTensor.from_dict": lambda k: StateTensor.from_dict(
        {"k": k, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    ),
    "StateTensor.from_diagonal": lambda k: StateTensor.from_diagonal(k, [1, 0]),
    "ReducedDensity": lambda k: ReducedDensity(k, np.eye(2)),
    "ToeplitzMatrix": lambda k: ToeplitzMatrix(k, np.eye(4)),
    "LambdaRestriction": lambda k: LambdaRestriction(k, np.ones(3)),
    "kernel_basis": kernel_basis,
    "diagonal_kernel_basis": diagonal_kernel_basis,
    "near_product_vector": near_product_vector,
    "near_product_entropy": near_product_entropy,
    "bell_vector": bell_vector,
    "max_entropy_vector": max_entropy_vector,
    "sample_uniform_state": lambda k: sample_uniform_state(k, np.random.default_rng(0)),
    "mc_mean_entropy": lambda k: mc_mean_entropy(k, 100, 0),
    "asymptotic_mean_entropy": asymptotic_mean_entropy,
    "fit_tail": lambda k: fit_tail([(k, 0.1), (2, 0.2), (3, 0.3)]),
    "toeplitz_matrix": lambda k: toeplitz_matrix(kernel_projection_symbol(), k),
    "basis_norm_const": lambda k: basis_norm_const(k, 0),
    "section_inner_product": lambda k: section_inner_product(k, 0, 0),
    "basis_values": lambda k: basis_values(k, 0.5),
}


@pytest.mark.parametrize("entry", LEVEL_ENTRIES.values(), ids=LEVEL_ENTRIES.keys())
@pytest.mark.parametrize("k", [0, -1, True, 2.5, None], ids=repr)
def test_every_level_entry_rejects_a_non_level_naming_it(entry, k):
    message = re.escape(f"level k must be >= 1 and an integer, got {k!r}")
    with pytest.raises(DomainError, match=message + "$") as info:
        entry(k)
    assert isinstance(info.value, ValueError) and isinstance(info.value, HoloentError)


@pytest.mark.parametrize("entry", LEVEL_ENTRIES.values(), ids=LEVEL_ENTRIES.keys())
def test_every_level_entry_accepts_numpy_integers(entry):
    entry(np.int64(1))


def test_orthonormality_reconstruction():
    # pins the volume normalization: these constants make the basis orthonormal
    for k in range(1, 31):
        for i in range(k + 1):
            for j in range(k + 1):
                expected = 1.0 if i == j else 0.0
                assert abs(section_inner_product(k, i, j) - expected) <= 1e-12


def test_inner_product_examples():
    assert abs(section_inner_product(3, 2, 2) - 1.0) <= 1e-13
    assert section_inner_product(3, 1, 2) == 0.0
    assert abs(section_inner_product(5, 0, 0) - 1.0) <= 1e-13


def test_evaluate_section_at_origin():
    state = StateTensor.basis_element(1, 0, 0)
    assert evaluate_section(state, 0.0, 0.0) == pytest.approx(2.0, abs=1e-14)


def test_evaluate_section_kernel_state_on_circle_point():
    value = evaluate_section(bell_vector(1), 1.0, 1.0)
    assert abs(value) < 1e-14


def test_evaluate_section_zero_state():
    assert evaluate_section(StateTensor(2, np.zeros((3, 3))), 0.7 + 0.2j, -1.1j) == 0.0


def test_weight_table_is_cached_and_read_only():
    table = _mode_weights(4)
    assert _mode_weights(4) is table
    assert isinstance(table, tuple) and len(table) == 9
    # entry d+k holds sqrt(binom(4,i) binom(4,i-d)), i = max(0,d)..min(4,4+d)
    assert table[4].tolist() == [1.0, 4.0, 6.0, 4.0, 1.0]
    assert table[0].tolist() == table[8].tolist() == [1.0]
    assert table[5].tolist() == [2.0, math.sqrt(24), math.sqrt(24), 2.0]
    for w in table:
        with pytest.raises(ValueError):
            w[0] = 2.0


def test_weight_table_reaches_the_largest_supported_level():
    k = WEIGHT_LEVEL_MAX
    table = _mode_weights(k)
    assert len(table) == 2 * k + 1
    assert all(len(w) == k + 1 - abs(d) for d, w in zip(range(-k, k + 1), table))
    assert all(np.all(np.isfinite(w)) for w in table)
    assert table[k][k // 2] == float(math.comb(k, k // 2))
    assert table[0].tolist() == table[2 * k].tolist() == [1.0]


def test_weight_table_above_the_largest_level_is_a_domain_error():
    with pytest.raises(DomainError, match=r"k=517.*516"):
        _mode_weights(WEIGHT_LEVEL_MAX + 1)
    with pytest.raises(DomainError, match=r"k=517.*516"):
        restrict(bell_vector(WEIGHT_LEVEL_MAX + 1))
    with pytest.raises(DomainError, match=r"k=517.*516"):
        toeplitz_matrix(kernel_projection_symbol(), WEIGHT_LEVEL_MAX + 1)
