"""Gradient correctness and entropy maximization over kernel subspaces."""

import contextlib
import math
import re

import numpy as np
import pytest

from holoent import (
    DegenerateSpectrum,
    DomainError,
    NotNormalized,
    NotOrthonormal,
    OptProblem,
    StateTensor,
    bell_vector,
    critical_residual,
    diagonal_kernel_basis,
    entanglement_entropy,
    entropy_and_gradient,
    kernel_basis,
    max_entropy_vector,
    maximize,
)
from holoent import optimize
from holoent.optimize import GRAD_LOG_FLOOR, REFERENCE_DECAY, _ascend
from holoent.states import entropy_from_squared_schmidt, orthonormal_rows


def entropy_of_coords(subspace, coords):
    """Scale-invariant entropy of the embedded state, for finite differencing."""
    mats = [v.coeffs for v in subspace]
    if len(coords) == 2 * len(mats):
        mats = mats + [1j * m for m in mats]
    m = sum(c * b for c, b in zip(coords, mats))
    m = m / np.linalg.norm(m)
    sig = np.linalg.svd(m, compute_uv=False)
    return float(entropy_from_squared_schmidt(sig**2))


def finite_difference_gradient(subspace, coords, h=1e-5):
    grad = np.zeros_like(coords)
    for i in range(len(coords)):
        up = coords.copy()
        dn = coords.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (entropy_of_coords(subspace, up) - entropy_of_coords(subspace, dn)) / (2 * h)
    return grad


def realified_entropy_and_gradient(subspace, coords):
    """Reference: real coordinates over the doubled stack (B_1..B_m, iB_1..iB_m).

    Length-m coordinates use the plain stack. Each real coordinate's
    derivative sum_j w_j Re(u_j^H B_i v_j) is taken with one einsum over
    all stacked matrices.
    """
    mats = np.stack([v.coeffs for v in subspace])
    if len(coords) == 2 * len(mats):
        mats = np.concatenate([mats, 1j * mats])
    u, sig, vh = np.linalg.svd(np.tensordot(coords, mats, axes=1))
    value = float(entropy_from_squared_schmidt(sig**2))
    weights = -2.0 * sig * (np.log(np.maximum(sig**2, GRAD_LOG_FLOOR)) + 1.0)
    dsig = np.einsum("aj,iab,bj->ij", u.conj(), mats, vh.conj().T).real
    grad = dsig @ weights
    return value, grad - (grad @ coords) * coords


def test_single_ray_value_and_zero_gradient():
    with pytest.warns(DegenerateSpectrum):
        value, grad = entropy_and_gradient([bell_vector(1)], np.array([1.0]))
    assert abs(value - math.log(2)) < 1e-12
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_decomposable_direction_hits_entropy_floor():
    subspace = [StateTensor.basis_element(2, 0, 0)]
    with pytest.warns(DegenerateSpectrum):
        value, _ = entropy_and_gradient(subspace, np.array([1.0]))
    assert value == 0.0


def test_gradient_requires_unit_coords():
    with pytest.raises(NotNormalized):
        entropy_and_gradient([bell_vector(1)], np.array([0.5]))


@pytest.mark.parametrize("excess, raises", [(5e-9, True), (5e-11, False)])
def test_gradient_and_certificate_share_one_unit_norm_tolerance(excess, raises):
    basis = diagonal_kernel_basis(3)
    coords = np.array([1.0 + excess, 0.0, 0.0])
    state = StateTensor(3, coords[0] * basis[0].coeffs)
    if raises:
        with pytest.raises(NotNormalized):
            entropy_and_gradient(basis, coords)
        with pytest.raises(NotNormalized):
            critical_residual(state)
    else:
        entropy_and_gradient(basis, coords)
        critical_residual(state)


def test_gradient_rejects_bad_length():
    with pytest.raises(ValueError):
        entropy_and_gradient([bell_vector(1)], np.array([1.0, 0.0, 0.0]))


def test_degenerate_spectrum_warns():
    with pytest.warns(DegenerateSpectrum):
        entropy_and_gradient([bell_vector(1)], np.array([1.0]))


@pytest.mark.parametrize("k", list(range(1, 9)))
def test_gradient_matches_finite_differences(k):
    subspace = diagonal_kernel_basis(k)
    rng = np.random.default_rng(50 + k)
    m = len(subspace)
    for trial in range(50):
        size = m if trial % 2 == 0 else 2 * m
        coords = rng.standard_normal(size)
        coords /= np.linalg.norm(coords)
        # at k = 1 the only kernel state is a Bell state, whose Schmidt values tie
        with pytest.warns(DegenerateSpectrum) if k == 1 else contextlib.nullcontext():
            value, grad = entropy_and_gradient(subspace, coords)
        assert abs(value - entropy_of_coords(subspace, coords)) < 1e-12
        fd = finite_difference_gradient(subspace, coords)
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


@pytest.mark.filterwarnings("ignore::holoent.DegenerateSpectrum")
@pytest.mark.parametrize("build", [diagonal_kernel_basis, kernel_basis])
@pytest.mark.parametrize("k", list(range(1, 13)))
def test_gradient_matches_realified_reference(k, build):
    # a random unitary mix of the real kernel states spans the same
    # subspace through a complex orthonormal basis
    rng = np.random.default_rng(300 + k)
    basis = build(k)
    m = len(basis)
    mix, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    stack = np.tensordot(mix, np.stack([v.coeffs for v in basis]), axes=1)
    subspace = [StateTensor(k, c) for c in stack]
    for size in (m, 2 * m) * 3:
        coords = rng.standard_normal(size)
        coords /= np.linalg.norm(coords)
        value, grad = entropy_and_gradient(subspace, coords)
        ref_value, ref_grad = realified_entropy_and_gradient(subspace, coords)
        assert grad.shape == coords.shape and grad.dtype == float
        assert abs(value - ref_value) <= 1e-12
        scale = max(1.0, float(np.linalg.norm(ref_grad)))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * scale


def test_gradient_rejects_non_orthonormal_subspace():
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(NotOrthonormal):
        entropy_and_gradient([skewed], np.array([1.0]))


def test_maximize_single_ray():
    result = maximize(OptProblem(subspace=(bell_vector(1),), seed=1))
    assert abs(result.best_value - math.log(2)) < 1e-12
    assert result.converged
    assert result.iterations == 0


def test_maximize_diagonal_kernel_level3():
    result = maximize(OptProblem(subspace=tuple(diagonal_kernel_basis(3)), seed=5))
    assert result.best_value >= math.log(4) - 1e-6
    assert result.best_value <= math.log(4) + 1e-9
    assert result.converged
    assert result.critical_residual <= 1e-6


def test_maximize_diagonal_kernel_level4_reaches_at_least_ln4():
    result = maximize(OptProblem(subspace=tuple(diagonal_kernel_basis(4)), seed=5))
    assert result.best_value >= math.log(4) - 1e-6
    # no state exceeds the global bound, which max_entropy_vector attains
    assert result.best_value <= math.log(5) + 1e-9


@pytest.mark.parametrize("k", list(range(2, 9)))
def test_maximize_never_exceeds_global_bound(k):
    result = maximize(
        OptProblem(subspace=tuple(diagonal_kernel_basis(k)), restarts=4, seed=9)
    )
    assert result.best_value <= math.log(k + 1) + 1e-9


def test_maximize_is_deterministic():
    problem = OptProblem(subspace=tuple(diagonal_kernel_basis(4)), seed=77)
    a = maximize(problem)
    b = maximize(problem)
    assert a.best_value == b.best_value
    assert a.grad_norm == b.grad_norm
    assert a.iterations == b.iterations
    assert a.restart_values == b.restart_values
    assert np.array_equal(a.best_state.coeffs, b.best_state.coeffs)


def test_maximize_invariant_under_global_phase_of_basis():
    basis = diagonal_kernel_basis(3)
    rotated = [StateTensor(3, np.exp(0.7j) * v.coeffs) for v in basis]
    plain = maximize(OptProblem(subspace=tuple(basis), seed=3))
    twisted = maximize(OptProblem(subspace=tuple(rotated), seed=3))
    assert abs(plain.best_value - twisted.best_value) <= 1e-9


@pytest.mark.parametrize("k", [2, 5, 20])
def test_ascent_values_clear_the_nonmonotone_reference(k):
    basis = diagonal_kernel_basis(k)
    rows = orthonormal_rows(basis)
    m = len(basis)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u0 = rng.standard_normal(2 * m)
        u0 /= np.linalg.norm(u0)
        _, history, _, _, converged = _ascend(rows, u0[:m] + 1j * u0[m:], 200, 1.0, 1e-8)
        ref, q = history[0], 1.0
        for value in history[1:]:
            assert value >= ref
            q_new = REFERENCE_DECAY * q + 1.0
            ref_new = (REFERENCE_DECAY * q * ref + value) / q_new
            assert ref_new >= ref
            ref, q = ref_new, q_new
        assert min(history) >= history[0]
        if converged:
            assert max(history) - history[-1] <= 8 * np.spacing(max(history))


def test_every_sweep_restart_converges(monkeypatch):
    runs = []

    def recorded(*args):
        out = _ascend(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(optimize, "_ascend", recorded)
    for k in (2, 3, 10, 20, 30):
        basis = tuple(diagonal_kernel_basis(k))
        for seed in (0, 16):
            runs.clear()
            maximize(OptProblem(subspace=basis, restarts=16, seed=seed))
            assert len(runs) == 16
            assert all(converged for *_, converged in runs), (k, seed)
            if k == 2:
                assert max(iterations for _, _, _, iterations, _ in runs) <= 150


@pytest.mark.parametrize("k", [2, 3, 10])
def test_capped_restarts_report_their_best_iterate(k):
    basis = diagonal_kernel_basis(k)
    rows = orthonormal_rows(basis)
    m = len(basis)
    seed, restarts = 0, 16
    stopped_below_best = 0
    for max_iters in range(3, 13):
        result = maximize(OptProblem(subspace=tuple(basis), max_iters=max_iters,
                                     restarts=restarts, seed=seed))
        for r, reported in enumerate(result.restart_values):
            x = np.random.default_rng(seed + r).standard_normal(2 * m)
            x /= np.linalg.norm(x)
            u, history, gnorm, _, converged = _ascend(
                rows, x[:m] + 1j * x[m:], max_iters, 1.0, 1e-8)
            value, grad = optimize._value_and_gradient(rows, u)
            assert reported == (history[-1] if converged else max(history))
            assert value == reported and gnorm == np.linalg.norm(grad)
            stopped_below_best += history[-1] < max(history)
        assert result.best_value == max(result.restart_values)
    # the cap does stop some ascents below their best value
    assert stopped_below_best > 0


def test_no_convergence_is_flagged_not_fatal():
    problem = OptProblem(
        subspace=tuple(diagonal_kernel_basis(2)),
        max_iters=1,
        tol_grad=1e-15,
        restarts=2,
        seed=0,
    )
    result = maximize(problem)
    assert not result.converged
    assert result.best_value > 0.0


def test_best_state_is_unit_and_in_subspace():
    basis = diagonal_kernel_basis(5)
    result = maximize(OptProblem(subspace=tuple(basis), seed=11))
    state = result.best_state
    assert abs(np.linalg.norm(state.coeffs) - 1.0) < 1e-12
    vectors = np.column_stack([v.coeffs.reshape(-1) for v in basis])
    flat = state.coeffs.reshape(-1)
    inside = vectors @ (vectors.conj().T @ flat)
    assert np.linalg.norm(inside - flat) < 1e-9


def test_maximize_certifies_a_non_diagonal_best_state():
    result = maximize(OptProblem(subspace=tuple(kernel_basis(2)), seed=0))
    assert not result.best_state.is_diagonal()
    assert math.isfinite(result.critical_residual)
    assert result.critical_residual == critical_residual(result.best_state)


def test_problem_validation():
    with pytest.raises(ValueError):
        OptProblem(subspace=())
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(ValueError):
        OptProblem(subspace=(skewed,))


@pytest.mark.parametrize("settings", [
    {"tol_grad": math.nan},
    {"tol_grad": math.inf},
    {"tol_grad": 0.0},
    {"step0": math.nan},
    {"step0": math.inf},
    {"step0": -1.0},
    {"max_iters": 0},
    {"max_iters": 2.5},
    {"restarts": 0},
    {"restarts": 1.5},
    {"restarts": True},
    {"seed": -1},
    {"seed": 2.5},
])
def test_problem_rejects_non_finite_or_non_positive_settings(settings):
    with pytest.raises(ValueError, match="invalid optimizer settings"):
        OptProblem(subspace=tuple(diagonal_kernel_basis(2)), **settings)
    [(name, value)] = settings.items()
    with pytest.raises(DomainError, match=re.escape(f"{name}={value!r}")):
        OptProblem(subspace=tuple(diagonal_kernel_basis(2)), **settings)


@pytest.mark.parametrize("k", [2, 5])
def test_restart_r_starts_from_the_documented_draw(k):
    # a gradient tolerance this loose stops every ascent at its start
    basis = diagonal_kernel_basis(k)
    m = len(basis)
    seed = 40
    result = maximize(OptProblem(subspace=tuple(basis), tol_grad=1e300, restarts=3, seed=seed))
    assert result.converged and result.iterations == 0
    starts = []
    for r in range(3):
        x = np.random.default_rng(seed + r).standard_normal(2 * m)
        x /= np.linalg.norm(x)
        coeffs = sum((a + 1j * b) * v.coeffs for a, b, v in zip(x[:m], x[m:], basis))
        starts.append(StateTensor(k, coeffs / np.linalg.norm(coeffs)))
    values = [entanglement_entropy(state) for state in starts]
    assert np.max(np.abs(np.array(result.restart_values) - values)) <= 1e-12
    best = starts[int(np.argmax(result.restart_values))]
    assert np.max(np.abs(result.best_state.coeffs - best.coeffs)) <= 1e-14


def test_critical_residual_at_odd_extremal():
    assert critical_residual(max_entropy_vector(3)) <= 1e-12


def test_critical_residual_at_even_extremal_ignores_zero_entry():
    # equal squared weights off a vanishing middle entry
    zero_middle = StateTensor.from_diagonal(4, np.array([1, 1, 0, -1, -1]) / 2)
    assert critical_residual(zero_middle) <= 1e-12


def test_critical_residual_zero_on_bell_support():
    # squared weights are (1/2, 0, 1/2); the vanishing middle entry is
    # outside the support, so the spread over the support is zero
    assert critical_residual(bell_vector(2)) <= 1e-12


def test_critical_residual_detects_uneven_spectrum():
    state = StateTensor.from_diagonal(1, [math.sqrt(0.8), -math.sqrt(0.2)])
    assert critical_residual(state) == pytest.approx(0.6, abs=1e-12)
    # a local unitary U (x) V maps C to U C V^T and keeps the Schmidt spectrum
    rng = np.random.default_rng(4)
    u, v = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2))
    rotated = StateTensor(1, u @ state.coeffs @ v.T)
    assert not rotated.is_diagonal()
    assert critical_residual(rotated) == pytest.approx(0.6, abs=1e-12)


def test_critical_residual_requires_diagonal_unit_state():
    # off-diagonal states are certified too: a product state has one Schmidt value
    assert critical_residual(StateTensor.basis_element(1, 0, 1)) == 0.0
    with pytest.raises(NotNormalized):
        critical_residual(StateTensor.from_diagonal(1, [0.25, 0.25]))
