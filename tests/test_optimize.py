"""Gradient correctness and entropy maximization over kernel subspaces."""

import contextlib
import math
import re
import warnings
from fractions import Fraction

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
    projection_matrix,
)
from holoent import optimize
from holoent.optimize import GRAD_LOG_FLOOR, REFERENCE_DECAY, _ascend, _norm
from holoent.states import _orthonormal_blocks, entropy_from_squared_schmidt


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


def test_gradient_refuses_nan_coords():
    with pytest.raises(NotNormalized, match="nan"):
        entropy_and_gradient(diagonal_kernel_basis(3), [np.nan, 0.0, 0.0])


def test_gradient_refuses_complex_coords():
    # numpy's float conversion dropped the imaginary part with a warning only
    with pytest.raises(DomainError, match="coords"):
        entropy_and_gradient([bell_vector(1)], np.array([1 + 0.5j]))
    with pytest.raises(DomainError, match="coords"):
        entropy_and_gradient(diagonal_kernel_basis(3), [1.0 + 0j, 0.0, 0.0])


def test_critical_residual_refuses_nan_state():
    with pytest.raises(NotNormalized, match="nan"):
        critical_residual(StateTensor(1, np.full((2, 2), np.nan)))


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


def kernel_states_of_mode(k, d):
    """The kernel_basis(k) states whose coefficients all sit on mode i - j = d."""
    return [v for v in kernel_basis(k) if set(np.subtract(*np.nonzero(v.coeffs))) == {d}]


def mode_1_kernel_basis(k):
    return kernel_states_of_mode(k, 1)


def mode_minus_2_kernel_basis(k):
    return kernel_states_of_mode(k, -2)


@pytest.mark.filterwarnings("ignore::holoent.DegenerateSpectrum")
@pytest.mark.parametrize("k, build", [
    (k, build) for k in range(1, 13)
    for build in (diagonal_kernel_basis, kernel_basis, mode_1_kernel_basis,
                  mode_minus_2_kernel_basis)
    if k >= 3 or build in (diagonal_kernel_basis, kernel_basis)])
def test_gradient_matches_realified_reference(k, build):
    # a random unitary mix of the real kernel states spans the same
    # subspace through a complex orthonormal basis: one dense mode block
    # for kernel_basis, and still one diagonal for the single-mode builds,
    # where the closed form runs and d != 0 leaves |d| structural zeros;
    # the states themselves and their reversal split into blocks by mode,
    # and reversed, the blocks' rows run against the blocks' mode order
    rng = np.random.default_rng(300 + k)
    basis = build(k)
    m = len(basis)
    mix, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    stack = np.tensordot(mix, np.stack([v.coeffs for v in basis]), axes=1)
    for subspace in ([StateTensor(k, c) for c in stack], basis, basis[::-1]):
        for size in (m, 2 * m) * 3:
            coords = rng.standard_normal(size)
            coords /= np.linalg.norm(coords)
            value, grad = entropy_and_gradient(subspace, coords)
            ref_value, ref_grad = realified_entropy_and_gradient(subspace, coords)
            assert grad.shape == coords.shape and grad.dtype == float
            assert abs(value - ref_value) <= 1e-12
            scale = max(1.0, float(np.linalg.norm(ref_grad)))
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * scale


def test_colliding_structural_zeros_warn_off_the_main_diagonal():
    # the three mode-2 states at k = 5 sit on a diagonal of 4 cells, so
    # the state's 6 Schmidt values hold 2 structural zeros, which collide
    basis = kernel_states_of_mode(5, 2)
    coords = np.random.default_rng(7).standard_normal(2 * len(basis))
    coords /= np.linalg.norm(coords)
    with pytest.warns(DegenerateSpectrum):
        entropy_and_gradient(basis, coords)
    state = sum(c * v.coeffs for c, v in zip(coords[:3] + 1j * coords[3:], basis))
    sig = np.linalg.svd(state, compute_uv=False)
    assert len(sig) == 6 and np.all(sig[-2:] < optimize.DEGENERACY_GAP)
    # one structural zero on mode 1 collides with nothing
    basis = kernel_states_of_mode(5, 1)
    coords = np.random.default_rng(8).standard_normal(len(basis))
    coords /= np.linalg.norm(coords)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateSpectrum)
        entropy_and_gradient(basis, coords)


def count_calls(monkeypatch, namespace, name):
    """Wrap namespace.name so that each call appends to the returned list."""
    calls = []
    original = getattr(namespace, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(namespace, name, counted)
    return calls


@pytest.mark.parametrize("k", [2, 10, 20])
def test_a_diagonal_ascent_takes_no_svd(monkeypatch, k):
    svd_calls = count_calls(monkeypatch, np.linalg, "svd")
    evaluations = count_calls(monkeypatch, optimize, "_value_and_gradient")
    result = maximize(OptProblem(subspace=tuple(diagonal_kernel_basis(k))))
    assert result.converged and len(evaluations) > 100
    # the one SVD is critical_residual's certificate of the best state
    assert len(svd_calls) == 1


def test_a_multi_mode_ascent_takes_one_svd_per_evaluation(monkeypatch):
    svd_calls = count_calls(monkeypatch, np.linalg, "svd")
    evaluations = count_calls(monkeypatch, optimize, "_value_and_gradient")
    maximize(OptProblem(subspace=tuple(kernel_basis(4)), restarts=2))
    assert len(evaluations) > 10
    assert len(svd_calls) == len(evaluations) + 1


def test_gradient_rejects_non_orthonormal_subspace():
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(NotOrthonormal):
        entropy_and_gradient([skewed], np.array([1.0]))


@pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.diag([np.nan, 0.0])])
def test_problem_rejects_non_finite_subspace(bad):
    with pytest.raises(NotOrthonormal, match="nan"):
        OptProblem(subspace=(StateTensor(1, bad),))
    with pytest.raises(NotOrthonormal, match="nan"):
        entropy_and_gradient([StateTensor(1, bad)], np.array([1.0]))


def test_problem_rejects_mixed_levels_naming_them():
    with pytest.raises(DomainError, match=r"levels \[1, 2\]"):
        OptProblem(subspace=(bell_vector(1), bell_vector(2)))


def test_every_entry_refuses_an_empty_set_alike():
    # one check of an orthonormal set behind all three entries
    entries = {
        "projection_matrix": lambda: projection_matrix([]),
        "OptProblem": lambda: OptProblem(subspace=()),
        "entropy_and_gradient": lambda: entropy_and_gradient([], np.array([1.0])),
    }
    for name, entry in entries.items():
        with pytest.raises(ValueError) as info:
            entry()
        assert str(info.value) == "an orthonormal set needs at least one state", name


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
    _, blocks = _orthonormal_blocks(basis)
    m = len(basis)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u0 = rng.standard_normal(2 * m)
        u0 /= np.linalg.norm(u0)
        _, history, _, iterations, converged = _ascend(
            k, blocks, u0[:m] + 1j * u0[m:], 200, 1e-8)
        assert iterations == len(history) - 1
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
    for k in [*range(1, 25), 30]:
        basis = tuple(diagonal_kernel_basis(k))
        for seed in (0, 16):
            runs.clear()
            result = maximize(OptProblem(subspace=basis, restarts=16, seed=seed))
            assert len(runs) == 16
            assert all(converged for *_, converged in runs), (k, seed)
            assert abs(result.best_value - math.log(k + 1)) <= 1e-9, (k, seed)
            if k == 2:
                assert max(iterations for _, _, _, iterations, _ in runs) <= 150


@pytest.mark.parametrize("k", [2, 3, 10])
def test_capped_restarts_report_their_best_iterate(k):
    basis = diagonal_kernel_basis(k)
    _, blocks = _orthonormal_blocks(basis)
    m = len(basis)
    seed, restarts = 0, 16
    stopped_below_best = 0
    for max_iters in range(3, 13):
        result = maximize(OptProblem(subspace=tuple(basis), max_iters=max_iters,
                                     restarts=restarts, seed=seed))
        for r, reported in enumerate(result.restart_values):
            x = np.random.default_rng(seed + r).standard_normal(2 * m)
            x /= np.linalg.norm(x)
            u, history, gnorm, iterations, converged = _ascend(
                k, blocks, x[:m] + 1j * x[m:], max_iters, 1e-8)
            # no ascent stalls here, so an unconverged one ran to the cap
            assert iterations == len(history) - 1 <= max_iters
            assert converged or iterations == max_iters
            value, grad = optimize._value_and_gradient(k, blocks, u)
            assert reported == (history[-1] if converged else max(history))
            assert value == reported and gnorm == np.linalg.norm(grad)
            stopped_below_best += history[-1] < max(history)
        assert result.best_value == max(result.restart_values)
    # the cap does stop some ascents below their best value
    assert stopped_below_best > 0


@pytest.mark.parametrize("scale", [1.0, 0.0, 1e-160, 1e154])
def test_the_ascent_norm_is_numpys_bit_for_bit(scale):
    # near 1e-160 the unscaled sum of squares underflows and near 1e154 it
    # overflows, as numpy's does
    rng = np.random.default_rng(7)
    for n in range(1, 22):
        for _ in range(20):
            x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            with np.errstate(over="ignore"):
                expected = np.linalg.norm(x)
                got = _norm(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == expected.tobytes(), (x, got, expected)


def test_a_stalled_ascent_returns_its_best_iterate_unconverged():
    # at k = 1 no gradient norm reaches 1e-300: the ascent climbs to ln 2
    # and then every backtracked step fails the acceptance test
    k, blocks = _orthonormal_blocks(diagonal_kernel_basis(1))
    max_iters = 1000
    x = np.random.default_rng(0).standard_normal(2)
    x /= np.linalg.norm(x)
    u, history, gnorm, iterations, converged = _ascend(
        k, blocks, x[:1] + 1j * x[1:], max_iters, 1e-300)
    assert not converged
    assert iterations == len(history) - 1 < max_iters
    value, grad = optimize._value_and_gradient(k, blocks, u)
    assert value == max(history) and gnorm == np.linalg.norm(grad)
    assert abs(value - math.log(2)) <= 1e-15


def test_equal_restart_values_report_the_lowest_restart(monkeypatch):
    # every restart returns the same value from a distinct state, so only
    # the tie rule decides which state is reported
    basis = diagonal_kernel_basis(3)
    m = len(basis)
    calls = []

    def tied(k, blocks, u0, *settings):
        u = np.zeros(m, dtype=complex)
        u[len(calls)] = 1.0
        calls.append(u)
        return u, [0.5], float(len(calls)), 0, len(calls) == 2

    monkeypatch.setattr(optimize, "_ascend", tied)
    result = maximize(OptProblem(subspace=tuple(basis), restarts=3))
    assert len(calls) == 3
    assert result.restart_values == (0.5, 0.5, 0.5)
    assert result.best_value == 0.5 and result.converged
    assert result.grad_norm == 1.0
    assert np.max(np.abs(result.best_state.coeffs - basis[0].coeffs)) <= 1e-15


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
    for basis in (diagonal_kernel_basis(5), kernel_basis(3)):
        result = maximize(OptProblem(subspace=tuple(basis), seed=11))
        state = result.best_state
        assert abs(np.linalg.norm(state.coeffs) - 1.0) < 1e-12
        vectors = np.column_stack([v.coeffs.reshape(-1) for v in basis])
        flat = state.coeffs.reshape(-1)
        inside = vectors @ (vectors.conj().T @ flat)
        assert np.linalg.norm(inside - flat) < 1e-9


@pytest.mark.parametrize("k", [6, 20, 40])
def test_the_full_kernel_reaches_the_maximal_entropy(k):
    # the kernel holds max_entropy_vector(k), whose entropy ln(k+1) is the
    # largest of any level-k state
    result = maximize(OptProblem(subspace=tuple(kernel_basis(k)), restarts=2))
    assert result.converged
    assert abs(result.best_value - math.log(k + 1)) <= 1e-12
    assert abs(entanglement_entropy(result.best_state) - math.log(k + 1)) <= 1e-12


def test_maximize_certifies_a_non_diagonal_best_state():
    result = maximize(OptProblem(subspace=tuple(kernel_basis(2)), seed=0))
    coeffs = result.best_state.coeffs
    assert np.max(np.abs(coeffs - np.diag(np.diag(coeffs)))) > 1e-12
    assert math.isfinite(result.critical_residual)
    assert result.critical_residual == critical_residual(result.best_state)


def test_the_first_trial_step_is_not_a_setting():
    with pytest.raises(TypeError, match="step0"):
        OptProblem(subspace=tuple(diagonal_kernel_basis(2)), step0=1.0)


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
    {"tol_grad": -math.inf},
    {"tol_grad": -0.0},
    {"tol_grad": -1.0},
    {"max_iters": 0},
    {"max_iters": 2.5},
    {"restarts": 0},
    {"restarts": 1.5},
    {"restarts": True},
    {"seed": -1},
    {"seed": 2.5},
    # not real numbers: math.isfinite raised a bare TypeError, or took True as 1.0
    {"tol_grad": "1"},
    {"tol_grad": True},
    {"tol_grad": None},
    {"tol_grad": 1e-8 + 0j},
    # beyond the float range: math.isfinite raised a bare OverflowError
    {"tol_grad": Fraction(10**400)},
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
    assert np.max(np.abs(rotated.coeffs - np.diag(np.diag(rotated.coeffs)))) > 1e-12
    assert critical_residual(rotated) == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("small, expected", [(2e-10, 0.5 - 2e-10), (5e-11, 5e-11)])
def test_critical_residual_support_starts_at_support_tol(small, expected):
    # squared coefficients (1/2, 1/2 - small, small): 2e-10 is inside the
    # support and spreads it to about 1/2; 5e-11 is outside and the spread
    # is the gap between the two large entries
    assert optimize.SUPPORT_TOL == 1e-10
    state = StateTensor.from_diagonal(2, np.sqrt([0.5, 0.5 - small, small]))
    assert critical_residual(state) == pytest.approx(expected, abs=1e-15)


def test_critical_residual_requires_diagonal_unit_state():
    # off-diagonal states are certified too: a product state has one Schmidt value
    assert critical_residual(StateTensor.basis_element(1, 0, 1)) == 0.0
    with pytest.raises(NotNormalized):
        critical_residual(StateTensor.from_diagonal(1, [0.25, 0.25]))
