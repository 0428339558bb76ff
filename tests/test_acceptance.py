"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import scipy.sparse

from holoent import (
    StateTensor,
    asymptotic_mean_entropy,
    bell_vector,
    diagonal_kernel_basis,
    entanglement_entropy,
    entropy_and_gradient,
    fit_tail,
    kernel_basis,
    kernel_projection_symbol,
    max_entropy_vector,
    maximize,
    mc_mean_entropy,
    near_product_entropy,
    near_product_vector,
    page_mean,
    projection_matrix,
    restrict,
    schmidt,
    toeplitz_matrix,
)
from holoent.optimize import OptProblem

EQ_SERIES_K10 = 0.05554607526889177  # closed-form decay value at level 10


def report(name, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_level_one_kernel():
    basis = kernel_basis(1)
    ok_count = len(basis) == 1
    target = bell_vector(1).coeffs
    phase = np.vdot(target, basis[0].coeffs)
    aligned = basis[0].coeffs * phase.conjugate() / abs(phase)
    deviation = float(np.max(np.abs(aligned - target)))

    kernel_basis(1)  # warm path before timing
    elapsed = min(
        (lambda start: (kernel_basis(1), time.perf_counter() - start)[1])(time.perf_counter())
        for _ in range(5)
    )
    report(
        "criterion 1: level-1 kernel is the single Bell-type line",
        ok_count and deviation <= 1e-12 and elapsed < 1e-3,
        f"deviation={deviation:.2e}, best runtime={elapsed * 1e3:.3f} ms",
    )


def test_criterion_2_near_product_series():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 21):
        state = near_product_vector(k)
        # kernel membership, exact integer route: the unnormalized
        # coefficients (-k, 1, 0, ...) meet the binomial condition in
        # integer arithmetic, and the float path lands on exact zero
        assert sum(math.comb(k, j) * a for j, a in enumerate([-k, 1] + [0] * (k - 1))) == 0
        assert restrict(state).max_abs() == 0.0
        worst = max(worst, abs(entanglement_entropy(state) - near_product_entropy(k)))
    series = [near_product_entropy(k) for k in range(1, 11)]
    decreasing = all(a > b for a, b in zip(series, series[1:]))
    anchored = (
        abs(series[0] - math.log(2)) <= 1e-12
        and abs(series[9] - EQ_SERIES_K10) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: near-product states stay in the kernel with the closed-form entropies",
        worst <= 1e-12 and decreasing and anchored and elapsed < 1.0,
        f"worst entropy gap={worst:.2e}, k=10 value={series[9]:.4f}, runtime={elapsed:.2f} s",
    )


def test_criterion_3_bell_series():
    worst = 0.0
    for k in range(1, 21):
        state = bell_vector(k)
        assert restrict(state).max_abs() == 0.0
        worst = max(worst, abs(entanglement_entropy(state) - math.log(2)))
    report(
        "criterion 3: Bell-type states stay in the kernel with entropy ln 2",
        worst <= 1e-12,
        f"worst gap={worst:.2e}",
    )


def test_criterion_4_diagonal_kernel_extremes():
    start = time.perf_counter()
    dims_ok = all(len(diagonal_kernel_basis(k)) == k for k in range(1, 31))
    constructed_ok = True
    for k in range(1, 16):
        gap = abs(entanglement_entropy(max_entropy_vector(k)) - math.log(k + 1))
        constructed_ok = constructed_ok and gap <= 1e-12
    optimizer_ok = True
    for k in range(1, 16):
        target = math.log(k + 1)
        result = maximize(
            OptProblem(subspace=tuple(diagonal_kernel_basis(k)), restarts=16, seed=2026)
        )
        optimizer_ok = optimizer_ok and result.best_value >= target - 1e-6
        optimizer_ok = optimizer_ok and result.best_value <= math.log(k + 1) + 1e-9
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: diagonal kernel has dimension k and carries the maximal entropy ln(k+1)",
        dims_ok and constructed_ok and optimizer_ok and elapsed < 30.0,
        f"runtime={elapsed:.1f} s",
    )


def test_criterion_5_projection_identity():
    compression = toeplitz_matrix(kernel_projection_symbol(), 1).entries
    projection = projection_matrix([bell_vector(1)]).entries
    diff = float(np.max(np.abs(compression - projection)))
    idempotency = float(np.max(np.abs(compression @ compression - compression)))
    report(
        "criterion 5: level-1 compression equals the kernel projection and is idempotent",
        diff <= 1e-10 and idempotency <= 1e-12,
        f"max diff={diff:.2e}, idempotency defect={idempotency:.2e}",
    )


def test_criterion_6_sphere_average_asymptotics():
    start = time.perf_counter()
    sampler_ok = True
    for seed in (2026, 2027, 2028):
        for k in (1, 2, 3):
            estimate = mc_mean_entropy(k, 100_000, seed)
            sampler_ok = sampler_ok and abs(estimate.mean - page_mean(k + 1)) <= 3 * estimate.stderr
    leading_ok = True
    for k in (8, 16, 32):
        estimate = mc_mean_entropy(k, 10_000, 2026)
        bound = 7.0 / (12.0 * (k + 1) ** 2) + 5 * estimate.stderr
        leading_ok = leading_ok and abs(estimate.mean - asymptotic_mean_entropy(k)) <= bound
    c0, c1 = fit_tail([(k, page_mean(k + 1)) for k in (8, 16, 32, 64)])
    print(
        f"    tail fit on the exact oracle: c0={c0:+.4f} (expansion constant -0.5), "
        f"c1={c1:+.4f} against the model coefficient +1"
    )
    fit_ok = abs(c0 + 0.5) <= 0.02 and 0.9 <= c1 <= 1.1
    elapsed = time.perf_counter() - start
    report(
        "criterion 6: sampler matches the exact oracle and the leading asymptotics",
        sampler_ok and leading_ok and fit_ok and elapsed < 120.0,
        f"c0={c0:.4f}, c1={c1:.4f}, runtime={elapsed:.1f} s",
    )


def test_criterion_7_property_suite():
    rng = np.random.default_rng(2026)

    # phase invariance of the entropy
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    state = StateTensor(3, c / np.linalg.norm(c))
    base = entanglement_entropy(state)
    phase_ok = all(
        abs(entanglement_entropy(StateTensor(3, np.exp(1j * t) * state.coeffs)) - base) <= 1e-12
        for t in rng.uniform(0, 2 * np.pi, size=8)
    )

    # unitary invariance of Schmidt data
    x = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
    q, r = np.linalg.qr(x)
    u = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    moved = StateTensor(3, u @ state.coeffs @ u.conj().T)
    unitary_ok = bool(
        np.allclose(schmidt(moved).alphas, schmidt(state).alphas, atol=1e-10)
    )

    # entropy range over random states
    range_ok = True
    for k in (1, 2, 4):
        for _ in range(25):
            c = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
            value = entanglement_entropy(StateTensor(k, c / np.linalg.norm(c)))
            range_ok = range_ok and 0.0 <= value <= math.log(k + 1) + 1e-9

    # binomial scaling of restricted diagonal products, exact for k <= 30
    identity_ok = True
    for k in range(1, 31):
        base_modes = restrict(StateTensor.basis_element(k, 0, 0)).fourier
        for j in range(k + 1):
            scaled = math.comb(k, j) * base_modes
            identity_ok = identity_ok and np.array_equal(
                restrict(StateTensor.basis_element(k, j, j)).fourier, scaled
            )

    # kernel dimension k^2: e_m (x) e_{m-d}, m = max(0, d), restricts to
    # mode d alone, so the restriction has rank 2k+1 and its kernel
    # dimension (k+1)^2 - (2k+1) = k^2; kernel_basis attains it with k^2
    # orthonormal states of relative residual <= 1e-12
    dim_ok = True
    for k in range(1, 31):
        for d in range(-k, k + 1):
            m = max(0, d)
            modes = restrict(StateTensor.basis_element(k, m, m - d)).fourier
            dim_ok = dim_ok and modes[d + k] != 0 and np.count_nonzero(modes) == 1
        stack = np.stack([v.coeffs for v in kernel_basis(k)])
        vectors = scipy.sparse.csr_array(stack.reshape(len(stack), -1))
        gram = (vectors.conj() @ vectors.T).toarray()
        gram_defect = np.max(np.abs(gram - np.eye(len(stack))))
        binoms = np.array([math.comb(k, j) for j in range(k + 1)], dtype=float)
        weighted = stack * np.sqrt(np.outer(binoms, binoms))
        modes = [np.trace(weighted, offset=-d, axis1=1, axis2=2) for d in range(-k, k + 1)]
        residual = np.max(np.abs(modes)) / math.sqrt(math.comb(2 * k, k))
        dim_ok = dim_ok and len(stack) == k * k and gram_defect <= 1e-12 and residual <= 1e-12

    # analytic gradient against central differences
    grad_ok = True
    for k in (2, 4, 6):
        subspace = diagonal_kernel_basis(k)
        for _ in range(5):
            coords = rng.standard_normal(2 * len(subspace))
            coords /= np.linalg.norm(coords)
            _, grad = entropy_and_gradient(subspace, coords)
            fd = np.zeros_like(coords)
            h = 1e-5
            for i in range(len(coords)):
                up = coords.copy()
                dn = coords.copy()
                up[i] += h
                dn[i] -= h

                def value_at(v):
                    mats = np.stack([b.coeffs for b in subspace])
                    mats = np.concatenate([mats, 1j * mats])
                    m = np.tensordot(v / np.linalg.norm(v), mats, axes=1)
                    sq = np.linalg.svd(m, compute_uv=False) ** 2
                    keep = sq > 1e-14
                    return float(-(sq[keep] * np.log(sq[keep])).sum())

                fd[i] = (value_at(up) - value_at(dn)) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(fd)))
            grad_ok = grad_ok and float(np.max(np.abs(grad - fd))) <= 1e-6 * scale

    report(
        "criterion 7: property suite (phase, unitary, range, scaling, dimension, gradient)",
        phase_ok and unitary_ok and range_ok and identity_ok and dim_ok and grad_ok,
        f"phase={phase_ok}, unitary={unitary_ok}, range={range_ok}, "
        f"scaling={identity_ok}, dim={dim_ok}, grad={grad_ok}",
    )
