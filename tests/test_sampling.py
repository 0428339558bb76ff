"""Uniform state sampling, the exact mean-entropy oracle and tail fitting."""

import math
import os
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from holoent import (
    DomainError,
    SingularFit,
    asymptotic_mean_entropy,
    entanglement_entropy,
    fit_tail,
    mc_mean_entropy,
    page_mean,
    sample_uniform_state,
)
from holoent import sampling
from holoent.sampling import BLOCK_SIZE
from holoent.states import entropy_from_squared_schmidt

PAGE_D3 = 0.6623015873015873  # 1669/2520
PAGE_D4 = 0.9223956598956599


def test_sampler_is_bit_reproducible():
    a = sample_uniform_state(1, np.random.default_rng(2026))
    b = sample_uniform_state(1, np.random.default_rng(2026))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_samples_are_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = sample_uniform_state(2, rng)
        assert abs(np.linalg.norm(state.coeffs) - 1.0) < 1e-12


def test_entry_mass_is_symmetric():
    # each of the four entries carries a quarter of the mass on average
    rng = np.random.default_rng(4)
    n = 10_000
    mass = np.empty(n)
    for i in range(n):
        mass[i] = abs(sample_uniform_state(1, rng).coeffs[0, 0]) ** 2
    stderr = mass.std(ddof=1) / math.sqrt(n)
    assert abs(mass.mean() - 0.25) <= 5 * stderr


def test_mc_estimate_is_deterministic():
    a = mc_mean_entropy(1, 500, seed=7)
    b = mc_mean_entropy(1, 500, seed=7)
    assert a == b


def test_mc_requires_minimum_samples():
    # the sample count and the seed are integers, bool excluded
    for n, seed, match in [(99, 0, "n=99"), (1000.5, 0, "n=1000.5"), (True, 0, "n=True"),
                           (1000, 2.5, "seed=2.5"), (1000, -1, "seed=-1"),
                           (1000, True, "seed=True")]:
        with pytest.raises(DomainError, match=match):
            mc_mean_entropy(1, n, seed=seed)


@pytest.mark.parametrize("k", [-1, 0])
def test_mc_rejects_levels_below_one(k):
    with pytest.raises(ValueError, match="level k must be >= 1"):
        mc_mean_entropy(k, 100, 0)


def _bidiagonal_sample_entropy(k, rng):
    # one sample of the documented recipe: the 2k+1 chi-square variates of a
    # real upper-bidiagonal matrix, 2(k+1), 2k, ..., 2 degrees of freedom on
    # the diagonal and 2k, ..., 2 above it, then its normalized squared
    # singular values
    n = k + 1
    x = np.sqrt(rng.chisquare(2.0 * np.concatenate([np.arange(n, 0, -1), np.arange(k, 0, -1)])))
    b = np.diag(x[:n]) + np.diag(x[n:], 1)
    p = np.linalg.svd(b, compute_uv=False) ** 2
    return entropy_from_squared_schmidt(p / p.sum())


def _one_shot_block_entropies(k, count, seed, block):
    # the whole block in one serial pass of the one-sample recipe
    rng = np.random.default_rng([seed, block])
    return np.array([_bidiagonal_sample_entropy(k, rng) for _ in range(count)])


def _serial_reference(k, n, seed):
    values = np.concatenate([
        _one_shot_block_entropies(k, min(BLOCK_SIZE, n - start), seed, block)
        for block, start in enumerate(range(0, n, BLOCK_SIZE))
    ])
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


def test_mc_blocks_reproduce_the_documented_sampler():
    # block b consumes the stream of default_rng([seed, b]) exactly as
    # repeated single-sample draws would
    estimate = mc_mean_entropy(2, BLOCK_SIZE + 50, 123)
    assert (estimate.mean, estimate.stderr) == _serial_reference(2, BLOCK_SIZE + 50, 123)


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("n", [100, 2 * BLOCK_SIZE + 37])
def test_concurrent_chunked_blocks_equal_the_serial_one_shot_run(k, n):
    estimate = mc_mean_entropy(k, n, seed=11)
    assert (estimate.mean, estimate.stderr) == _serial_reference(k, n, 11)


def _sampled_spectra(monkeypatch, k, n, seed):
    # the squared Schmidt spectra behind mc_mean_entropy(k, n, seed), one row per sample
    spectra = []

    def recording_entropy(p):
        spectra.append(p)
        return entropy_from_squared_schmidt(p)

    monkeypatch.setattr(sampling, "entropy_from_squared_schmidt", recording_entropy)
    mc_mean_entropy(k, n, seed)
    monkeypatch.undo()
    return np.concatenate(spectra)


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_mean_purity_meets_its_closed_form(monkeypatch, k):
    # E tr rho^2 = 2D/((k+1)(D+1)) on a D-dimensional invariant subspace,
    # here the whole space, D = (k+1)^2
    n = 2 * BLOCK_SIZE
    spectra = _sampled_spectra(monkeypatch, k, n, 31 + k)
    assert spectra.shape == (n, k + 1)
    assert np.allclose(spectra.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    purity = np.sum(spectra**2, axis=1)
    stderr = purity.std(ddof=1) / math.sqrt(n)
    assert abs(purity.mean() - 2 * (k + 1) / ((k + 1) ** 2 + 1)) <= 5 * stderr


def test_largest_schmidt_weight_has_the_law_of_uniform_states(monkeypatch):
    # the bidiagonal model against normalized complex Gaussian coefficients
    k, n = 2, BLOCK_SIZE
    model = _sampled_spectra(monkeypatch, k, n, 5).max(axis=1)
    rng = np.random.default_rng(6)
    direct = [np.linalg.svd(sample_uniform_state(k, rng).coeffs, compute_uv=False)[0] ** 2
              for _ in range(n)]
    assert ks_2samp(model, direct).pvalue > 1e-3


def test_mc_matches_page_oracle_at_a_large_level():
    estimate = mc_mean_entropy(80, BLOCK_SIZE, 2026)
    assert abs(estimate.mean - page_mean(81)) <= 5 * estimate.stderr


def test_blocks_are_processed_in_bounded_chunks(monkeypatch):
    svd = np.linalg.svd
    sizes = []

    def recording_svd(a, **kwargs):
        sizes.append(len(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    mc_mean_entropy(20, BLOCK_SIZE + 37, seed=11)
    assert sum(sizes) == BLOCK_SIZE + 37
    assert len(sizes) > 2
    assert max(sizes) * 21**2 <= sampling._CHUNK_COEFFS


def test_concurrent_callers_get_the_sequential_results():
    calls = [(5, 2 * BLOCK_SIZE + 37, 1), (20, BLOCK_SIZE + 1, 2)]
    expected = [mc_mean_entropy(*call) for call in calls]
    results = [None] * len(calls)

    def run(i):
        results[i] = mc_mean_entropy(*calls[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


def test_worker_count_is_bounded_by_cpus_and_blocks():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert sampling._worker_count(1) == 1
    assert sampling._worker_count(10_000) == cpus


def test_large_levels_give_the_same_bits_on_one_thread_and_on_two(monkeypatch):
    # at k = 64 each SVD may also run on BLAS threads of its own
    k, n = 64, BLOCK_SIZE + 100
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    estimates = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sampling._worker_count(2) == cpus
        estimates.append(mc_mean_entropy(k, n, seed=7))
    assert estimates[0] == estimates[1]


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sampling._worker_count(10) == 3
    assert sampling._worker_count(2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sampling._worker_count(10) == 1


def test_mc_matches_page_oracle():
    for k, seed in [(1, 2026), (2, 2027), (3, 2028)]:
        estimate = mc_mean_entropy(k, 20_000, seed)
        assert abs(estimate.mean - page_mean(k + 1)) <= 4 * estimate.stderr


def test_entropy_samples_stay_in_range():
    rng = np.random.default_rng(9)
    for _ in range(200):
        value = entanglement_entropy(sample_uniform_state(3, rng))
        assert 0.0 <= value <= math.log(4)


def test_page_mean_values():
    assert page_mean(1) == 0.0
    assert page_mean(2) == pytest.approx(1 / 3, abs=1e-15)
    assert page_mean(3) == pytest.approx(PAGE_D3, abs=1e-15)
    assert page_mean(4) == pytest.approx(PAGE_D4, abs=1e-15)


def test_page_mean_is_the_exact_fraction_correctly_rounded():
    # oracle: the harmonic numbers summed as Fractions, one term at a time
    d_max = 120
    wanted = set(range(1, d_max + 1)) | {d * d for d in range(1, d_max + 1)}
    harmonic = {}
    total = Fraction(0)
    for i in range(1, d_max * d_max + 1):
        total += Fraction(1, i)
        if i in wanted:
            harmonic[i] = total
    for d in range(1, d_max + 1):
        exact = harmonic[d * d] - harmonic[d] - Fraction(d - 1, 2 * d)
        assert page_mean(d) == float(exact), d


def test_page_mean_rejects_bad_dimension():
    for d in (0, 2.5, True, None):
        with pytest.raises(DomainError, match=f"d={d!r}"):
            page_mean(d)


def test_asymptotic_mean_entropy_values():
    assert asymptotic_mean_entropy(10) == pytest.approx(math.log(11) - 0.5, abs=1e-14)
    assert asymptotic_mean_entropy(1) == pytest.approx(math.log(2) - 0.5, abs=1e-14)
    # the sphere-average asymptotic_prediction column at k = 1, 5, 10, 20
    expected = [0.19315, 1.29176, 1.89790, 2.54452]
    for k, value in zip((1, 5, 10, 20), expected):
        assert asymptotic_mean_entropy(k) == pytest.approx(value, abs=5e-6)
    with pytest.raises(ValueError, match="level k must be >= 1"):
        asymptotic_mean_entropy(0)


@pytest.mark.parametrize("k", list(range(1, 65)) + [128, 256])
def test_asymptotic_mean_entropy_is_below_the_exact_mean_by_the_page_term(k):
    # page_mean(N) = ln N - 1/2 + 7/(12 N^2) - 11/(120 N^4) + ... with N = k + 1
    gap = page_mean(k + 1) - asymptotic_mean_entropy(k)
    assert 0.0 < gap <= 7.0 / (12.0 * (k + 1) ** 2)


def test_fit_tail_recovers_its_own_model():
    # exact synthetic data ln k - 1/2 + 1/k lies in the span of the fit
    pairs = [(k, math.log(k) - 0.5 + 1.0 / k) for k in (8, 16, 32)]
    c0, c1 = fit_tail(pairs)
    assert abs(c0 + 0.5) <= 1e-9
    assert abs(c1 - 1.0) <= 1e-9


def test_fit_tail_on_exact_oracle():
    pairs = [(k, page_mean(k + 1)) for k in (8, 16, 32, 64)]
    c0, c1 = fit_tail(pairs)
    # constant term and 1/k coefficient match ln(k+1) - 1/2 = ln k - 1/2 + 1/k + ...
    assert abs(c0 + 0.5) <= 0.02
    assert 0.9 <= c1 <= 1.1


def test_fit_tail_reads_a_generator_like_a_list():
    # the validation pass used up a generator before the fit read it
    levels = (8, 16, 32, 64)
    fitted = fit_tail((k, page_mean(k + 1)) for k in levels)
    assert fitted == fit_tail([(k, page_mean(k + 1)) for k in levels])


@pytest.mark.parametrize("mean", [math.nan, math.inf, True, 1j, "0.5"], ids=repr)
def test_fit_tail_refuses_a_mean_that_is_not_a_finite_real(mean):
    # a NaN mean came back as (nan, nan)
    message = f"mean at level 16 must be a finite real number, got {mean!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        fit_tail([(8, 1.0), (16, mean), (32, 1.2)])


def test_fit_tail_needs_three_distinct_levels():
    with pytest.raises(SingularFit):
        fit_tail([(8, 1.0), (16, 1.1)])
    with pytest.raises(SingularFit):
        fit_tail([(8, 1.0), (8, 1.0), (8, 1.0)])


def test_mc_estimate_fields():
    estimate = mc_mean_entropy(2, 400, seed=5)
    assert estimate.k == 2 and estimate.n_samples == 400 and estimate.seed == 5
    assert estimate.stderr >= 0.0
    assert 0.0 <= estimate.mean <= math.log(3)
