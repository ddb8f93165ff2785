"""Acceptance gate: end-to-end accuracy, calibration and performance.

Each test prints one PASS/FAIL line for its criterion before asserting,
so the verdicts survive in the captured output either way. Tolerances
are fixed here and must not be loosened to make a run pass.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from chisigma.cli import evaluate_report
from chisigma.identify import (
    RejectionBounds,
    SearchConfig,
    count_in_bounds,
    estimate_n_mle,
    estimate_n_moments,
    estimate_sigma,
    estimate_volume,
)
from chisigma.io import Volume4D, build_report
from chisigma.specfun import (
    digamma,
    gamma_p,
    inv_digamma,
    inv_gamma_p,
    ln_gamma,
    trigamma,
)
from chisigma.synth import PhantomSpec, object_mask, simulate

mp.mp.dps = 30

N_LEVELS = (1, 4, 8, 12)


def verdict(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def run_pipeline(n_true, profile, seed, dims=(64, 64, 50), volumes=65):
    spec = PhantomSpec(dims=dims, n_volumes=volumes, n_true=float(n_true),
                       profile=profile, seed=seed)
    noisy, truth = simulate(spec)
    config = SearchConfig()
    estimates = estimate_volume(noisy, config)
    report = build_report(estimates, config, noisy)
    ev = evaluate_report(report, truth)
    return spec, estimates, ev


class TestCriterion1UniformNoise:
    def test_uniform_noise_recovery(self):
        t0 = time.time()
        mean_errs = {}
        n_round_ok = True
        for i, n_true in enumerate(N_LEVELS):
            _, estimates, ev = run_pipeline(n_true, "uniform", seed=1000 + i)
            mean_errs[n_true] = ev.mean_pct_error
            for est in estimates:
                if est.converged and round(est.n_dof) != n_true:
                    n_round_ok = False
        elapsed = time.time() - t0
        err_ok = all(abs(e) < 2.0 for e in mean_errs.values())
        time_ok = elapsed < 60.0
        detail = (f"mean sigma error per N "
                  f"{ {n: round(e, 3) for n, e in mean_errs.items()} } "
                  f"(|.| < 2%), N rounds correct on converged slices: "
                  f"{n_round_ok}, elapsed {elapsed:.1f}s (< 60s)")
        ok = verdict(err_ok and n_round_ok and time_ok,
                     "criterion 1 (uniform-noise recovery)", detail)
        assert ok


class TestCriterion2SpatiallyVaryingNoise:
    def test_sphere_profile_recovery(self):
        mean_errs = {}
        n_round_ok = True
        for i, n_true in enumerate(N_LEVELS):
            _, estimates, ev = run_pipeline(n_true, "sphere_ramp", seed=2000 + i)
            mean_errs[n_true] = ev.mean_pct_error
            for est in estimates:
                if est.converged and round(est.n_dof) != n_true:
                    n_round_ok = False
        err_ok = all(abs(e) <= 12.0 for e in mean_errs.values())
        detail = (f"mean sigma error per N "
                  f"{ {n: round(e, 3) for n, e in mean_errs.items()} } "
                  f"(|.| <= 12%), N rounds correct on converged slices: {n_round_ok}")
        ok = verdict(err_ok and n_round_ok,
                     "criterion 2 (spatially varying noise)", detail)
        assert ok


class TestCriterion3EstimatorAccuracy:
    def test_monte_carlo_estimators(self):
        t0 = time.time()
        rng = np.random.default_rng(3000)
        sigma_true, n_true, k = 171.0, 4, 100000
        g = rng.standard_normal((k, 2 * n_true))
        m = sigma_true * np.sqrt(np.sum(g * g, axis=1))

        sigma = estimate_sigma(m)
        n_mom = estimate_n_moments(m, sigma)
        n_mle = estimate_n_mle(m, sigma)
        elapsed = time.time() - t0

        sigma_ok = abs(sigma - sigma_true) / sigma_true < 0.01
        mom_ok = abs(n_mom - n_true) / n_true < 0.02
        mle_ok = abs(n_mle - n_true) / n_true < 0.02
        agree_ok = abs(n_mom - n_mle) <= 0.2
        time_ok = elapsed < 5.0
        detail = (f"sigma {sigma:.3f} vs {sigma_true} (<1%), "
                  f"N_mom {n_mom:.4f} / N_mle {n_mle:.4f} vs {n_true} (<2%), "
                  f"|diff| {abs(n_mom - n_mle):.4f} (<=0.2), "
                  f"elapsed {elapsed:.2f}s (< 5s)")
        ok = verdict(sigma_ok and mom_ok and mle_ok and agree_ok and time_ok,
                     "criterion 3 (estimator unit accuracy)", detail)
        assert ok


class TestCriterion4SpecialFunctions:
    def test_special_function_accuracy(self):
        t0 = time.time()
        rng = np.random.default_rng(4000)

        def mixed(got, ref):
            return abs(got - ref) / max(1.0, abs(ref))

        xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 1000))
        e_ln = max(mixed(ln_gamma(x), float(mp.loggamma(x))) for x in xs)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 1000))
        e_dg = max(mixed(digamma(x), float(mp.digamma(x))) for x in xs)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 1000))
        e_tg = max(mixed(trigamma(x), float(mp.polygamma(1, x))) for x in xs)

        e_gp = 0.0
        for _ in range(1000):
            a = float(np.exp(rng.uniform(math.log(0.3), math.log(2000.0))))
            x = a * float(rng.uniform(0.0, 3.0))
            e_gp = max(e_gp, abs(gamma_p(a, x) - float(mp.gammainc(a, 0, x, regularized=True))))

        e_inv_gp = 0.0
        for a in (0.5, 1.0, 4.0, 12.0, 65.0, 780.0):
            for p in (1e-6, 0.025, 0.5, 0.975, 1 - 1e-6):
                e_inv_gp = max(e_inv_gp, abs(gamma_p(a, inv_gamma_p(a, p)) - p))
        e_inv_dg = max(abs(digamma(inv_digamma(float(y))) - float(y))
                       for y in np.linspace(-20.0, 20.0, 101))
        elapsed = time.time() - t0

        ok_all = (e_ln <= 1e-12 and e_dg <= 1e-10 and e_tg <= 1e-8
                  and e_gp <= 1e-12 and e_inv_gp <= 1e-10 and e_inv_dg <= 1e-10
                  and elapsed < 5.0)
        detail = (f"ln_gamma {e_ln:.1e} (<=1e-12), digamma {e_dg:.1e} (<=1e-10), "
                  f"trigamma {e_tg:.1e} (<=1e-8), gamma_p {e_gp:.1e} (<=1e-12), "
                  f"roundtrips {e_inv_gp:.1e}/{e_inv_dg:.1e} (<=1e-10), "
                  f"elapsed {elapsed:.2f}s (< 5s)")
        ok = verdict(ok_all, "criterion 4 (special functions)", detail)
        assert ok


class TestCriterion5AlgebraicEquivalence:
    def test_sigma_formula_equals_unsimplified_form(self):
        rng = np.random.default_rng(5000)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 20000))
            n = int(rng.integers(1, 13))
            sigma = float(np.exp(rng.uniform(math.log(0.01), math.log(1e4))))
            g = rng.standard_normal((k, 2 * n))
            m = sigma * np.sqrt(np.sum(g * g, axis=1))
            m2 = m * m
            s2, s4 = float(np.sum(m2)), float(np.sum(m2 * m2))
            ref = math.sqrt((k * s4 - s2 * s2) / s2) / math.sqrt(2.0 * k)
            worst = max(worst, abs(estimate_sigma(m) - ref) / ref)
        ok = verdict(worst <= 1e-10, "criterion 5 (algebraic equivalence)",
                     f"max relative gap {worst:.2e} (<= 1e-10) over 200 random sets")
        assert ok


class TestCriterion6RejectionCalibration:
    def test_calibration_and_object_exclusion(self):
        rng = np.random.default_rng(6000)
        sigma, n, v = 171.0, 4, 65
        g = rng.standard_normal((100, 100, v, 2 * n))
        data = sigma * np.sqrt(np.sum(g * g, axis=-1))
        bounds = RejectionBounds(inv_gamma_p(v * n, 0.025), inv_gamma_p(v * n, 0.975))
        count, _ = count_in_bounds(data, sigma, bounds)
        frac = count / 10000.0
        frac_ok = abs(frac - 0.95) <= 0.02

        spec, estimates, _ = run_pipeline(4, "uniform", seed=6001,
                                          dims=(48, 48, 24), volumes=33)
        obj = object_mask(spec)
        inside = sum(int(np.count_nonzero(e.mask & obj[:, :, e.slice_index]))
                     for e in estimates)
        total = sum(e.n_identified for e in estimates)
        contamination = inside / total if total else 1.0
        cont_ok = contamination < 0.01
        detail = (f"identified fraction {frac:.4f} (0.95 +/- 0.02), "
                  f"in-object contamination {contamination:.4f} (< 1%)")
        ok = verdict(frac_ok and cont_ok, "criterion 6 (rejection calibration)", detail)
        assert ok


class TestCriterion7PipelineInvariances:
    def test_invariances(self):
        spec = PhantomSpec(dims=(32, 32, 12), n_volumes=33, n_true=4.0, seed=7000)
        noisy, _ = simulate(spec)
        config = SearchConfig()
        base = estimate_volume(noisy, config)

        # Power-of-two scaling: sigma scales bit-exactly, N and masks fixed.
        scaled = estimate_volume(Volume4D(voxels=4.0 * noisy.voxels), config)
        scale_ok = all(
            s.sigma_g == 4.0 * b.sigma_g and s.n_dof == b.n_dof
            and np.array_equal(s.mask, b.mask)
            for b, s in zip(base, scaled)
        )

        # Volume order: estimates agree to summation roundoff, masks exact.
        perm = np.random.default_rng(7001).permutation(noisy.voxels.shape[-1])
        permuted = estimate_volume(Volume4D(voxels=noisy.voxels[..., perm]), config)
        perm_ok = all(
            abs(p.sigma_g - b.sigma_g) <= 1e-12 * b.sigma_g
            and abs(p.n_dof - b.n_dof) <= 1e-12 * b.n_dof
            and np.array_equal(p.mask, b.mask)
            for b, p in zip(base, permuted)
        )

        # Simulation seed determinism.
        again, _ = simulate(spec)
        other, _ = simulate(PhantomSpec(dims=(32, 32, 12), n_volumes=33,
                                        n_true=4.0, seed=7002))
        seed_ok = (np.array_equal(noisy.voxels, again.voxels)
                   and not np.array_equal(noisy.voxels, other.voxels))

        # Thread count must not change any number.
        threaded = estimate_volume(noisy, config, threads=4)
        thread_ok = all(
            t.sigma_g == b.sigma_g and t.n_dof == b.n_dof
            and np.array_equal(t.mask, b.mask)
            for b, t in zip(base, threaded)
        )
        detail = (f"scale equivariance {scale_ok}, volume permutation {perm_ok}, "
                  f"seed determinism {seed_ok}, thread independence {thread_ok}")
        ok = verdict(scale_ok and perm_ok and seed_ok and thread_ok,
                     "criterion 7 (pipeline invariances)", detail)
        assert ok


class TestCriterion8Performance:
    def test_large_volume_runtime(self):
        spec = PhantomSpec(dims=(96, 96, 60), n_volumes=83, n_true=4.0, seed=8000)
        noisy, truth = simulate(spec)
        t0 = time.time()
        estimates = estimate_volume(noisy, SearchConfig())
        elapsed = time.time() - t0
        errs = [abs(e.sigma_g - truth["sigma_g"]) / truth["sigma_g"]
                for e in estimates if e.error is None]
        sane = len(errs) == 60 and float(np.mean(errs)) < 0.02
        detail = (f"96x96x60x83 estimated in {elapsed:.1f}s (< 20s), "
                  f"mean |sigma error| {100 * float(np.mean(errs)):.2f}%")
        ok = verdict(elapsed < 20.0 and sane, "criterion 8 (performance)", detail)
        assert ok
