"""Null calibration of the p-value verdicts.

Each test draws R seeded replicates. Under a null generator the share that
fails at alpha = 0.05 must be at most alpha plus a 3-sigma binomial margin,
sqrt(alpha (1 - alpha) / R); under a planted shift the same test must keep
its power.

Left out: the residual KS and ``cvm`` tests of ``concept.classify_drift``.
They treat the matched reference residuals as independent samples, though
only about half of them are distinct rows, so they fail too often on data
with no concept drift. That is a known defect, not yet mended; a test here
would only record it.
"""

import math

import numpy as np
import pytest

from modelwatch.concept import paired_model_comparison
from modelwatch.shift import apply_thresholds, ks_two_sample, permutation_pvalue

ALPHA = 0.05


def fail_rate(p_values) -> float:
    """The share of p-values the monitor's rule fails at ALPHA."""
    return float(np.mean([apply_thresholds(p, ALPHA, ALPHA, "low") == "fail" for p in p_values]))


def null_bound(replicates: int) -> float:
    return ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / replicates)


class TestUnivariateKs:
    def draws(self, shift, replicates=400, n=100):
        rng = np.random.default_rng(7)
        return [ks_two_sample(rng.normal(size=n), rng.normal(size=n) + shift)[1] for _ in range(replicates)]

    def test_null_false_fail_rate(self):
        assert fail_rate(self.draws(0.0)) <= null_bound(400)

    def test_power_under_a_0_6_sd_shift(self):
        assert fail_rate(self.draws(0.6)) >= 0.9


class TestPermutationTests:
    def draws(self, metric, shift, replicates, seed, n=30):
        rng = np.random.default_rng(seed)
        return [
            permutation_pvalue(metric, rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) + [shift, 0.0], 99, seed=r)
            for r in range(replicates)
        ]

    @pytest.mark.parametrize("metric", ["energy", "mmd2"])
    def test_null_false_fail_rate(self, metric):
        assert fail_rate(self.draws(metric, 0.0, 300, seed=11)) <= null_bound(300)

    @pytest.mark.parametrize("metric", ["energy", "mmd2"])
    def test_power_under_a_1_2_sd_shift(self, metric):
        assert fail_rate(self.draws(metric, 1.2, 100, seed=13)) >= 0.9


class TestPairedModelComparison:
    def draws(self, gap, replicates=400, n=50):
        rng = np.random.default_rng(17)
        results = []
        for _ in range(replicates):
            base = rng.exponential(size=n)  # the rows' shared difficulty
            results.append(
                paired_model_comparison(base + rng.normal(0.0, 0.3, n), base + gap + rng.normal(0.0, 0.3, n))
            )
        return results

    def test_null_false_call_rate(self):
        # a call of "a" or "b" on equally good models is a false fail
        results = self.draws(0.0)
        assert np.mean([r.better != "tie" for r in results]) <= null_bound(400)

    def test_power_under_a_planted_gap(self):
        results = self.draws(0.25)
        assert np.mean([r.better == "a" for r in results]) >= 0.9
