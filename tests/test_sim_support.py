"""Tests for RNG streams, distributions, and statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Clipped,
    Constant,
    Empirical,
    Exponential,
    Histogram,
    LogNormal,
    Normal,
    Pareto,
    RngRegistry,
    RunningStats,
    Shifted,
    TimeWeightedStats,
    Uniform,
    Weibull,
    derive_seed,
    summarize,
)


class TestRng:
    def test_same_path_same_stream_object(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a", "b") is rngs.stream("a", "b")

    def test_different_paths_independent(self):
        rngs = RngRegistry(1)
        a = rngs.stream("a").random(5)
        b = rngs.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        x = RngRegistry(42).stream("machine", "m1").random(3)
        y = RngRegistry(42).stream("machine", "m1").random(3)
        assert np.allclose(x, y)

    def test_seed_changes_stream(self):
        x = RngRegistry(1).stream("s").random(3)
        y = RngRegistry(2).stream("s").random(3)
        assert not np.allclose(x, y)

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(5, "a") == derive_seed(5, "a")
        assert derive_seed(5, "a") != derive_seed(5, "b")
        assert derive_seed(5, "a", "b") != derive_seed(5, "ab")

    def test_fork_is_deterministic(self):
        a = RngRegistry(9).fork("child").stream("x").random(2)
        b = RngRegistry(9).fork("child").stream("x").random(2)
        assert np.allclose(a, b)

    def test_reset_rewinds_stream(self):
        rngs = RngRegistry(3)
        first = rngs.stream("s").random(4)
        rngs.reset("s")
        again = rngs.stream("s").random(4)
        assert np.allclose(first, again)


class TestDistributions:
    rng = np.random.default_rng(0)

    @pytest.mark.parametrize("dist,expected_mean", [
        (Constant(5.0), 5.0),
        (Uniform(2.0, 4.0), 3.0),
        (Exponential(10.0), 10.0),
        (Normal(1.0, 2.0), 1.0),
        (Pareto(3.0, 2.0), 3.0),
    ])
    def test_analytic_means(self, dist, expected_mean):
        assert dist.mean == pytest.approx(expected_mean)

    @pytest.mark.parametrize("dist", [
        Constant(2.0), Uniform(0.0, 1.0), Exponential(3.0),
        Normal(0.0, 1.0), LogNormal(0.0, 0.5), Pareto(2.5),
        Weibull(1.5, 2.0),
    ])
    def test_sample_n_matches_scalar_type(self, dist):
        rng = np.random.default_rng(1)
        arr = dist.sample_n(rng, 100)
        assert arr.shape == (100,)
        assert isinstance(dist.sample(rng), float)

    def test_empirical_mean_converges(self):
        dist = Empirical([1.0, 2.0, 3.0])
        rng = np.random.default_rng(2)
        samples = dist.sample_n(rng, 5000)
        assert samples.mean() == pytest.approx(2.0, abs=0.1)
        assert set(np.unique(samples)) <= {1.0, 2.0, 3.0}

    def test_empirical_rejects_empty(self):
        with pytest.raises(ValueError):
            Empirical([])

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Uniform(5.0, 1.0)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_shifted(self):
        dist = Shifted(Constant(1.0), 0.5)
        assert dist.sample(self.rng) == 1.5
        assert dist.mean == 1.5

    def test_clipped_bounds(self):
        dist = Clipped(Normal(0.0, 100.0), low=-1.0, high=1.0)
        rng = np.random.default_rng(3)
        samples = dist.sample_n(rng, 200)
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_clipped_rejects_inverted(self):
        with pytest.raises(ValueError):
            Clipped(Constant(0.0), low=1.0, high=0.0)

    def test_pareto_infinite_mean_below_one(self):
        assert Pareto(0.9).mean == float("inf")

    def test_lognormal_mean_formula(self):
        dist = LogNormal(0.0, 1.0)
        assert dist.mean == pytest.approx(math.exp(0.5))

    def test_sampling_respects_seed(self):
        d = Exponential(1.0)
        a = d.sample_n(np.random.default_rng(7), 10)
        b = d.sample_n(np.random.default_rng(7), 10)
        assert np.allclose(a, b)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.n == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)

    def test_matches_numpy(self):
        data = np.random.default_rng(0).random(500)
        s = RunningStats()
        s.extend(data)
        assert s.mean == pytest.approx(data.mean())
        assert s.variance == pytest.approx(data.var(ddof=1))
        assert s.minimum == data.min()
        assert s.maximum == data.max()

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(100), rng.random(70) + 3
        sa, sb = RunningStats(), RunningStats()
        sa.extend(a)
        sb.extend(b)
        merged = sa.merge(sb)
        both = np.concatenate([a, b])
        assert merged.n == 170
        assert merged.mean == pytest.approx(both.mean())
        assert merged.variance == pytest.approx(both.var(ddof=1))

    def test_merge_with_empty(self):
        s = RunningStats()
        s.add(1.0)
        merged = s.merge(RunningStats())
        assert merged.n == 1 and merged.mean == 1.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_within_bounds(self, xs):
        s = RunningStats()
        s.extend(xs)
        assert s.minimum - 1e-6 <= s.mean <= s.maximum + 1e-6
        assert s.variance >= -1e-9


class TestTimeWeighted:
    def test_average_weighted_by_duration(self):
        tw = TimeWeightedStats(start_time=0.0, initial=0.0)
        tw.update(10.0, 4.0)   # value 0 for 10s
        tw.update(20.0, 0.0)   # value 4 for 10s
        tw.finish(20.0)
        assert tw.average == pytest.approx(2.0)

    def test_rejects_time_reversal(self):
        tw = TimeWeightedStats()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 2.0)

    def test_nan_with_zero_span(self):
        assert math.isnan(TimeWeightedStats().average)


class TestHistogram:
    def test_binning_and_overflow(self):
        h = Histogram(0.0, 10.0, nbins=10)
        for x in [-1.0, 0.0, 5.5, 9.99, 10.0, 100.0]:
            h.add(x)
        assert h.total == 6
        assert h.counts[0] == 1          # underflow
        assert h.counts[-1] == 2         # overflow (10.0 and 100.0)
        assert h.counts[1] == 1          # 0.0
        assert h.counts[6] == 1          # 5.5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram(5.0, 5.0)

    def test_bin_edges(self):
        h = Histogram(0.0, 1.0, nbins=4)
        assert np.allclose(h.bin_edges(), [0, 0.25, 0.5, 0.75, 1.0])


class TestSummarize:
    def test_empty(self):
        out = summarize([])
        assert out["n"] == 0 and math.isnan(out["mean"])

    def test_percentiles(self):
        out = summarize(range(101), percentiles=(50, 90))
        assert out["p50"] == 50.0
        assert out["p90"] == 90.0
        assert out["min"] == 0 and out["max"] == 100

    def test_single_value_std_zero(self):
        assert summarize([5.0])["std"] == 0.0
