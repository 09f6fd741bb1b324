"""Tests for RNG streams, distributions, and statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Clipped,
    LogNormal,
    Pareto,
    RngRegistry,
    RunningStats,
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


class TestDistributions:
    @pytest.mark.parametrize("dist,expected_mean", [
        (Pareto(3.0, 2.0), 3.0),
    ])
    def test_analytic_means(self, dist, expected_mean):
        assert dist.mean == pytest.approx(expected_mean)

    # Ids keep the cases' positions in the original seven-distribution table.
    @pytest.mark.parametrize("dist", [
        pytest.param(LogNormal(0.0, 0.5), id="dist4"),
        pytest.param(Pareto(2.5), id="dist5"),
    ])
    def test_sample_n_matches_scalar_type(self, dist):
        rng = np.random.default_rng(1)
        arr = dist.sample_n(rng, 100)
        assert arr.shape == (100,)
        assert isinstance(dist.sample(rng), float)

    def test_clipped_bounds(self):
        dist = Clipped(LogNormal(0.0, 3.0), low=-1.0, high=1.0)
        rng = np.random.default_rng(3)
        samples = dist.sample_n(rng, 200)
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_clipped_rejects_inverted(self):
        with pytest.raises(ValueError):
            Clipped(LogNormal(0.0, 1.0), low=1.0, high=0.0)

    def test_pareto_infinite_mean_below_one(self):
        assert Pareto(0.9).mean == float("inf")

    def test_lognormal_mean_formula(self):
        dist = LogNormal(0.0, 1.0)
        assert dist.mean == pytest.approx(math.exp(0.5))

    def test_sampling_respects_seed(self):
        d = LogNormal(0.0, 1.0)
        a = d.sample_n(np.random.default_rng(7), 10)
        b = d.sample_n(np.random.default_rng(7), 10)
        assert np.allclose(a, b)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_matches_numpy(self):
        data = np.random.default_rng(0).random(500)
        s = RunningStats()
        for x in data:
            s.add(x)
        assert s.mean == pytest.approx(data.mean())
        assert s.minimum == data.min()
        assert s.maximum == data.max()

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_within_bounds(self, xs):
        s = RunningStats()
        for x in xs:
            s.add(x)
        assert s.minimum - 1e-6 <= s.mean <= s.maximum + 1e-6


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
