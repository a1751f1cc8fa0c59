"""Unit tests for the Monte Carlo sampler and edge experiments."""

import math

import numpy as np
import pytest

from wignerlab import Refused
from wignerlab import sim
from wignerlab import oracle as orc


class TestConfig:
    def test_validation(self):
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=5.0)
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, dist="cauchy")
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, truncate=True)
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, dist="student", df=2.0)
        # numeric fields that are not finite real numbers (a --config file
        # can set v, df and delta)
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, truncate=True, delta="x")
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, v=float("nan"))
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, df=float("inf"))

    def test_truncation_level(self):
        cfg = sim.EnsembleConfig(n=100, rho=10.0, truncate=True, delta=0.5)
        assert cfg.truncation_level() == pytest.approx(10.0)
        assert sim.EnsembleConfig(n=100, rho=10.0).truncation_level() is None

    def test_default_delta(self):
        assert sim.default_delta(0.0, 0.0) == pytest.approx(1.0 / 12.0)

    def test_v4(self):
        assert sim.v4_of(sim.EnsembleConfig(n=4, rho=2.0)) == \
            pytest.approx(1.0 / 16.0)
        assert sim.v4_of(sim.EnsembleConfig(n=4, rho=2.0, dist="gaussian")) \
            == pytest.approx(3.0 / 16.0)
        assert sim.v4_of(sim.EnsembleConfig(n=4, rho=2.0, dist="student")) \
            > 3.0 / 16.0


class TestSampling:
    def test_deterministic_per_index(self):
        cfg = sim.EnsembleConfig(n=20, rho=5.0, seed=11)
        assert np.array_equal(sim.sample_matrix(cfg, 7),
                              sim.sample_matrix(cfg, 7))
        assert not np.array_equal(sim.sample_matrix(cfg, 7),
                                  sim.sample_matrix(cfg, 8))

    def test_symmetric_zero_diagonal(self):
        h = sim.sample_matrix(sim.EnsembleConfig(n=30, rho=6.0, seed=2), 0)
        assert np.array_equal(h, h.T)
        assert not np.any(np.diag(h))

    def test_rademacher_support(self):
        cfg = sim.EnsembleConfig(n=40, rho=10.0, seed=4)
        h = sim.sample_matrix(cfg, 0)
        nz = h[h != 0]
        expected = 0.5 / math.sqrt(10.0)
        assert np.allclose(np.abs(nz), expected)

    def test_dense_cap(self):
        cfg = sim.EnsembleConfig(n=4096, rho=10.0)
        with pytest.raises(Refused):
            sim.sample_matrix(
                sim.EnsembleConfig(n=4097, rho=10.0), 0)
        assert cfg.n == 4096  # boundary value is allowed
        # the estimate counts matrix entries
        with pytest.raises(Refused) as exc:
            sim.sample_matrix(sim.EnsembleConfig(n=5000, rho=10.0), 0)
        assert exc.value.estimate == 25_000_000

    def test_entry_variance(self):
        cfg = sim.EnsembleConfig(n=300, rho=30.0, seed=8)
        vals = []
        for k in range(20):
            h = sim.sample_matrix(cfg, k)
            iu = np.triu_indices(300, 1)
            vals.append(h[iu] ** 2)
        arr = np.concatenate(vals)
        target = 0.25 / 300
        z = (arr.mean() - target) / (arr.std(ddof=1) / math.sqrt(arr.size))
        assert abs(z) <= 4.0


class TestEstimators:
    def test_trace_vs_frobenius(self):
        h = sim.sample_matrix(sim.EnsembleConfig(n=25, rho=5.0, seed=3), 1)
        tr, lmax = sim.trace_power_and_lambda_max(h, 1)
        assert tr == pytest.approx(float(np.sum(h * h)), rel=1e-12)
        assert lmax == pytest.approx(float(np.max(np.abs(
            np.linalg.eigvalsh(h)))), rel=1e-12)

    def test_fast_route_matches_eig(self):
        # the spectral estimates against Tr H^{2s} from matrix powers
        cfg = sim.EnsembleConfig(n=50, rho=10.0, seed=17)
        a = sim.estimate_moments(cfg, [1, 2, 3, 4, 5], 8)
        hs = [sim.sample_matrix(cfg, k) for k in range(8)]
        for s in (1, 2, 3, 4, 5):
            b = sim.SampleStats.from_values(
                [np.trace(np.linalg.matrix_power(h, 2 * s)) for h in hs])
            assert a[s].mean == pytest.approx(b.mean, rel=1e-9)
            assert a[s].stderr == pytest.approx(b.stderr, rel=1e-9)

    def test_oracle_consistency(self):
        cfg = sim.EnsembleConfig(n=4, rho=2.0, seed=12)
        stats = sim.estimate_moments(cfg, [1, 2], 20000)
        for s in (1, 2):
            exact = float(orc.exact_moment_walk(orc.make_spec(4, 2, s)))
            assert abs(stats[s].mean - exact) <= 4.0 * stats[s].stderr

    def test_stats_shape(self):
        st = sim.SampleStats.from_values([1.0, 2.0, 3.0])
        assert st.mean == pytest.approx(2.0)
        assert st.n_samples == 3
        with pytest.raises(ValueError):
            sim.SampleStats.from_values([1.0])


class TestEdge:
    def test_tail_monotone(self):
        cfg = sim.EnsembleConfig(n=80, rho=16.0, seed=6)
        curve = sim.edge_tail(cfg, [-4.0, 0.0, 4.0, 40.0], 200)
        assert curve.tail_prob == tuple(sorted(curve.tail_prob,
                                               reverse=True))
        assert all(0.0 <= p <= 1.0 for p in curve.tail_prob)

    def test_grid_must_be_sorted(self):
        cfg = sim.EnsembleConfig(n=20, rho=5.0)
        with pytest.raises(ValueError):
            sim.edge_tail(cfg, [1.0, 0.0], 10)
        with pytest.raises(ValueError):
            sim.edge_tail(cfg, [], 10)

    def test_crossover_rows(self):
        rows = sim.crossover_scan([64], [0.0], 0.5, 20, seed=1)
        assert len(rows) == 1
        row = rows[0]
        assert row["s"] == int(0.5 * 64 ** (2.0 / 3.0))
        assert row["rho"] == pytest.approx(64 ** (2.0 / 3.0))
        assert row["thm_7_1_lower_bound"] > 0.0
        # 16 V_4 / (zeta sqrt(pi chi)) e^{-e chi^3} at the Rademacher V_4
        assert row["thm_7_1_lower_bound"] == \
            16.0 * 0.5 ** 4 / (1.0 * math.sqrt(math.pi * 0.5)) \
            * math.exp(-math.e * 0.5 ** 3)
        assert isinstance(row["lower_bound_ok"], bool)

    def test_crossover_rho_guard(self):
        with pytest.raises(sim.SimConfigError):
            sim.crossover_scan([64], [10.0], 0.5, 4)
