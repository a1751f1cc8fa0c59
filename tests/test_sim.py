"""Unit tests for the Monte Carlo sampler and edge experiments."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from wignerlab import ENTRY_LAWS, EntryLaw, Refused
from wignerlab import cli
from wignerlab import sim
from wignerlab import oracle as orc
from wignerlab import verify


# -- reference implementation ------------------------------------------------
# The per-sample sampler that sim.sample_block replaced, kept verbatim: a
# fresh Generator(Philox(key=(seed, k))) per sample, a triu_indices fill and
# h += h.T.  The block sampler must reproduce it byte for byte.

def ref_sample_matrix(config, sample_index):
    n = config.n
    key = np.array([config.seed & 0xFFFFFFFFFFFFFFFF,
                    sample_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    m = n * (n - 1) // 2
    if config.dist == "rademacher":
        a = (2.0 * rng.integers(0, 2, size=m) - 1.0) * config.v
    elif config.dist == "gaussian":
        a = rng.normal(0.0, config.v, size=m)
    else:
        scale = config.v / math.sqrt(config.df / (config.df - 2.0))
        a = rng.standard_t(config.df, size=m) * scale
    if config.delta is not None:
        a = np.where(np.abs(a) > float(n) ** config.delta, 0.0, a)
    mask = rng.random(m) < config.rho / n
    vals = a * mask / math.sqrt(config.rho)
    h = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    h[iu] = vals
    h += h.T
    return h


def ref_spectra(config, n_samples):
    return [np.linalg.eigvalsh(ref_sample_matrix(config, k))
            for k in range(n_samples)]


def ref_estimate_moments(spectra, s_list):
    return {s: sim.SampleStats.from_values(
        [float(np.sum(eig ** (2 * s))) for eig in spectra]) for s in s_list}


def ref_edge_counts(spectra, thresholds):
    counts = [0] * len(thresholds)
    for eig in spectra:
        lmax = float(np.max(np.abs(eig)))
        for i, thr in enumerate(thresholds):
            if lmax > thr:
                counts[i] += 1
    return counts


def stats_bytes(stats):
    return np.array(dataclasses.astuple(stats), dtype=float).tobytes()


LAWS = [dict(dist=dist, delta=delta)
        for dist in ("rademacher", "gaussian", "student")
        for delta in (None, 0.05)]


def block_size(n):
    return max(1, sim.BLOCK_ENTRIES // (n * n))


class TestConfig:
    def test_validation(self):
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=5.0)
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, dist="cauchy")
        # the law's row refuses a df that leaves it no variance
        with pytest.raises(sim.SimConfigError,
                           match="^student df=2.0 has no moment V_2$"):
            sim.EnsembleConfig(n=4, rho=1.0, dist="student", df=2.0)
        # numeric fields that are not finite real numbers (a --config file
        # can set v, df and delta)
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, delta="x")
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, v=float("nan"))
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=4, rho=1.0, df=float("inf"))
        # an int past the float range is no finite real number either
        with pytest.raises(sim.SimConfigError):
            sim.EnsembleConfig(n=10 ** 400, rho=1.0)
        # nor is a bool, though it is a numbers.Real (delta=False truncated
        # at n^0 = 1, and v=True ran at v = 1)
        for bad in ({"v": True}, {"delta": False}, {"df": True}):
            with pytest.raises(sim.SimConfigError):
                sim.EnsembleConfig(n=4, rho=1.0, **bad)
        # truncation is set by delta alone: there is no truncate field
        with pytest.raises(TypeError):
            sim.EnsembleConfig(n=4, rho=1.0, truncate=True, delta=0.01)

    def test_truncation_level(self):
        cfg = sim.EnsembleConfig(n=100, rho=10.0, delta=0.5)
        assert cfg.truncation_level() == pytest.approx(10.0)
        assert sim.EnsembleConfig(n=100, rho=10.0).truncation_level() is None
        # a level past the float range truncates nothing (it raised
        # OverflowError, an exit 5)
        cfg = sim.EnsembleConfig(n=8, rho=2.0, seed=3, delta=1e300)
        assert cfg.truncation_level() == math.inf
        assert sim.sample_block(cfg, 0, 1).tobytes() == sim.sample_block(
            dataclasses.replace(cfg, delta=None), 0, 1).tobytes()

    def test_default_delta(self):
        assert sim.default_delta(0.0, 0.0) == pytest.approx(1.0 / 12.0)


class TestSampling:
    def test_deterministic_per_index(self):
        cfg = sim.EnsembleConfig(n=20, rho=5.0, seed=11)
        assert np.array_equal(sim.sample_block(cfg, 7, 8),
                              sim.sample_block(cfg, 7, 8))
        assert not np.array_equal(sim.sample_block(cfg, 7, 8),
                                  sim.sample_block(cfg, 8, 9))

    def test_symmetric_zero_diagonal(self):
        h = sim.sample_block(sim.EnsembleConfig(n=30, rho=6.0, seed=2),
                             0, 1)[0]
        assert np.array_equal(h, h.T)
        assert not np.any(np.diag(h))

    def test_rademacher_support(self):
        cfg = sim.EnsembleConfig(n=40, rho=10.0, seed=4)
        h = sim.sample_block(cfg, 0, 1)[0]
        nz = h[h != 0]
        expected = 0.5 / math.sqrt(10.0)
        assert np.allclose(np.abs(nz), expected)

    def test_dense_cap(self):
        cfg = sim.EnsembleConfig(n=4096, rho=10.0)
        with pytest.raises(Refused):
            sim.sample_block(
                sim.EnsembleConfig(n=4097, rho=10.0), 0, 1)
        assert cfg.n == 4096  # boundary value is allowed
        # the estimate counts matrix entries
        with pytest.raises(Refused) as exc:
            sim.sample_block(sim.EnsembleConfig(n=5000, rho=10.0), 0, 1)
        assert exc.value.estimate == 25_000_000

    def test_entry_variance(self):
        cfg = sim.EnsembleConfig(n=300, rho=30.0, seed=8)
        vals = []
        for h in sim.sample_block(cfg, 0, 20):
            iu = np.triu_indices(300, 1)
            vals.append(h[iu] ** 2)
        arr = np.concatenate(vals)
        target = 0.25 / 300
        z = (arr.mean() - target) / (arr.std(ddof=1) / math.sqrt(arr.size))
        assert abs(z) <= 4.0


class TestBlockSampler:
    """The block sampler against the per-sample reference, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 4, 30, 200])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: "%s%s" % (
        law["dist"], "-trunc" if law["delta"] else ""))
    def test_matrix_matches_reference(self, n, law):
        # at rho = n the sampler draws no mask; the reference still draws
        # it, as the last draw of each stream
        full = sim.EnsembleConfig(n=n, rho=float(n), seed=23, **law)
        cfg = sim.EnsembleConfig(n=n, rho=min(3.0, float(n)), seed=23, **law)
        for k in range(3):
            for c in (cfg, full):
                h = sim.sample_block(c, k, k + 1)[0]
                ref = ref_sample_matrix(c, k)
                assert h.shape == ref.shape and h.dtype == ref.dtype
                assert h.tobytes() == ref.tobytes()
        # rows of a block are the samples themselves
        block = sim.sample_block(cfg, 5, 9)
        assert block.shape == (4, n, n)
        for row, k in enumerate(range(5, 9)):
            assert block[row].tobytes() == ref_sample_matrix(cfg, k).tobytes()

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: "%s%s" % (
        law["dist"], "-trunc" if law["delta"] else ""))
    def test_chunk_boundaries(self, law):
        # m = 80,601 entries, odd, read as one full chunk and an uneven
        # tail, and the mask after them: the chunked reads of each stream
        # give the one-shot reference's bytes
        n = 402
        m = n * (n - 1) // 2
        assert m % 2 == 1 and sim.CHUNK < m < 2 * sim.CHUNK
        for rho in (3.0, float(n)):
            cfg = sim.EnsembleConfig(n=n, rho=rho, seed=23, **law)
            assert (sim.sample_block(cfg, 0, 1)[0].tobytes()
                    == ref_sample_matrix(cfg, 0).tobytes())
            block = sim.sample_block(cfg, 5, 9)
            assert block.shape == (4, n, n)
            for row, k in enumerate(range(5, 9)):
                assert (block[row].tobytes()
                        == ref_sample_matrix(cfg, k).tobytes())

    def test_empty_block(self):
        # start == stop gives an empty (0, n, n) stack
        for n in (1, 4, 300):
            cfg = sim.EnsembleConfig(n=n, rho=min(3.0, float(n)))
            assert sim.sample_block(cfg, 5, 5).shape == (0, n, n)

    @pytest.mark.parametrize("n, config, bound", [
        (600, dict(rho=60.0), 1.3),
        (600, dict(rho=600.0, dist="gaussian"), 1.3),
        (600, dict(rho=60.0, dist="student", delta=0.05), 1.3),
        (2000, dict(rho=2000.0), 1.1)],
        ids=["rademacher", "gaussian-full", "student-trunc", "n2000-full"])
    def test_peak_one_matrix(self, n, config, bound):
        # a sample is built inside its own matrix: beside it the sampler
        # holds a 1-byte mask per entry and O(CHUNK) scratch.  Measured
        # 1.02-1.27 matrices; drawing the entries into a separate array
        # took 1.50-1.56.  The warm-up call keeps numpy.random's one-time
        # allocations out of the peak
        sim.sample_block(sim.EnsembleConfig(n=8, rho=2.0, seed=1), 0, 1)
        cfg = sim.EnsembleConfig(n=n, seed=4, **config)
        tracemalloc.start()
        try:
            sim.sample_block(cfg, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * 8

    def test_truncation_bites(self):
        # the truncated laws above do zero some entries
        cfg = sim.EnsembleConfig(n=200, rho=200.0, dist="gaussian", seed=23,
                                 delta=0.05)
        full = dataclasses.replace(cfg, delta=None)
        assert (np.count_nonzero(sim.sample_block(cfg, 0, 1))
                < np.count_nonzero(sim.sample_block(full, 0, 1)))

    def test_streams_match_fresh_generators(self):
        # one Philox reset per sample draws what a fresh one per sample does,
        # for every draw the sampler makes; indices wrap at 2^64 like keys
        def draws(rng):
            return (rng.integers(0, 2, size=7), rng.normal(0.0, 0.5, size=5),
                    rng.standard_t(14.0, size=5), rng.random(9))

        for seed, start in ((0, 0), (-1, 2 ** 64 - 2), (2 ** 70 + 5, 3)):
            cfg = sim.EnsembleConfig(n=4, rho=2.0, seed=seed)
            got = [draws(rng)
                   for rng in sim._sample_streams(cfg, start, start + 3)]
            for k, drawn in zip(range(start, start + 3), got):
                key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                                k & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
                want = draws(np.random.Generator(np.random.Philox(key=key)))
                for x, y in zip(drawn, want):
                    assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("n", [4, 30])
    def test_estimators_match_reference(self, n):
        # sample counts that end mid-block and that are one block plus one
        step = block_size(n)
        assert step > 1
        cfg = sim.EnsembleConfig(n=n, rho=2.0, dist="gaussian", seed=31)
        for count in (step // 2, step + 1, 2 * step + step // 3):
            spectra = ref_spectra(cfg, count)
            blocks = list(sim.sample_spectra(cfg, count))
            assert len(blocks) == -(-count // step)
            assert (np.concatenate(blocks).tobytes()
                    == np.array(spectra).tobytes())
            got = sim.estimate_moments(cfg, [1, 2, 3], count)
            want = ref_estimate_moments(spectra, [1, 2, 3])
            for s in (1, 2, 3):
                assert stats_bytes(got[s]) == stats_bytes(want[s])
            curve = sim.edge_tail(cfg, [-2.0, 0.0, 2.0], count)
            assert list(curve.counts) == ref_edge_counts(spectra,
                                                         curve.thresholds)

    def test_one_matrix_per_block_from_256(self):
        # edge_tail's Lanczos route reads one matrix per block
        assert sim.BLOCK_ENTRIES <= sim.LANCZOS_MIN_N ** 2
        assert block_size(255) == 1 and block_size(256) == 1
        cfg = sim.EnsembleConfig(n=256, rho=4.0, seed=2)
        blocks = list(sim.sample_spectra(cfg, 2))
        assert [b.shape for b in blocks] == [(1, 256), (1, 256)]
        assert (np.concatenate(blocks).tobytes()
                == np.array(ref_spectra(cfg, 2)).tobytes())


def edge_scale(config):
    return 2.0 * config.v * config.n ** (-2.0 / 3.0)


class TestLanczos:
    """edge_tail's Lanczos route against eigvalsh on every sample."""

    X_GRID = [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("n", [256, 300, 600])
    @pytest.mark.parametrize("dense", [False, True], ids=["dilute", "dense"])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: "%s%s" % (
        law["dist"], "-trunc" if law["delta"] else ""))
    def test_counts_match_reference(self, n, dense, law):
        rho = float(n) if dense else n ** (2.0 / 3.0)
        cfg = sim.EnsembleConfig(n=n, rho=rho, seed=37, **law)
        curve = sim.edge_tail(cfg, self.X_GRID, 6)
        assert list(curve.counts) == ref_edge_counts(ref_spectra(cfg, 6),
                                                     curve.thresholds)
        assert curve.lanczos_fallbacks == 0
        assert 6 * sim.LANCZOS_CHECK <= curve.lanczos_steps \
            <= 6 * sim.LANCZOS_STEPS

    def test_small_n_takes_no_lanczos_step(self):
        # n = 255 has one matrix per block, yet eigvalsh is as fast there
        assert block_size(255) == 1 and sim.LANCZOS_MIN_N == 256
        cfg = sim.EnsembleConfig(n=255, rho=20.0, seed=37)
        curve = sim.edge_tail(cfg, self.X_GRID, 2)
        assert (curve.lanczos_steps, curve.lanczos_fallbacks) == (0, 0)
        assert list(curve.counts) == ref_edge_counts(ref_spectra(cfg, 2),
                                                     curve.thresholds)

    def test_value_against_eigvalsh(self):
        cfg = sim.EnsembleConfig(n=300, rho=30.0, dist="gaussian", seed=3)
        scale = edge_scale(cfg)
        for k in range(3):
            h = sim.sample_block(cfg, k, k + 1)[0]
            value, steps = sim.lanczos_lambda_max(
                h, sim.lanczos_start(cfg, k), 2.0 * cfg.v)
            want = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            assert abs(value - want) <= 1e-9 * scale
            assert steps % sim.LANCZOS_CHECK == 0

    def test_invariant_start_space(self):
        # the zero matrix: the Krylov space is invariant after one step
        value, steps = sim.lanczos_lambda_max(np.zeros((5, 5)), np.ones(5),
                                              1.0)
        assert (value, steps) == (0.0, 1)
        # an eigenvector start: its eigenvalue, even if negative
        h = np.diag([1.0, -3.0, 2.0])
        value, steps = sim.lanczos_lambda_max(h, np.array([0.0, 1.0, 0.0]),
                                              1.0)
        assert (value, steps) == (3.0, 1)

    @pytest.mark.parametrize("v", [1e-170, 1e200])
    def test_edge_far_from_one(self, v):
        # the iteration runs in units of the edge 2v: a norm of the raw
        # vectors underflowed at v = 1e-170 (counts [0, 0, 0] after
        # one-step "invariant" exits) and overflowed at v = 1e200 (every
        # sample fell back, with a RuntimeWarning, an error under tier-1)
        cfg = sim.EnsembleConfig(n=300, rho=30.0, v=v, seed=0)
        curve = sim.edge_tail(cfg, [-4.0, 0.0, 4.0], 4)
        assert list(curve.counts) == ref_edge_counts(ref_spectra(cfg, 4),
                                                     curve.thresholds)
        assert curve.lanczos_fallbacks == 0
        assert curve.lanczos_steps >= 4 * sim.LANCZOS_CHECK

    def test_planted_threshold_falls_back(self):
        cfg = sim.EnsembleConfig(n=256, rho=40.0, seed=5)
        spectra = ref_spectra(cfg, 4)
        lam = float(np.max(np.abs(spectra[2])))
        x = (lam / (2.0 * cfg.v) - 1.0) * cfg.n ** (2.0 / 3.0)
        curve = sim.edge_tail(cfg, [x - 1.0, x, x + 1.0], 4)
        assert abs(curve.thresholds[1] - lam) <= 1e-3 * sim.LANCZOS_GUARD \
            * edge_scale(cfg)
        assert curve.lanczos_fallbacks == 1
        assert list(curve.counts) == ref_edge_counts(spectra,
                                                     curve.thresholds)

    def test_step_ceiling_falls_back(self, monkeypatch):
        monkeypatch.setattr(sim, "LANCZOS_STEPS", 2)
        cfg = sim.EnsembleConfig(n=256, rho=256.0, dist="student", seed=9)
        curve = sim.edge_tail(cfg, self.X_GRID, 4)
        assert (curve.lanczos_steps, curve.lanczos_fallbacks) == (8, 4)
        assert list(curve.counts) == ref_edge_counts(ref_spectra(cfg, 4),
                                                     curve.thresholds)

    def test_one_sample_alive(self):
        # edge_tail frees each sample before it draws the next.  Its traced
        # peak is about 1.6 matrices (one sample, the Lanczos basis); with
        # the last sample still alive it was 2.8
        n = 600
        cfg = sim.EnsembleConfig(n=n, rho=60.0, seed=4)
        tracemalloc.start()
        try:
            sim.edge_tail(cfg, [0.0], 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * n * n * 8

    def test_start_vector_stream(self):
        # the start vector comes from the jumped Philox; the matrix bytes
        # are the reference sampler's, before and after edge_tail draws it
        cfg = sim.EnsembleConfig(n=256, rho=40.0, dist="gaussian", seed=2)
        before = sim.sample_block(cfg, 0, 3)
        sim.edge_tail(cfg, [0.0], 3)
        after = sim.sample_block(cfg, 0, 3)
        assert before.tobytes() == after.tobytes()
        for k in range(3):
            assert after[k].tobytes() == ref_sample_matrix(cfg, k).tobytes()
            key = np.array([2, k], dtype=np.uint64)
            start = sim.lanczos_start(cfg, k)
            want = np.random.Generator(
                np.random.Philox(key=key).jumped()).standard_normal(256)
            assert start.tobytes() == want.tobytes()
            plain = np.random.Generator(
                np.random.Philox(key=key)).standard_normal(256)
            assert not np.array_equal(start, plain)


class TestEstimators:
    @pytest.mark.parametrize("config, s", [
        # |lambda| < 0.9 here: some sample's Tr H^(2s) underflows to 0.0
        (sim.EnsembleConfig(n=8, rho=8), 2000),
        # |lambda_max| > 4 here: every Tr H^(2s) overflows to inf
        (sim.EnsembleConfig(n=8, rho=8, v=4.0), 2000),
        # each Tr H^(2s) is finite, their stderr is not
        (sim.EnsembleConfig(n=8, rho=8, dist="student", df=2.5), 342)],
        ids=["underflow", "overflow", "stderr-overflow"])
    def test_no_moment_outside_float_range(self, config, s):
        with pytest.raises(sim.SimConfigError, match="s=%d" % s):
            sim.estimate_moments(config, [1, s], 50)

    def test_repeated_s(self, monkeypatch):
        # a repeated s counted its samples twice; refused before any sample
        def no_sample(*args):
            raise AssertionError("sampled")
        monkeypatch.setattr(sim, "sample_spectra", no_sample)
        cfg = sim.EnsembleConfig(n=8, rho=2.0, seed=3)
        with pytest.raises(ValueError, match="once"):
            sim.estimate_moments(cfg, [1, 1, 2], 10)

    def test_one_sample_alive(self):
        # estimate_moments frees each block after its eigvalsh, before the
        # next one is drawn.  Its traced peak is about 1.2 matrices; with
        # the last block still alive it was 2.8
        n = 600
        cfg = sim.EnsembleConfig(n=n, rho=600.0, seed=4)
        tracemalloc.start()
        try:
            sim.estimate_moments(cfg, [1, 2], 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * n * n * 8

    def test_trace_vs_frobenius(self):
        # Tr H^2 and lambda_max read off the spectrum sample_spectra yields
        cfg = sim.EnsembleConfig(n=25, rho=5.0, seed=3)
        h = sim.sample_block(cfg, 1, 2)[0]
        eig = np.concatenate(list(sim.sample_spectra(cfg, 2)))[1]
        assert float(np.sum(eig ** 2)) == \
            pytest.approx(float(np.sum(h * h)), rel=1e-12)
        assert float(np.max(np.abs(eig))) == pytest.approx(float(np.max(
            np.abs(np.linalg.eigvalsh(h)))), rel=1e-12)

    def test_fast_route_matches_eig(self):
        # the spectral estimates against Tr H^{2s} from matrix powers
        cfg = sim.EnsembleConfig(n=50, rho=10.0, seed=17)
        a = sim.estimate_moments(cfg, [1, 2, 3, 4, 5], 8)
        hs = sim.sample_block(cfg, 0, 8)
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

    @pytest.mark.parametrize("dist", [None, "gaussian", "student"])
    def test_planted_scale_fault(self, monkeypatch, dist):
        # each law's entries scaled by 1.02: only the exact moments of that
        # law see it
        sample_block = sim.sample_block

        def scaled(config, start, stop):
            h = sample_block(config, start, stop)
            return h * 1.02 if config.dist == dist else h
        monkeypatch.setattr(sim, "sample_block", scaled)
        failed = [c["check"] for c in verify.sim_suite(True)
                  if c["status"] == "fail"]
        assert failed == ([] if dist is None else ["sim.oracle_consistency"])

    def test_stats_shape(self):
        st = sim.SampleStats.from_values([1.0, 2.0, 3.0])
        assert st.mean == pytest.approx(2.0)
        assert st.n_samples == 3
        with pytest.raises(ValueError):
            sim.SampleStats.from_values([1.0])


def uniform_law(c3_factor=1.0):
    """Uniform entries on (-v sqrt 3, v sqrt 3), variance v^2, V_2l =
    v^(2l) 3^l / (2l + 1); c3_factor plants a scale fault in the map."""
    return EntryLaw(lambda l, v, df: v ** (2 * l) * 3 ** l / (2 * l + 1),
                    lambda rng, size, v, df: rng.uniform(-1.0, 1.0, size),
                    lambda v, df: (1.0, 0.0, c3_factor * v * math.sqrt(3.0)))


class TestOneRow:
    """A law added as one ENTRY_LAWS row is sampled, named by sim --dist
    and checked against its exact moments, with no other code changed."""

    def test_sim_moments_runs(self, monkeypatch, tmp_path):
        monkeypatch.setitem(ENTRY_LAWS, "uniform", uniform_law())
        out = tmp_path / "m.csv"
        assert cli.main(["sim", "moments", "--n", "8", "--rho", "2", "--s",
                         "1", "--dist", "uniform", "--samples", "20",
                         "--out", str(out)]) == 0
        assert '"dist": "uniform"' in out.read_text()
        cfg = sim.EnsembleConfig(n=8, rho=8.0, dist="uniform", seed=1)
        entries = sim.sample_block(cfg, 0, 1)[0][np.triu_indices(8, 1)]
        assert np.all(np.abs(entries) < 0.5 * math.sqrt(3.0 / 8.0))

    @pytest.mark.parametrize("c3_factor", [1.0, 1.02],
                             ids=["exact", "c3-2%-high"])
    def test_oracle_consistency(self, monkeypatch, c3_factor):
        monkeypatch.setitem(ENTRY_LAWS, "uniform", uniform_law(c3_factor))
        records = {c["check"]: c for c in verify.sim_suite(True)}
        failed = [name for name, c in records.items()
                  if c["status"] == "fail"]
        detail = records["sim.oracle_consistency"]["detail"]
        zs = [float(part.split("z=")[1]) for part in detail.split(", ")
              if part.startswith("uniform ")]
        assert len(zs) == 3
        if c3_factor == 1.0:
            assert failed == [] and max(map(abs, zs)) <= 4.0
        else:
            assert failed == ["sim.oracle_consistency"]
            assert min(zs) > 4.0


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

    @pytest.mark.parametrize("v, x", [
        (0.5, math.inf), (0.5, -math.inf), (0.5, math.nan), (1e308, 0.0),
        (1e308, -4.0)])
    def test_threshold_not_finite(self, v, x, monkeypatch):
        # v = 1e308 at n = 8: the thresholds and the scale are inf, and
        # 2v (1 - 4/4) is inf * 0 = nan; rejected before the sample budget
        monkeypatch.setattr(sim, "refuse_over_sample_budget", None)
        cfg = sim.EnsembleConfig(n=8, rho=2.0, v=v)
        with pytest.raises(sim.SimConfigError, match="not finite"):
            sim.edge_tail(cfg, [x], 2)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_eps_not_finite(self, eps):
        with pytest.raises(sim.SimConfigError, match="eps must be finite"):
            sim.rho_of_eps(8, eps)
        with pytest.raises(sim.SimConfigError, match="eps must be finite"):
            sim.crossover_scan([8], [eps], 0.5, 2)

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

    @pytest.mark.parametrize("n_list, eps_grid", [([64, 64], [0.0]),
                                                  ([8, 64], [0.0, -0.0])])
    def test_crossover_repeated_value(self, monkeypatch, n_list, eps_grid):
        # a repeated n or eps printed the same row twice, sampled twice;
        # refused before the budget and before any sample
        def no_call(*args):
            raise AssertionError("budget checked or sampled")
        monkeypatch.setattr(sim, "refuse_over_sample_budget", no_call)
        monkeypatch.setattr(sim, "estimate_moments", no_call)
        with pytest.raises(ValueError, match="once"):
            sim.crossover_scan(n_list, eps_grid, 0.5, 4)

    def test_crossover_rho_guard(self):
        with pytest.raises(sim.SimConfigError):
            sim.crossover_scan([64], [10.0], 0.5, 4)

    @pytest.mark.parametrize("chi", [7.0, 1e5, 1e200])
    def test_crossover_bound_underflow(self, chi, monkeypatch):
        # e chi^3 > ~745: rejected before any sample is drawn
        def no_sample(*args):
            raise AssertionError("sampled")
        monkeypatch.setattr(sim, "estimate_moments", no_sample)
        with pytest.raises(sim.SimConfigError, match="underflows"):
            sim.crossover_scan([8], [0.0], chi, 2)

    def test_crossover_loads_only_sim(self):
        # a fresh process, so that no other test has loaded the exact layers
        code = ("import sys\n"
                "from wignerlab import cli\n"
                "assert cli.main(['sim', 'crossover', '--n', '16', '--eps',"
                " '0', '--samples', '2', '--out', %r]) == 0\n"
                "print(' '.join(sorted(m for m in sys.modules"
                " if m.startswith('wignerlab.'))))" % os.devnull)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == \
            ["wignerlab.cli", "wignerlab.reports", "wignerlab.sim"]


class TestClosedForms:
    def test_edge_constant(self):
        got = sim.theorem_7_1_rhs(1.0, 1.0, 1.0 / 16.0)
        assert got == pytest.approx(
            math.exp(-math.e) / math.sqrt(math.pi), rel=1e-12)
        with pytest.raises(ValueError):
            sim.theorem_7_1_rhs(0.0, 1.0, 1.0)
        # underflow, also where chi^3 exceeds the float range
        assert sim.theorem_7_1_rhs(7.0, 1.0, 1.0) == 0.0
        assert sim.theorem_7_1_rhs(1e200, 1.0, 1.0) == 0.0
        # overflow, also where zeta sqrt(pi chi) underflows to 0.0
        assert sim.theorem_7_1_rhs(1.0, 1e-310, 1.0) == math.inf
        assert sim.theorem_7_1_rhs(0.01, 5e-324, 1.0) == math.inf
