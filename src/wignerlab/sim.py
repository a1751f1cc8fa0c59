"""Monte Carlo sampling of dilute Wigner matrices and edge-scale experiments.

Entries are H_ij = a_ij b_ij for i < j, symmetric, zero diagonal, with
b_ij = rho^{-1/2} Bernoulli(rho/n) masks and i.i.d. symmetric a_ij of
variance v^2.  Sampling uses counter-based Philox substreams keyed by
(seed, sample index), so a sample's matrix does not depend on the block or
the sample range that holds it: spectra are taken one stacked block of
samples at a time.  Each sample's stream is read in chunks of at most CHUNK
values straight into its matrix, which gives the bytes of one read, so the
sampler holds the block's matrices, a 1-byte mask per entry and O(CHUNK)
scratch; eigvalsh adds one copy of its matrix.  Once a block holds one
large matrix, edge_tail reads lambda_max by Lanczos, whose basis is its
extra memory, instead of a full spectrum.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import ENTRY_LAWS, Refused

DENSE_CAP = 4096
# matrix entries, n^2 per sample, that one run may draw: above criterion 7
# (n = 2000, 200 samples: 8e8), the largest run of the tests and verify
SAMPLE_BUDGET = 10 ** 9
# sample_blocks stacks samples up to this many matrix entries per block
BLOCK_ENTRIES = 1 << 16
# sample_block reads at most this many values per generator call and
# transforms the entries this many at a time
CHUNK = 1 << 16
# edge_tail's Lanczos route for lambda_max, taken from n = LANCZOS_MIN_N on
# (where blocks hold one matrix, as BLOCK_ENTRIES <= LANCZOS_MIN_N^2): at
# n = 200 a full eigvalsh is still the faster, from n = 256 Lanczos is.
# Tolerances are in edge scales 2v n^{-2/3}
LANCZOS_MIN_N = 256
LANCZOS_STEPS = 300  # step ceiling, capped at n; reaching it falls back
LANCZOS_CHECK = 8  # steps between convergence checks
LANCZOS_TOL = 1e-10  # stop once both extreme Ritz values move less than this
LANCZOS_GUARD = 1e-6  # a value this close to a threshold falls back


class SimConfigError(ValueError):
    """Raised for inconsistent ensemble configurations."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Dilute Wigner ensemble parameters.

    dist is a law of ENTRY_LAWS; student entries use df
    degrees of freedom and are rescaled so the variance is v^2, exercising
    the truncation path for laws with finitely many moments.  A delta that
    is not None zeroes the entries with |a_ij| > n^delta (the paper's H-hat).
    """

    n: int
    rho: float
    dist: str = "rademacher"
    v: float = 0.5
    seed: int = 0
    delta: Optional[float] = None
    df: float = 14.0

    def __post_init__(self):
        for name in ("n", "rho", "v", "df", "delta"):
            value = getattr(self, name)
            if name == "delta" and value is None:
                continue
            # a bool is a numbers.Real, but a config's false is no delta of 0
            if not (isinstance(value, numbers.Real)
                    and not isinstance(value, bool)
                    and abs(value) <= sys.float_info.max):
                raise SimConfigError("%s must be a finite real number, got %r"
                                     % (name, value))
        if self.n < 1:
            raise SimConfigError("n must be >= 1")
        if not 0 < self.rho <= self.n:
            raise SimConfigError("need 0 < rho <= n, got rho=%r n=%r"
                                 % (self.rho, self.n))
        if self.v <= 0:
            raise SimConfigError("v must be > 0")
        if self.dist not in ENTRY_LAWS:
            raise SimConfigError("unknown dist %r" % self.dist)
        if self.dist == "student" and self.df <= 2:
            raise SimConfigError("student df must exceed 2")

    def truncation_level(self) -> Optional[float]:
        if self.delta is None:
            return None
        try:
            return float(self.n) ** self.delta
        except OverflowError:  # a level past the float range zeroes nothing
            return math.inf


def rho_of_eps(n: int, eps: float) -> float:
    """n^{2/3 (1+eps)}; SimConfigError when n < 1 (the power would be
    complex), eps is not finite, or the power leaves the float range."""
    if n < 1:
        raise SimConfigError("n must be >= 1, got %d" % n)
    if not math.isfinite(eps):
        raise SimConfigError("eps must be finite, got %r" % eps)
    try:
        return n ** ((2.0 / 3.0) * (1.0 + eps))
    except OverflowError:
        raise SimConfigError("n^(2/3 (1+eps)) at n=%d, eps=%r exceeds the "
                             "float range" % (n, eps))


def default_delta(eps: float, phi: float) -> float:
    """delta = (eps0 + eps)/6 with eps0 = 3/(6 + phi)."""
    eps0 = 3.0 / (6.0 + phi)
    return (eps0 + eps) / 6.0


def theorem_7_1_rhs(chi: float, zeta: float, V4: float) -> float:
    """16 V4 / (zeta sqrt(pi chi)) e^{-e chi^3}: 0.0 past e chi^3 ~ 745 (chi^3
    past the float range too), inf once zeta sqrt(pi chi) nears 0.0."""
    if chi <= 0 or zeta <= 0:
        raise ValueError("chi and zeta must be > 0")
    try:
        decay = math.exp(-math.e * chi ** 3)
    except OverflowError:
        decay = 0.0
    denominator = zeta * math.sqrt(math.pi * chi)
    return 16.0 * V4 / denominator * decay if denominator else math.inf


def _sample_streams(config: EnsembleConfig, start: int,
                    stop: int) -> Iterator[np.random.Generator]:
    """The generator of each sample start..stop-1, keyed by (seed, index).

    One Philox is reset to a fresh state per sample; that equals building
    Generator(Philox(key=(seed, index))) anew, at a fraction of the cost.
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    key[0] = config.seed & 0xFFFFFFFFFFFFFFFF
    for k in range(start, stop):
        key[1] = k & 0xFFFFFFFFFFFFFFFF
        bitgen.state = fresh
        yield rng


def sample_block(config: EnsembleConfig, start: int, stop: int) -> np.ndarray:
    """Samples start..stop-1 as a (stop - start, n, n) stack.

    Sample k depends on (seed, k) alone, so a matrix does not depend on the
    block that holds it.  Each sample is built inside its own matrix: its
    m = n(n-1)/2 entries are drawn, at most CHUNK per generator call, into
    the matrix's last m slots, then transformed CHUNK at a time and
    expanded in place.  Philox is counter-based, so reading a stream in
    chunks gives the bytes of one read.  A dropped entry is stored as
    +0.0; a kept entry that leaves the float range is a SimConfigError.
    Beside the block's matrices the sampler holds a 1-byte mask per entry
    and O(CHUNK) scratch; a caller's eigvalsh adds one copy of its matrix,
    Lanczos its basis.
    """
    n = config.n
    if n > DENSE_CAP:
        raise Refused("n=%d exceeds dense cap %d" % (n, DENSE_CAP), n * n)
    m = n * (n - 1) // 2
    b = stop - start
    h = np.empty((b, n, n))
    flat = h.reshape(b, n * n)
    base = n * n - m
    a = flat[:, base:]  # the upper triangle, row by row
    p = config.rho / n
    # at p = 1 the mask drops no entry; it is each stream's last draw,
    # so leaving it undrawn changes no other number
    drop = np.empty((b, m), dtype=bool) if p < 1.0 else None
    spans = [(slice(lo, min(lo + CHUNK, m)), min(CHUNK, m - lo))
             for lo in range(0, m, CHUNK)]
    if config.dist == "rademacher":
        def draw(rng, size):
            return rng.integers(0, 2, size=size)
    elif config.dist == "gaussian":
        def draw(rng, size):
            return rng.normal(0.0, config.v, size=size)
    else:
        def draw(rng, size):
            return rng.standard_t(config.df, size=size)
    for row, rng in enumerate(_sample_streams(config, start, stop)):
        for span, size in spans:
            a[row, span] = draw(rng, size)
        if drop is not None:
            for span, size in spans:
                np.greater_equal(rng.random(size), p, drop[row, span])
    level = config.truncation_level()
    width = max(1, CHUNK // max(b, 1))  # columns per chunk: CHUNK values
    for lo in range(0, m, width):
        x = a[:, lo:lo + width]
        with np.errstate(over="ignore"):  # an inf is refused below
            if config.dist == "rademacher":
                x *= 2.0
                x -= 1.0
                x *= config.v
            elif config.dist == "student":
                x *= config.v / math.sqrt(config.df / (config.df - 2.0))
            if level is not None:
                x[np.abs(x) > level] = 0.0
            if drop is not None:
                np.putmask(x, drop[:, lo:lo + width], 0.0)
            x /= math.sqrt(config.rho)
        # min and max allocate nothing (isfinite would); initial admits b = 0
        if not np.isfinite([x.min(initial=0.0), x.max(initial=0.0)]).all():
            raise SimConfigError(
                "an entry a_ij rho^(-1/2) at dist=%s, v=%r leaves the float "
                "range; need a smaller v" % (config.dist, config.v))
    # row i's entries move to [i (n + 1) + 1, (i + 1) n).  That ends at or
    # before base + off, where row i + 1's entries start, as (i + 1) n <=
    # n (n + 1) / 2 + off for i < n - 1: rows in increasing order overwrite
    # only entries already read (numpy copies an overlapping slice itself)
    off = 0
    for i in range(n - 1):
        flat[:, i * (n + 1) + 1:(i + 1) * n] = a[:, off:off + n - 1 - i]
        off += n - 1 - i
    # the diagonal and the lower triangle still hold stale entries
    flat[:, ::n + 1] = 0.0
    for i in range(n - 1):
        h[:, i + 1:, i] = h[:, i, i + 1:]
    return h


def refuse_over_sample_budget(entries: int) -> None:
    """Refused, with the count as its estimate, when a run would draw more
    than SAMPLE_BUDGET matrix entries (n^2 per sample)."""
    if entries > SAMPLE_BUDGET:
        raise Refused("%d matrix entries exceed the sample budget %d"
                      % (entries, SAMPLE_BUDGET), entries)


def sample_matrix(config: EnsembleConfig, sample_index: int) -> np.ndarray:
    """One symmetric dilute Wigner matrix, deterministic in (seed, index)."""
    return sample_block(config, sample_index, sample_index + 1)[0]


@dataclass(frozen=True)
class SampleStats:
    mean: float
    stderr: float
    n_samples: int
    min: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SampleStats":
        arr = np.asarray(values, dtype=float)
        if arr.size < 2:
            raise ValueError("need at least 2 samples")
        return cls(mean=float(arr.mean()),
                   stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)),
                   n_samples=int(arr.size),
                   min=float(arr.min()), max=float(arr.max()))


def sample_blocks(config: EnsembleConfig,
                  n_samples: int) -> Iterator[np.ndarray]:
    """Samples 0..n_samples-1 as (b, n, n) stacks of consecutive samples:
    up to BLOCK_ENTRIES matrix entries, at least one sample (one per block
    once n >= 182), fewer in the last block."""
    step = max(1, BLOCK_ENTRIES // (config.n * config.n))
    for start in range(0, n_samples, step):
        yield sample_block(config, start, min(start + step, n_samples))


def sample_spectra(config: EnsembleConfig,
                   n_samples: int) -> Iterator[np.ndarray]:
    """Eigenvalues of samples 0..n_samples-1, as (b, n) arrays: one
    eigvalsh call per block of sample_blocks."""
    for block in sample_blocks(config, n_samples):
        eig = np.linalg.eigvalsh(block)
        del block  # so that one block, not two, is alive while sampling
        yield eig


def lanczos_start(config: EnsembleConfig, sample_index: int) -> np.ndarray:
    """Sample k's Lanczos start vector, standard normal.

    It comes from Philox(key=(seed, k)) jumped as if 2^128 numbers had
    been drawn, a stretch of the stream that sampling the matrix never
    reaches, so the matrix does not depend on whether it was drawn.
    """
    key = np.array([config.seed & 0xFFFFFFFFFFFFFFFF,
                    sample_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    bitgen = np.random.Philox(key=key).jumped()
    return np.random.Generator(bitgen).standard_normal(config.n)


def lanczos_lambda_max(h: np.ndarray, start: np.ndarray,
                       edge: float) -> tuple[Optional[float], int]:
    """max |lambda| of the symmetric matrix h, and the Lanczos steps taken.

    Lanczos from start with full reorthogonalization: two classical
    Gram-Schmidt passes against the whole basis each step (Parlett, The
    Symmetric Eigenvalue Problem, 1980), in units of edge (2v), so that the
    vectors, whose norms square them, are O(1) at any scale of h.  Every
    LANCZOS_CHECK steps the extreme Ritz values are compared with the last
    check's; once both moved less than tol = LANCZOS_TOL n^{-2/3} edges, or
    the Krylov space is invariant to within tol, the larger magnitude is
    returned.  Ritz values lie inside the spectrum, so the value errs low;
    a random start makes a stall short of the edge unlikely (Kuczynski and
    Wozniakowski, 1992).  None when min(LANCZOS_STEPS, n) steps pass
    without settling.
    """
    n = h.shape[0]
    tol = LANCZOS_TOL * n ** (-2.0 / 3.0)
    ceiling = min(LANCZOS_STEPS, n)
    basis = np.empty((ceiling + 1, n))
    alpha = np.empty(ceiling)
    beta = np.empty(ceiling)
    basis[0] = start / np.linalg.norm(start)
    ends = None
    for j in range(ceiling):
        w = h @ basis[j]
        w /= edge
        alpha[j] = basis[j] @ w
        for _ in range(2):
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        beta[j] = np.linalg.norm(w)
        k = j + 1
        if k % LANCZOS_CHECK == 0 or beta[j] <= tol:
            t = np.diag(alpha[:k]) + np.diag(beta[:j], 1) \
                + np.diag(beta[:j], -1)
            ritz = np.linalg.eigvalsh(t)
            if beta[j] <= tol or (
                    ends is not None and abs(ritz[0] - ends[0]) < tol
                    and abs(ritz[-1] - ends[1]) < tol):
                return float(max(-ritz[0], ritz[-1])) * edge, k
            ends = ritz[0], ritz[-1]
        basis[k] = w / beta[j]
    return None, ceiling


def estimate_moments(config: EnsembleConfig, s_list: Sequence[int],
                     n_samples: int) -> dict[int, SampleStats]:
    """Tr H^{2s} statistics for several s from one spectrum per sample."""
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    if min(s_list) < 1:
        raise ValueError("need every s >= 1, got %s" % (list(s_list),))
    if len(set(s_list)) < len(s_list):
        raise ValueError("need each s once, got %s" % (list(s_list),))
    refuse_over_sample_budget(config.n ** 2 * n_samples)
    traces: dict[int, list[np.ndarray]] = {s: [] for s in s_list}
    for eig in sample_spectra(config, n_samples):
        nonzero = eig.any(axis=1)
        for s in s_list:
            with np.errstate(over="ignore", invalid="ignore"):
                trace = np.sum(eig ** (2 * s), axis=1)
            if not np.all(np.isfinite(trace)):
                raise _out_of_range(s, "Tr H^(2s) at s=%d leaves the float "
                                    "range (inf or nan)", "a smaller v")
            # 0.0 from a sample with a nonzero eigenvalue
            if not np.all((trace > 0) | ~nonzero):
                raise _out_of_range(s, "Tr H^(2s) at s=%d underflows to 0.0",
                                    "a larger v")
            traces[s].append(trace)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = {s: SampleStats.from_values(np.concatenate(traces[s]))
                 for s in s_list}
    for s, st in stats.items():
        if not (math.isfinite(st.mean) and math.isfinite(st.stderr)):
            raise _out_of_range(s, "the mean or stderr of Tr H^(2s) at s=%d "
                                "exceeds the float range", "a smaller v")
    return stats


def _out_of_range(s: int, what: str, at_s1: str) -> SimConfigError:
    """A float-range error at s, with the change that can mend it: a smaller
    s, or at s = 1, where no smaller s exists, the at_s1 change of v."""
    return SimConfigError("%s; need %s" % (what % s,
                                           "a smaller s" if s > 1 else at_s1))


@dataclass(frozen=True)
class EdgeCurve:
    x_grid: tuple[float, ...]
    thresholds: tuple[float, ...]
    tail_prob: tuple[float, ...]
    stderr: tuple[float, ...]
    counts: tuple[int, ...]
    n_samples: int
    lanczos_steps: int
    lanczos_fallbacks: int


def edge_tail(config: EnsembleConfig, x_grid: Sequence[float],
              n_samples: int) -> EdgeCurve:
    """Empirical P(lambda_max > 2v(1 + x n^{-2/3})) over the grid.

    lambda_max = max |lambda|.  From n = LANCZOS_MIN_N on, where a block
    holds one matrix, it is read by lanczos_lambda_max.  A sample falls
    back to eigvalsh, counted in lanczos_fallbacks, when the step ceiling
    is reached or the value lies within LANCZOS_GUARD edge scales of a
    threshold, so the counts equal those of eigvalsh on every sample.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    xs = list(x_grid)
    if not xs:
        raise ValueError("x_grid must not be empty")
    thresholds = [2.0 * config.v * (1.0 + x * config.n ** (-2.0 / 3.0))
                  for x in xs]
    scale = 2.0 * config.v * config.n ** (-2.0 / 3.0)
    if not all(map(math.isfinite, thresholds + [scale])):
        raise SimConfigError("an edge threshold or the edge scale is not "
                             "finite at v=%r, x_grid=%r" % (config.v, xs))
    if xs != sorted(xs):
        raise ValueError("x_grid must be sorted ascending")
    refuse_over_sample_budget(config.n ** 2 * n_samples)
    lanczos = config.n >= LANCZOS_MIN_N
    counts = [0] * len(xs)
    steps = fallbacks = start = 0
    for block in sample_blocks(config, n_samples):
        lmax = None
        if lanczos:  # the block holds sample `start` alone
            value, taken = lanczos_lambda_max(
                block[0], lanczos_start(config, start), 2.0 * config.v)
            steps += taken
            if value is not None and all(abs(value - thr)
                                         > LANCZOS_GUARD * scale
                                         for thr in thresholds):
                lmax = np.array([value])
            else:
                fallbacks += 1
        if lmax is None:
            lmax = np.max(np.abs(np.linalg.eigvalsh(block)), axis=1)
        for i, thr in enumerate(thresholds):
            counts[i] += int(np.count_nonzero(lmax > thr))
        start += len(block)
        del block  # so that one block, not two, is alive while sampling
    probs = [c / n_samples for c in counts]
    errs = [math.sqrt(p * (1.0 - p) / n_samples) for p in probs]
    return EdgeCurve(tuple(xs), tuple(thresholds), tuple(probs), tuple(errs),
                     tuple(counts), n_samples, steps, fallbacks)


def crossover_scan(n_list: Sequence[int], eps_grid: Sequence[float],
                   chi: float, n_samples: int, seed: int = 0,
                   zeta: float = 1.0) -> list[dict]:
    """Compare estimated M_2s for two laws with equal V_2, different V_4.

    For each (n, eps): rho = zeta * n^{2/3(1+eps)}, s = floor(chi n^{2/3}).
    Emits the Rademacher and Gaussian trace-moment estimates, their
    difference in stderr units, and the finite-size lower-bound comparison
    (report-grade), whose two cells are "" on rows with eps != 0: the
    Theorem 7.1 bound is made at eps = 0, where zeta_eff = zeta.
    """
    if not (math.isfinite(chi) and chi > 0):
        raise SimConfigError("chi must be a finite number > 0, got %r" % chi)
    for name, values in (("n", n_list), ("eps", eps_grid)):
        if len(set(values)) < len(values):  # a repeat samples its rows twice
            raise ValueError("need each %s once, got %s" % (name, list(values)))
    # every grid point is checked before the budget and the first sample
    grid = [(n, eps, zeta * rho_of_eps(n, eps), chi * n ** (2.0 / 3.0))
            for n in n_list for eps in eps_grid]
    for n, eps, rho, chi_n in grid:
        if rho > n:
            raise SimConfigError(
                "rho=%.3g exceeds n=%d at eps=%.3g" % (rho, n, eps))
        if chi_n < 1:
            raise SimConfigError(
                "s = floor(chi n^(2/3)) is 0 at n=%d, chi=%r; need s >= 1"
                % (n, chi))
        if chi_n == math.inf:
            raise SimConfigError(
                "chi n^(2/3) at n=%d, chi=%r exceeds the float range"
                % (n, chi))
    # the bound does not depend on (n, eps); V4 is the Rademacher one
    bound = theorem_7_1_rhs(chi, zeta, ENTRY_LAWS["rademacher"](
        2, EnsembleConfig.v, EnsembleConfig.df))
    if not 0.0 < bound < math.inf:
        raise SimConfigError(
            "the Theorem 7.1 lower bound at chi=%r, zeta=%r is %r: it "
            "underflows to 0.0 once e chi^3 > ~745 (need a smaller chi) "
            "and overflows as zeta sqrt(pi chi) nears 0.0 (need a larger "
            "zeta)" % (chi, zeta, bound))
    # two laws at every grid point
    refuse_over_sample_budget(
        2 * n_samples * sum(n * n for n, _, _, _ in grid))
    rows = []
    for n, eps, rho, chi_n in grid:
        s = int(chi_n)
        configs = {dist: EnsembleConfig(n=n, rho=rho, dist=dist, seed=seed)
                   for dist in ("rademacher", "gaussian")}
        a, b = (estimate_moments(config, [s], n_samples)[s]
                for config in configs.values())
        joint = math.hypot(a.stderr, b.stderr)
        zeta_eff = rho / n ** (2.0 / 3.0)
        at_zero = eps == 0
        rows.append({
            "n": n, "eps": eps, "rho": rho, "s": s,
            "mean_rademacher": a.mean, "stderr_rademacher": a.stderr,
            "mean_gaussian": b.mean, "stderr_gaussian": b.stderr,
            "diff": b.mean - a.mean,
            "diff_over_stderr": (b.mean - a.mean) / joint if joint else 0.0,
            "zeta_eff": zeta_eff,
            "thm_7_1_lower_bound": bound if at_zero else "",
            "lower_bound_ok": a.mean >= 0.9 * bound if at_zero else "",
        })
    return rows
