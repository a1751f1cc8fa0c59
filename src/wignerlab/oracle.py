"""Exact rational moments of dilute Wigner matrices for small (n, s).

M_2s = E Tr H^{2s} is a weighted sum over closed trajectories of 2s steps.
The weight of a trajectory factorizes over its distinct vertex pairs: a pair
traversed m times contributes V_m rho^{-m/2} (rho/n) for even m and zero for
odd m; diagonal steps contribute zero.  It depends only on the sorted pair
multiplicities.  Two independent routes, a trajectory search and the even
walks' shape table, count the trajectories per tuple; weigh applies the law.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, ROUND_DOWN, Context, Decimal
from fractions import Fraction

from . import ENTRY_LAWS, Refused
from . import walks as wk
from . import catalan as ct

TRAJECTORY_BUDGET = 5_000_000
# The largest s within the budget at n = 2 (2^22 sequences).  It binds at
# n = 1 alone, whose single sequence fits any budget while its moment list
# grows as s^2.
TRAJECTORY_S_CAP = 11
# rounds down, so that a power past the exponent range saturates at the
# largest Decimal instead of raising
_POWERS = Context(prec=28, Emax=MAX_EMAX, rounding=ROUND_DOWN, traps=[])


@dataclass(frozen=True)
class MomentSpec:
    """Inputs of an exact moment computation.

    moments[l-1] holds V_2l, the 2l-th moment of the entry law a_ij; the
    list must reach order 2s.  rho may be any positive rational <= n.
    """

    n: int
    rho: Fraction
    s: int
    moments: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.rho <= self.n:
            raise ValueError("need 0 < rho <= n")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if len(self.moments) < self.s:
            raise ValueError("moment list must reach order 2s")
        if self.moments[0] <= 0:
            raise ValueError("V_2 must be positive")

    def v_moment(self, m: int) -> Fraction:
        """V_m for even m."""
        if m % 2 != 0:
            return Fraction(0)
        l = m // 2
        if l > len(self.moments):
            raise ValueError("moment V_%d not configured" % m)
        return self.moments[l - 1]


def make_spec(n: int, rho, s: int, dist: str = "rademacher") -> MomentSpec:
    """The moments of an ENTRY_LAWS law at sim's defaults v = 1/2, df = 14."""
    if dist not in ENTRY_LAWS:
        raise ValueError("unknown distribution %r" % dist)
    return MomentSpec(n=n, rho=Fraction(rho), s=s, moments=tuple(
        ENTRY_LAWS[dist](l, Fraction(1, 2), 14) for l in range(1, s + 1)))


def refuse_over_budget(n: int, s: int, method: str) -> None:
    """Refused when the method is over its cap: s above TRAJECTORY_S_CAP or
    n^(2s) sequences above TRAJECTORY_BUDGET (trajectory, both), or s above
    the walk search's cap (walk, both).  The trajectory estimate is n^(2s),
    or s (the moments to build) at n = 1.  Runs before make_spec, whose
    moment list costs O(s^2)."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1, got n=%d, s=%d" % (n, s))
    if method != "walk":
        # n^(2s) to 28 digits, exact below 10^28: as a Decimal it costs the
        # same at any s, where the exact int takes 2s log2(n) bits to build
        sequences = _POWERS.power(n, 2 * s)
        if s > TRAJECTORY_S_CAP or sequences > TRAJECTORY_BUDGET:
            raise Refused(
                "trajectory enumeration at n=%d, s=%d needs n^(2s) sequences "
                "(budget %d, s cap %d)" % (n, s, TRAJECTORY_BUDGET,
                                          TRAJECTORY_S_CAP),
                sequences if n > 1 else s)
    if method != "trajectory":
        wk.refuse_over_cap(s, wk.ENUM_CAP)


def pair_weight(m: int, spec: MomentSpec) -> Fraction:
    """Expected weight of an off-diagonal pair traversed m times."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    if m % 2 != 0:
        return Fraction(0)
    # E a^m * E b^m with b = rho^{-1/2} Bernoulli(rho/n)
    return spec.v_moment(m) * spec.rho ** (1 - m // 2) / spec.n


def weigh(shapes: Counter, spec: MomentSpec) -> Fraction:
    """sum count prod_m pair_weight(m) over trajectory counts keyed by
    sorted pair multiplicities: the one step that reads the entry law."""
    return sum((count * math.prod(pair_weight(m, spec) for m in mults)
                for mults, count in shapes.items()), Fraction(0))


def trajectory_shapes(n: int, s: int) -> Counter:
    """The closed trajectories of 2s steps on n vertices with all pair
    multiplicities even, per sorted multiplicity tuple: a depth-first search
    from each first vertex that never takes a diagonal step (weight 0),
    prunes nothing else and reaches every other trajectory once, as a leaf.
    It carries the pair multiplicities, keyed (min, max), and the number of
    odd ones, undone on backtrack."""
    refuse_over_budget(n, s, "trajectory")
    last = 2 * s - 1
    mult: dict[tuple[int, int], int] = {}
    shapes: Counter = Counter()
    odd = 0

    def extend(first: int, at: int, depth: int) -> None:
        nonlocal odd
        if depth == last:   # the closing step, back to the first vertex
            # all even after it: the one odd pair is the closing one
            if at != first and odd == 1:
                pair = (at, first) if at < first else (first, at)
                m = mult.get(pair, 0) + 1
                if m % 2 == 0:
                    mult[pair] = m
                    shapes[tuple(sorted(mult.values()))] += 1
                    mult[pair] = m - 1
            return
        for nxt in range(1, n + 1):
            if nxt == at:
                continue
            pair = (at, nxt) if at < nxt else (nxt, at)
            m = mult.get(pair, 0) + 1
            mult[pair] = m
            flip = 1 if m % 2 else -1
            odd += flip
            extend(first, nxt, depth + 1)
            odd -= flip
            if m == 1:
                del mult[pair]
            else:
                mult[pair] = m - 1

    for first in range(1, n + 1):
        extend(first, first, 0)
    return shapes


def walk_shapes(n: int, rows) -> Counter:
    """The same Counter from (k, sorted pair multiplicities, walk count)
    rows of canonical even walks: a walk on k letters stands for the (n)_k
    trajectories that relabel it, and for none when k > n."""
    shapes: Counter = Counter()
    for k, mults, count in rows:
        if k <= n:
            shapes[mults] += count * math.perm(n, k)
    return shapes


def exact_moment_trajectory(spec: MomentSpec) -> Fraction:
    """M_2s from the trajectory search's counts."""
    return weigh(trajectory_shapes(spec.n, spec.s), spec)


def exact_moment_walk(spec: MomentSpec) -> Fraction:
    """M_2s from the even walks' shape table, which builds no walk."""
    return weigh(walk_shapes(spec.n, wk.shape_table(spec.s)), spec)


def exact_moment(spec: MomentSpec, method: str = "both") -> Fraction:
    """M_2s; "both" weighs once the two routes' counts are equal."""
    if method == "trajectory":
        return exact_moment_trajectory(spec)
    if method == "walk":
        return exact_moment_walk(spec)
    if method != "both":
        raise ValueError("unknown method %r" % method)
    a = trajectory_shapes(spec.n, spec.s)
    b = walk_shapes(spec.n, wk.shape_table(spec.s))
    if a != b:
        raise AssertionError("method disagreement at multiplicity tuples %s"
                             % sorted((a - b).keys() | (b - a).keys()))
    return weigh(a, spec)


# ---------------------------------------------------------------------------
# Closed-form evaluators
# ---------------------------------------------------------------------------

def insertion_count(s: int, mu2: int) -> int:
    """s! / (2^mu2 mu2! (s-2*mu2)!): ways to insert mu2 disjoint pairs."""
    if mu2 < 0:
        raise ValueError("mu2 must be >= 0")
    if 2 * mu2 > s:
        return 0
    return math.perm(s, 2 * mu2) // (2 ** mu2 * math.factorial(mu2))


def insertion_lower_bound_ok(s: int, mu2: int, M: int) -> bool:
    """Exact check of insertion_count >= ((s-2M)^2/2)^mu2 / mu2! for M >= mu2."""
    if M < mu2 or 2 * M > s:
        raise ValueError("need mu2 <= M and 2M <= s")
    lhs = Fraction(insertion_count(s, mu2))
    rhs = Fraction((s - 2 * M) ** 2, 2) ** mu2 / math.factorial(mu2)
    return lhs >= rhs


# ---------------------------------------------------------------------------
# Per-class audit against the closed-form weight bound
# ---------------------------------------------------------------------------

def bound_3_7(S: wk.DiagramParams, u: int, D: float, s: int, n: int,
              rho: float, U_hat_sq: float, V2_hat: float, k0: int) -> float:
    """Closed-form upper bound on the start-vertex-normalized weight of the
    trajectories whose walks fall in the census class with Dyck height u.

    Uses the census sigma mu2 + 2*mu3 + u2 + u3 + |nu|_1
    (DiagramParams.sigma_census_b).  It is the structural sigma
    s - |V_g| + 1 less one when a marked step returns to the root, and equal
    to it otherwise.
    """
    theta_u = ct.height_row(s)[u] if 1 <= u <= s else 0
    sigma = S.sigma_census_b
    mu2p = S.mu2_p
    mu3 = S.mu3
    out = (V2_hat ** s) * theta_u * math.exp(-((s - sigma) ** 2) / (2.0 * n))
    out *= _pow_fact(s * s / (2.0 * n), S.mu2_pp)
    # H-factors at h = 1
    out *= (_pow_fact(6.0 * s * u / n, S.r)
            * _pow_fact(3.0 * s * D * U_hat_sq / rho, S.p)
            * _pow_fact(3.0 * s * k0 * U_hat_sq / rho, S.q)
            * _pow_fact(8.0 * (k0 ** 4) * s * mu2p * U_hat_sq / rho, S.u2))
    out *= (_pow_fact(9.0 * (D + k0) * s * s * U_hat_sq / (n * rho), S.mu3_p)
            * _pow_fact(3.0 * (s ** 3) / (2.0 * n * n), S.mu3_pp)
            * _pow_fact(16.0 * (k0 ** 5) * s * mu3 * U_hat_sq / rho, S.u3))
    for k, nu_k in S.nu_bar:
        term = n * ((2.0 * k * s) ** k) * (U_hat_sq ** k) \
            / (math.factorial(k) * (rho ** k))
        out *= _pow_fact(term, nu_k)
    return out


def _pow_fact(base: float, count: int) -> float:
    """base^count / count!."""
    return (base ** count) / math.factorial(count)


@dataclass
class ClassRecord:
    """One (Dyck height, census) class in the audit."""

    u: int
    census: wk.DiagramParams
    n_walks: int
    max_D: int
    weight: Fraction              # exact sum of the walks' shape weights
    weight_normalized: Fraction   # weight / n (per start vertex)
    bound: float
    bound_ok: bool
    eq_5_15_ok: bool


@functools.cache
def _audit_classes(s: int, k0: int) -> tuple[tuple, ...]:
    """The even walks of 2s steps grouped by (height, census), in key order:
    per class (height, census, walk count, largest max exit degree,
    (k, sorted pair multiplicities, walk count) per shape).  n enters the
    audit only through the shape weights, so this is computed once per
    (s, k0)."""
    classes: dict[tuple, list] = {}
    for walk in wk.enumerate_even_walks(s):
        dp = wk.diagram_params(walk, k0)
        # the full census including mu1 and sigma: walks that lose a vertex
        # to a marked return at the root must not share a class with
        # tree-type walks
        key = (walk.analysis.theta_star, dp.mu1, dp.sigma) + dp.census_key()
        entry = classes.get(key)
        if entry is None:   # the key fixes the census: keep the first
            entry = classes[key] = [dp, 0, 0, Counter()]
        entry[1] += 1
        entry[2] = max(entry[2], wk.max_exit_degree(walk)[1])
        entry[3][walk.n_letters, tuple(sorted(
            walk.analysis.pair_multiplicity.values()))] += 1
    return tuple((key[0], dp, n_walks, max_d,
                  tuple(shape + (c,) for shape, c in sorted(shapes.items())))
                 for key, (dp, n_walks, max_d, shapes)
                 in sorted(classes.items()))


def class_weight_audit(s: int, n: int, rho, k0: int) -> list[ClassRecord]:
    """Group even walks of 2s steps by (height, census); check that each
    class's exact start-vertex-normalized weight stays below the closed-form
    bound, and that the class-size factor obeys the exponential bound
    prod(1 - k/n) <= exp(-(s - sigma)^2 / 2n).  The entries are +-1/2
    Rademacher."""
    spec = make_spec(n, rho, s)
    v2_hat = float(spec.moments[0])
    # entries +-1/2 are bounded by 1/2, so U^2 / V2 = 1
    u_hat_sq = 1.0
    records = []
    rho_f = float(Fraction(rho))
    for u, dp, n_walks, max_d, rows in _audit_classes(s, k0):
        weight = weigh(walk_shapes(n, rows), spec)
        # sigma is part of the class key, so the class-size factor is the
        # same for every walk in the class
        sigma = dp.sigma
        prod = Fraction(1)
        for k in range(1, s - sigma + 1):
            prod *= Fraction(n - k, n)
        eq_5_15 = float(prod) <= \
            math.exp(-((s - sigma) ** 2) / (2.0 * n)) * (1 + 1e-12)
        normalized = weight / n
        bound = bound_3_7(dp, u, max_d, s, n, rho_f, u_hat_sq, v2_hat, k0)
        ok = float(normalized) <= bound * (1 + 1e-9)
        records.append(ClassRecord(
            u=u, census=dp, n_walks=n_walks, max_D=max_d,
            weight=weight, weight_normalized=normalized,
            bound=bound, bound_ok=ok, eq_5_15_ok=eq_5_15))
    return records
