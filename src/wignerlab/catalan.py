"""Exact Catalan-family counting and evaluation of the moment bound constants.

All counts are arbitrary-precision integers; inequality checks are done by
cross multiplication, never in floating point.  Floating point only enters
the final bound evaluators, which are plain closed-form expressions.
"""

from __future__ import annotations

import math

from . import Refused

# bound_3_7 takes a walks.DiagramParams; its annotation is never evaluated,
# so this module loads no walk code.


# ---------------------------------------------------------------------------
# Catalan numbers
# ---------------------------------------------------------------------------

def catalan(s: int) -> int:
    """(2s)! / (s! (s+1)!)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return math.comb(2 * s, s) // (s + 1)


def catalan_table_recurrence(s_max: int) -> list[int]:
    """t_0..t_{s_max} from t_{s+1} = sum_j t_j t_{s-j}, summing each
    symmetric pair j, s-j once: 2 sum_{j < s/2} t_j t_{s-j} (+ t_{s/2}^2)."""
    t = [1]
    for s in range(s_max):
        total = 2 * sum(t[j] * t[s - j] for j in range((s + 1) // 2))
        if s % 2 == 0:
            total += t[s // 2] ** 2
        t.append(total)
    return t


def catalan_check(s_max: int) -> bool:
    """Formula and recurrence agree on 0..s_max."""
    table = catalan_table_recurrence(s_max)
    return all(table[s] == catalan(s) for s in range(s_max + 1))


class SeriesExact:
    """Truncated power series with exact coefficients for exponents
    0..order.  A plain class: no library routine multiplies series, and it
    stays only because the traced benchmark run (perfbench/spans.py) wraps
    its __mul__, until the benchmark drops that entry (ROADMAP item 1)."""

    def __init__(self, coeffs: tuple, order: int):
        self.coeffs = coeffs
        self.order = order

    def __mul__(self, other: "SeriesExact") -> "SeriesExact":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[:order + 1]):
            for j in range(order + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return SeriesExact(tuple(out), order)


# ---------------------------------------------------------------------------
# Root sub-cluster counts t~_s(d)
# ---------------------------------------------------------------------------

def root_subcluster_table(s_max: int) -> list[list[int]]:
    """table[s][d] = plane trees of s edges whose root has exactly d children,
    via the recurrence row: t~_s(1) = t~_s(2) = t_{s-1} and
    t~_s(d) = t~_s(d-1) - t~_{s-1}(d-2) for 3 <= d <= s."""
    t = catalan_table_recurrence(max(s_max, 1))
    table: list[list[int]] = [[0] * (s_max + 1) for _ in range(s_max + 1)]
    for s in range(1, s_max + 1):
        table[s][1] = t[s - 1]
        if s >= 2:
            table[s][2] = t[s - 1]
        for d in range(3, s + 1):
            table[s][d] = table[s][d - 1] - table[s - 1][d - 2]
    return table


def root_subcluster_ballot_table(s_max: int) -> list[list[int]]:
    """The same table by the ballot formula t~_s(d) = [x^{s-d}] f(x)^d
    = d/(2k+d) C(2k+d, k) with k = s - d, from Lagrange inversion of
    f = 1 + x f^2 (Flajolet and Sedgewick, Analytic Combinatorics, 2009).
    It shares no step with the recurrence."""
    table: list[list[int]] = [[0] * (s_max + 1) for _ in range(s_max + 1)]
    for s in range(1, s_max + 1):
        for d in range(1, s + 1):
            table[s][d] = d * math.comb(2 * s - d, s - d) // (2 * s - d)
    return table


def check_lemma_6_1(s_max: int) -> dict:
    """Exact sweep of t~_s(d) <= (3/4)^d t_s via 4^d t~ <= 3^d t_s.

    The inequality chain behind it is derived for d >= 3 and extended by the
    d = 1, 2 identities, so small (s, d) boundary failures are reported
    separately instead of counting as violations.
    """
    table = root_subcluster_table(s_max)
    t = catalan_table_recurrence(s_max)
    violations = []
    boundary = []
    pow3 = [3 ** d for d in range(s_max + 1)]
    pow4 = [4 ** d for d in range(s_max + 1)]
    for s in range(1, s_max + 1):
        for d in range(1, s + 1):
            holds = pow4[d] * table[s][d] <= pow3[d] * t[s]
            if not holds:
                (boundary if d < 3 else violations).append((s, d))
    return {
        "s_max": s_max,
        "holds_for_d_ge_3": not violations,
        "violations": violations,
        "boundary_failures": boundary,
    }


def check_6_6(s_max: int) -> bool:
    """t~_s(d) <= t_{s-1} for 1 <= d <= s <= s_max."""
    table = root_subcluster_table(s_max)
    t = catalan_table_recurrence(s_max)
    return all(table[s][d] <= t[s - 1]
               for s in range(1, s_max + 1) for d in range(1, s + 1))


# ---------------------------------------------------------------------------
# Multi-edge counts N^(l)_s
# ---------------------------------------------------------------------------

TREE_ENUM_CAP = 12


def multi_edge_counts_enum(l_max: int, s: int) -> list[int]:
    """[N^(1)_s .. N^(l_max)_s] by brute force over all plane trees:
    ways to pick l edges sharing a parent vertex.

    A depth-first search over the Dyck prefixes of 2s steps reaches each
    tree once, as a leaf, and prunes nothing.  An up-step adds a child to
    the top open node and opens a new one, a down-step closes the top
    node; the child counts of the open nodes are undone on backtrack.
    The search returns the number of trees below each prefix, so closing
    a node with d children adds that number to hist[d], and each leaf
    adds 1 at the root's degree.  hist[d] counts the nodes with d
    children over all trees, and N^(l)_s = sum_d hist[d] C(d, l)."""
    if s > TREE_ENUM_CAP:
        raise Refused("tree enumeration at s=%d exceeds cap %d"
                      % (s, TREE_ENUM_CAP), catalan(s))
    hist = [0] * (s + 1)
    open_nodes = [0]  # child counts of the open nodes, the root first

    def trees_below(ups: int, downs: int) -> int:
        if downs == s:
            hist[open_nodes[0]] += 1  # the root
            return 1
        trees = 0
        if ups < s:
            open_nodes[-1] += 1
            open_nodes.append(0)
            trees = trees_below(ups + 1, downs)
            open_nodes.pop()
            open_nodes[-1] -= 1
        if downs < ups:
            d = open_nodes.pop()
            closed = trees_below(ups, downs + 1)
            open_nodes.append(d)
            hist[d] += closed
            trees += closed
        return trees

    trees_below(0, 0)
    return [sum(hist[d] * math.comb(d, l) for d in range(l, s + 1))
            for l in range(1, l_max + 1)]


def multi_edge_count_gf(l: int, s: int) -> int:
    """N^(l)_s, read from the generating-function row up to order s."""
    return multi_edge_gf_row(l, s)[s]


def multi_edge_gf_row(l: int, s_max: int) -> list[int]:
    """[N^(l)_0 .. N^(l)_{s_max}]: the coefficients of
    2 x^{l+1} f' f^{2l-1} + x^l f^{2l}.  With P = f^{2l}, 2l f' f^{2l-1} = P',
    so the series is x^l (x P' / l + P) and its x^s coefficient is
    ((s-l)/l + 1) P_{s-l} = s P_{s-l} / l.  P comes from J. C. P. Miller's
    power recurrence (Knuth, TAOCP Vol. 2, 4.7): P_0 = t_0 = 1 and
    k P_k = sum_{j=1..k} ((2l+1) j - k) t_j P_{k-j}, exact in integers."""
    if l < 1:
        raise ValueError("l must be >= 1, got %d" % l)
    t = catalan_table_recurrence(max(s_max - l, 0))
    power = [1]
    for k in range(1, len(t)):
        power.append(sum(((2 * l + 1) * j - k) * t[j] * power[k - j]
                         for j in range(1, k + 1)) // k)
    return [0] * min(l, s_max + 1) + [s * power[s - l] // l
                                      for s in range(l, s_max + 1)]


def multi_edge_closed_form(l: int, s: int) -> int:
    """(2s)! / ((s-l)! (s+l)!) = C(2s, s-l), equal to the generating-function
    row for every l (Lagrange inversion: [x^k] f^{2l} = l/(k+l) C(2k+2l, k)).
    The generating function itself is checked against tree enumeration for
    l <= 5 and s <= 12 only."""
    if l > s:
        return 0
    return math.comb(2 * s, s - l)


def conjecture_6_25_report(l_max: int, s_max: int) -> list[dict]:
    """Compare gf counts with the closed form, which equals the gf row for
    every l, and with the 2^l s t_s bound.  The gf itself is checked against
    tree enumeration for l <= 5 and s <= 12 only."""
    rows = []
    t = catalan_table_recurrence(s_max)
    for l in range(1, l_max + 1):
        gf_row = multi_edge_gf_row(l, s_max)
        for s in range(l, s_max + 1):
            value = gf_row[s]
            closed = multi_edge_closed_form(l, s)
            rows.append({
                "l": l, "s": s, "value": value, "closed_form": closed,
                "match": value == closed,
                "bound_2l_s_ts_holds": value <= (2 ** l) * s * t[s],
                "bound_s_ts_holds": value <= s * t[s],
            })
    return rows


def check_n2_lower(s_max: int) -> dict:
    """N^(2)_s >= s t_s / 2 for 4 <= s <= s_max, with equality exactly at s=4."""
    t = catalan_table_recurrence(s_max)
    row = multi_edge_gf_row(2, s_max)
    holds = all(2 * row[s] >= s * t[s] for s in range(4, s_max + 1))
    equality = [s for s in range(4, s_max + 1) if 2 * row[s] == s * t[s]]
    return {"holds": holds, "equality_at": equality}


# ---------------------------------------------------------------------------
# Height-restricted tree counts
# ---------------------------------------------------------------------------

def height_row(s: int) -> list[int]:
    """row[u] = number of plane trees of s edges with height exactly u,
    for u = 0..s.

    Strip count by the reflection principle (de Bruijn, Knuth and Rice,
    1972): a tree of s edges with height <= u is a Dyck path of 2s steps
    inside the strip 0..u, so with w = u + 2 there are

        sum_k [C(2s, s - k w) - C(2s, s - k w - 1)]

    of them, the row of C(2s, .) summed over the residues s and s - 1
    mod w; the row is their consecutive differences."""
    binom = [1]
    for m in range(2 * s):
        binom.append(binom[-1] * (2 * s - m) // (m + 1))
    cum = [sum(binom[s % w::w]) - sum(binom[(s - 1) % w::w])
           for w in range(2, s + 3)]
    return cum[:1] + [b - a for a, b in zip(cum, cum[1:])]


def b_s(x: float, s: int) -> float:
    """(1/t_s) sum_u (trees of height exactly u) e^{x u / sqrt(s)}."""
    if s < 1:
        raise ValueError("s must be >= 1")
    ts = catalan(s)
    scale = x / math.sqrt(s)
    total = 0.0
    for u, cnt in enumerate(height_row(s)):
        if cnt:
            total += cnt / ts * math.exp(scale * u)
    return total


# ---------------------------------------------------------------------------
# Class weight bound evaluator
# ---------------------------------------------------------------------------

def bound_3_7(S: DiagramParams, u: int, D: float, s: int, n: int,
              rho: float, U_hat_sq: float, V2_hat: float, k0: int) -> float:
    """Closed-form upper bound on the start-vertex-normalized weight of the
    trajectories whose walks fall in the census class with Dyck height u.

    Uses the census sigma mu2 + 2*mu3 + u2 + u3 + |nu|_1
    (DiagramParams.sigma_census_b).  It is the structural sigma
    s - |V_g| + 1 less one when a marked step returns to the root, and equal
    to it otherwise.
    """
    theta_u = height_row(s)[u] if 1 <= u <= s else 0
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
