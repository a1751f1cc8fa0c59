"""Exact Catalan-family counting and evaluation of the moment bound constants.

All counts are arbitrary-precision integers; inequality checks are done by
cross multiplication, never in floating point.  Floating point only enters
the final bound evaluators, which are plain closed-form expressions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from . import Refused


# The largest size (s_max, l or l_max) each count table takes, keyed by
# its `count` action; a larger request is refused before any row.
COUNT_CAPS = {"catalan": 3000, "multi-edge": 600, "subcluster": 600,
              "lemma61": 1000, "conjecture": 100, "heights": 1000}


def _refuse_past_cap(action: str, size: int, entries: int) -> None:
    """ValueError below size 0, refused past the action's cap; entries counts
    the table entries the request would compute, not the entries held: the
    rows stream, and a run holds O(s_max) numbers at a time."""
    if size < 0:
        raise ValueError("count %s needs a size >= 0, got %d" % (action, size))
    cap = COUNT_CAPS[action]
    if size > cap:
        raise Refused("count %s at size %d exceeds cap %d"
                      % (action, size, cap), entries)


def _compared(value: int, closed: int, **keys) -> dict:
    """A count row: its keys, the value and the closed form beside it."""
    return dict(keys, value=value, closed_form=closed, match=value == closed)


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
    symmetric pair j, s-j once: 2 sum_{j < s/2} t_j t_{s-j} (+ t_{s/2}^2).
    Only catalan_rows reads it; every other table takes t_s from catalan."""
    t = [1]
    for s in range(s_max):
        total = 2 * sum(t[j] * t[s - j] for j in range((s + 1) // 2))
        if s % 2 == 0:
            total += t[s // 2] ** 2
        t.append(total)
    return t


def catalan_rows(s_max: int) -> Iterator[dict]:
    """count catalan: t_s by the recurrence against the formula, for
    0 <= s <= s_max.  The recurrence row is built on the call."""
    _refuse_past_cap("catalan", s_max, s_max + 1)
    row = catalan_table_recurrence(s_max)
    return (_compared(value, catalan(s), s=s) for s, value in enumerate(row))


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

def root_subcluster_table(s_max: int) -> Iterator[list[int]]:
    """Rows s = 0..s_max, row[d] = plane trees of s edges whose root has
    exactly d children (row[0] = 0), each built from the row before by the
    recurrence t~_s(1) = t~_s(2) = t_{s-1} and
    t~_s(d) = t~_s(d-1) - t~_{s-1}(d-2) for 3 <= d <= s."""
    t = [catalan(s) for s in range(s_max)]
    row = [0]
    yield row
    for s in range(1, s_max + 1):
        prev, row = row, [0, t[s - 1]]
        if s >= 2:
            row.append(t[s - 1])
        for d in range(3, s + 1):
            row.append(row[d - 1] - prev[d - 2])
        yield row


def root_subcluster_ballot_table(s_max: int) -> Iterator[list[int]]:
    """The same rows by the ballot formula t~_s(d) = [x^{s-d}] f(x)^d
    = d/(2k+d) C(2k+d, k) with k = s - d, from Lagrange inversion of
    f = 1 + x f^2 (Flajolet and Sedgewick, Analytic Combinatorics, 2009).
    It shares no step with the recurrence."""
    yield [0]
    for s in range(1, s_max + 1):
        yield [0] + [d * math.comb(2 * s - d, s - d) // (2 * s - d)
                     for d in range(1, s + 1)]


def subcluster_rows(s_max: int) -> Iterator[dict]:
    """count subcluster: t~_s(d) for 1 <= d <= s <= s_max by the recurrence,
    against the ballot formula."""
    _refuse_past_cap("subcluster", s_max, 2 * (s_max + 1) ** 2)
    pairs = zip(root_subcluster_table(s_max),
                root_subcluster_ballot_table(s_max))
    return (_compared(row[d], ballot[d], s=s, d=d)
            for s, (row, ballot) in enumerate(pairs) for d in range(1, s + 1))


def lemma61_rows(s_max: int) -> list[dict]:
    """count lemma61: one row, the exact sweep of t~_s(d) <= (3/4)^d t_s via
    4^d t~ <= 3^d t_s over the recurrence rows s <= s_max.

    The inequality chain behind it is derived for d >= 3 and extended by the
    d = 1, 2 identities, so small (s, d) boundary failures are listed
    separately instead of counting as violations.
    """
    _refuse_past_cap("lemma61", s_max, (s_max + 1) ** 2)
    t = [catalan(s) for s in range(s_max + 1)]
    violations = 0
    boundary = []
    pow3 = [3 ** d for d in range(s_max + 1)]
    pow4 = [4 ** d for d in range(s_max + 1)]
    for s, row in enumerate(root_subcluster_table(s_max)):
        for d in range(1, s + 1):
            if pow4[d] * row[d] > pow3[d] * t[s]:
                if d < 3:
                    boundary.append((s, d))
                else:
                    violations += 1
    return [{"s_max": s_max, "holds_for_d_ge_3": not violations,
             "violations": violations, "boundary_failures": str(boundary)}]


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
    t = [catalan(j) for j in range(s_max - l + 1)]
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


def multi_edge_rows(l: int, s_max: int, check_closed_form: bool = False
                    ) -> Iterator[dict]:
    """count multi-edge: N^(l)_s for l <= s <= s_max from the
    generating-function row, built on the call; with check_closed_form,
    against the closed form."""
    size = max(l, s_max)
    _refuse_past_cap("multi-edge", size, size + 1)
    row = multi_edge_gf_row(l, s_max)
    if check_closed_form:
        return (_compared(row[s], multi_edge_closed_form(l, s), s=s, l=l)
                for s in range(l, s_max + 1))
    return ({"s": s, "l": l, "value": row[s]} for s in range(l, s_max + 1))


def conjecture_rows(l_max: int, s_max: int) -> Iterator[dict]:
    """count conjecture: the multi-edge rows against the closed form for
    every l <= l_max, one gf row at a time, each with the 2^l s t_s and
    s t_s bounds of Conjecture 6.25."""
    size = max(l_max, s_max)
    _refuse_past_cap("conjecture", size, l_max * (size + 1))
    t = [catalan(s) for s in range(s_max + 1)]

    def rows():
        for l in range(1, l_max + 1):
            for rec in multi_edge_rows(l, s_max, check_closed_form=True):
                s_ts = rec["s"] * t[rec["s"]]
                yield {"l": l, **rec,
                       "bound_2l_s_ts_holds": rec["value"] <= 2 ** l * s_ts,
                       "bound_s_ts_holds": rec["value"] <= s_ts}
    return rows()


def check_n2_lower(s_max: int) -> dict:
    """N^(2)_s >= s t_s / 2 for 4 <= s <= s_max, with equality exactly at s=4."""
    t = [catalan(s) for s in range(s_max + 1)]
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


def heights_rows(s_max: int) -> Iterator[dict]:
    """count heights: the nonzero counts of height_row(s), 1 <= s <= s_max;
    no second route, so closed_form and match are empty."""
    _refuse_past_cap("heights", s_max, (s_max + 1) * (s_max + 2) // 2)
    return ({"s": s, "u": u, "value": cnt, "closed_form": "", "match": ""}
            for s in range(1, s_max + 1)
            for u, cnt in enumerate(height_row(s)) if cnt)


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
