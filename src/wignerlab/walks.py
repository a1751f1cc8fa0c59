"""Closed even walks: canonical forms, marked steps, self-intersections, cells.

A trajectory is a closed integer path of 2s steps.  Relabeling its vertices in
first-appearance order produces a canonical walk; the walks with every vertex
pair traversed an even number of times are the only ones with nonzero weight
in the trace expansion of a symmetric random matrix.  This module provides the
canonicalizer, the Dyck path / plane tree bijection, one record per walk
(WalkAnalysis: marked steps, pair multiplicities, marked arrivals and exits),
the self-intersection census, the strong and weak reductions, the maximal
exit degree, and the cell report around the vertex of maximal exit degree.
A vertex pair is keyed (min, max) throughout.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from . import Refused


class MalformedInputError(ValueError):
    """Raised for inputs that cannot be parsed into a trajectory or walk."""


class ClassificationError(ValueError):
    """Raised when a census is requested for a non-even walk."""


DEFAULT_ENUM_CAP = 6
SHAPE_TABLE_CAP = 7
EVEN_WALK_COUNTS = (1, 1, 3, 16, 122, 1209, 14829, 216955)  # s = 0..7


# ---------------------------------------------------------------------------
# Trajectories and canonical walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """A closed path i_0 .. i_{2s-1} on vertices [1..n]; closure is implicit."""

    steps: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.steps) == 0 or len(self.steps) % 2 != 0:
            raise MalformedInputError(
                "trajectory needs an even number of labels >= 2, got %d"
                % len(self.steps))
        for v in self.steps:
            if not 1 <= v <= self.n:
                raise MalformedInputError(
                    "label %r outside [1..%d]" % (v, self.n))

    @classmethod
    def from_sequence(cls, labels) -> "Trajectory":
        """Build from 2s labels, or from 2s+1 labels with explicit closure,
        on the vertices 1..max(labels)."""
        labels = tuple(int(v) for v in labels)
        if len(labels) >= 3 and len(labels) % 2 == 1:
            if labels[-1] != labels[0]:
                raise MalformedInputError(
                    "odd-length sequence must close on its first label")
            labels = labels[:-1]
        return cls(labels, max(labels) if labels else 0)

    @classmethod
    def from_string(cls, text: str) -> "Trajectory":
        parts = [p for p in text.replace(" ", "").split(",") if p]
        if not parts:
            raise MalformedInputError("empty trajectory string")
        try:
            labels = [int(p) for p in parts]
        except ValueError as exc:
            raise MalformedInputError("non-integer label in %r" % text) from exc
        return cls.from_sequence(labels)

    @property
    def s(self) -> int:
        return len(self.steps) // 2


@dataclass(frozen=True)
class Walk:
    """Canonical closed walk: letters w(0..2s) in first-appearance order."""

    letters: tuple[int, ...]

    def __post_init__(self):
        w = self.letters
        if len(w) < 3 or len(w) % 2 == 0:
            raise MalformedInputError(
                "walk needs 2s+1 letters with s >= 1, got %d" % len(w))
        if w[0] != 1 or w[-1] != 1:
            raise MalformedInputError("walk must start and end at letter 1")
        seen = 0
        for v in w:
            if v == seen + 1:
                seen += 1
            elif not 1 <= v <= seen:
                raise MalformedInputError(
                    "letters must appear in first-occurrence order; got %r"
                    % (w,))

    @property
    def s(self) -> int:
        return len(self.letters) // 2

    @property
    def n_letters(self) -> int:
        return max(self.letters)

    @property
    def has_loops(self) -> bool:
        w = self.letters
        return any(w[t] == w[t + 1] for t in range(len(w) - 1))

    def to_string(self) -> str:
        return ",".join(map(str, self.letters))

    @cached_property
    def analysis(self) -> "WalkAnalysis":
        """The facts of one sweep over the steps, computed on first use
        unless the walk search set them; kept outside the dataclass fields,
        so equality and hashing ignore it."""
        return _sweep(self.letters)


def walk_from_trajectory(traj: Trajectory) -> Walk:
    """Relabel a closed trajectory by first appearance; root becomes letter 1."""
    relabel: dict[int, int] = {}
    letters = []
    for v in traj.steps + traj.steps[:1]:  # closed by the first label
        if v not in relabel:
            relabel[v] = len(relabel) + 1
        letters.append(relabel[v])
    return Walk(tuple(letters))


# ---------------------------------------------------------------------------
# Dyck paths, the walk record, plane trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyckPath:
    """A lattice path of +1/-1 steps staying nonnegative and ending at 0."""

    ups_downs: tuple[int, ...]

    def __post_init__(self):
        h = 0
        for step in self.ups_downs:
            if step not in (1, -1):
                raise MalformedInputError("Dyck steps must be +1/-1")
            h += step
            if h < 0:
                raise MalformedInputError("Dyck prefix sum went negative")
        if h != 0:
            raise MalformedInputError("Dyck path must end at height 0")

    @property
    def s(self) -> int:
        return len(self.ups_downs) // 2

    @property
    def height(self) -> int:
        """The maximum height theta* of the path."""
        return max(itertools.accumulate(self.ups_downs, initial=0))


# condition sets of an arrival, indexed by o + 2*Delta + 4*Lambda, where just
# before the arriving marked step
#   o      -- some pair at the vertex has odd multiplicity (the vertex is open),
#   Delta  -- a marked edge with the same tail and head already exists,
#   Lambda -- the reversed marked edge already exists.
_CONDITION_SETS = tuple(map(frozenset, (
    (), ("o",), ("Delta",), ("o", "Delta"), ("Lambda",), ("o", "Lambda"),
    ("Delta", "Lambda"), ("o", "Delta", "Lambda"))))


@dataclass
class WalkAnalysis:
    """Everything one left-to-right pass over a walk's 2s steps determines.

    A step is marked (marked[t-1] for step t) when its vertex pair has odd
    multiplicity after it.  heights[t] counts the odd pairs after step t,
    so it is never negative, and the walk is even when it ends at 0: the
    marks then form a Dyck path.  marked_edges holds the marked
    (tail, head, time) steps.  At each marked arrival the pass records
    which of the conditions o (the vertex is open: some pair at it has odd
    multiplicity), Delta (the same marked edge, tail and head, already
    exists) and Lambda (the reversed marked edge already exists) hold just
    before the step.  arrival_conds[v] follows the marked steps arriving at
    v in time order, so arrival i (from 1; creating a non-root letter is
    arrival 1) is arrival_conds[v][i-1]; exits[v] counts those leaving v.
    With a zero instant for the root's creation, letter v has
    kappa(v) = len(arrival_conds[v]) + (v == 1) arrival instants, so
    sum(kappa) - 1 = s and |V_g| = s - sigma + 1, sigma = sum(kappa - 1).
    reductions memoises `_reduce` per spare vertex (None for the strong
    reduction) and max_exit `max_exit_degree`; comparison ignores both.
    The walk search builds the record from its own state; `_sweep` builds
    it for walks from elsewhere.
    """

    heights: tuple[int, ...]
    marked: tuple[bool, ...]
    pair_multiplicity: dict[tuple[int, int], int]
    marked_edges: tuple[tuple[int, int, int], ...]
    arrival_conds: dict[int, tuple[frozenset, ...]]
    exits: dict[int, int]
    reductions: dict[Optional[int], "ReducedWalk"] = field(
        default_factory=dict, compare=False, repr=False)
    max_exit: Optional[tuple[int, int]] = field(
        default=None, compare=False, repr=False)

    @property
    def is_even(self) -> bool:
        return self.heights[-1] == 0

    @property
    def theta_star(self) -> int:
        """The maximum height; for an even walk, that of its Dyck path."""
        return max(self.heights)


def _sweep(w: tuple[int, ...]) -> WalkAnalysis:
    """The analysis of the walk with letters w: the running pair
    multiplicities, odd pairs per vertex and marked directed edges decide
    each step's mark and arrival conditions."""
    mult: dict[tuple[int, int], int] = {}
    odd_at = [0] * (len(w) + 1)     # odd pairs touching each vertex
    marked_directed: set[tuple[int, int]] = set()
    heights, marked, marked_edges = [0], [], []
    conds: dict[int, list[frozenset]] = {}
    exits: dict[int, int] = {}
    tail = w[0]
    for t in range(1, len(w)):
        head = w[t]
        pair = (tail, head) if tail < head else (head, tail)
        m = mult.get(pair, 0) + 1
        mult[pair] = m
        marked.append(m & 1 == 1)
        if m & 1:
            conds.setdefault(head, []).append(_CONDITION_SETS[
                (odd_at[head] > 0)
                + 2 * ((tail, head) in marked_directed)
                + 4 * ((head, tail) in marked_directed)])
            marked_directed.add((tail, head))
            marked_edges.append((tail, head, t))
            exits[tail] = exits.get(tail, 0) + 1
            odd_at[tail] += 1   # a loop counts twice; only > 0 is read
            odd_at[head] += 1
            heights.append(heights[-1] + 1)
        else:
            odd_at[tail] -= 1
            odd_at[head] -= 1
            heights.append(heights[-1] - 1)
        tail = head
    return WalkAnalysis(tuple(heights), tuple(marked), mult,
                        tuple(marked_edges),
                        {v: tuple(c) for v, c in conds.items()}, exits)


@dataclass(frozen=True)
class PlaneTree:
    """Rooted ordered tree; a leaf has an empty child tuple."""

    children: tuple["PlaneTree", ...] = ()

    @property
    def edge_count(self) -> int:
        return sum(1 + c.edge_count for c in self.children)

    @property
    def height(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.height for c in self.children)


def tree_from_dyck(dyck: DyckPath) -> PlaneTree:
    """Decode a Dyck path into a plane tree via its chronological run."""
    open_kids: list[list[PlaneTree]] = [[]]   # the children of each open node
    for step in dyck.ups_downs:
        if step == 1:
            open_kids.append([])
        else:
            kids = open_kids.pop()
            open_kids[-1].append(PlaneTree(tuple(kids)))
    return PlaneTree(tuple(open_kids[0]))


def dyck_from_tree(tree: PlaneTree) -> DyckPath:
    """Encode a plane tree as a Dyck path (descend +1, ascend -1)."""
    out: list[int] = []

    def visit(node: PlaneTree):
        for child in node.children:
            out.append(1)
            visit(child)
            out.append(-1)

    visit(tree)
    return DyckPath(tuple(out))


def dyck_words(s: int) -> Iterator[tuple[int, ...]]:
    """The +1/-1 words of the Dyck paths of 2s steps, in lexicographic
    order (+1 before -1).

    Successor step: the rightmost up-step that starts above height 0 turns
    down, and the rest becomes the smallest completion, all ups then all
    downs.  Read from the right, the height before step i is minus the sum
    of steps i.., since the word sums to 0."""
    if s < 0:
        return
    w = [1] * s + [-1] * s
    while True:
        yield tuple(w)
        h = 0
        for i in reversed(range(2 * s)):
            h -= w[i]
            if h > 0 and w[i] == 1:
                break
        else:
            return
        rest = 2 * s - 1 - i
        ups = (rest - h + 1) // 2  # height h - 1 after the turned step
        w[i:] = [-1] + [1] * ups + [-1] * (rest - ups)


def all_dyck_paths(s: int) -> Iterator[DyckPath]:
    """All Dyck paths of 2s steps in lexicographic order (+1 before -1)."""
    return (DyckPath(w) for w in dyck_words(s))


def all_trees(s: int) -> Iterator[PlaneTree]:
    for dyck in all_dyck_paths(s):
        yield tree_from_dyck(dyck)


# ---------------------------------------------------------------------------
# Self-intersection census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramParams:
    """Self-intersection census of an even walk at threshold k0.

    Letters with kappa <= k0 are ordinary; the second (and for the primed
    degree-3 class, third) arrival decides the sub-class.  Letters with
    kappa >= k0 + 1 are counted in nu_bar.  The census counts every marked
    arrival edge exactly once, so
        mu1 + 2*mu2 + 3*mu3 + u2 + u3 + sum(k*nu_k) = s.
    """

    s: int
    k0: int
    mu1: int
    r: int
    p: int
    q: int
    mu2_pp: int
    u2: int
    mu3_p: int
    mu3_pp: int
    u3: int
    nu_bar: tuple[tuple[int, int], ...]  # sorted (k, nu_k), k >= k0+1
    sigma: int                           # structural: s - |V_g| + 1
    n_vertices: int

    @property
    def mu2_p(self) -> int:
        return self.r + self.p + self.q

    @property
    def mu2(self) -> int:
        return self.mu2_p + self.mu2_pp

    @property
    def mu3(self) -> int:
        return self.mu3_p + self.mu3_pp

    @property
    def nu_norm(self) -> int:
        """sum of k * nu_k."""
        return sum(k * c for k, c in self.nu_bar)

    @property
    def nu_l1(self) -> int:
        """sum of (k - 1) * nu_k."""
        return sum((k - 1) * c for k, c in self.nu_bar)

    @property
    def census_sum(self) -> int:
        return (self.mu1 + 2 * self.mu2 + 3 * self.mu3 + self.u2 + self.u3
                + self.nu_norm)

    @property
    def sigma_census_b(self) -> int:
        """mu2 + 2*mu3 + u2 + u3 + |nu|_1.  The census leaves out the root's
        artificial start, so this is sigma less one when a marked step
        returns to the root, and sigma otherwise."""
        return self.mu2 + 2 * self.mu3 + self.u2 + self.u3 + self.nu_l1

    def census_key(self) -> tuple:
        """Hashable key identifying the census class."""
        return (self.r, self.p, self.q, self.mu2_pp, self.u2,
                self.mu3_p, self.mu3_pp, self.u3, self.nu_bar)

    def to_json(self) -> str:
        return json.dumps({
            "s": self.s, "k0": self.k0, "mu1": self.mu1,
            "r": self.r, "p": self.p, "q": self.q,
            "mu2_pp": self.mu2_pp, "u2": self.u2,
            "mu3_p": self.mu3_p, "mu3_pp": self.mu3_pp, "u3": self.u3,
            "nu_bar": {str(k): c for k, c in self.nu_bar},
            "sigma": self.sigma, "n_vertices": self.n_vertices,
        })


def diagram_params(walk: Walk, k0: int) -> DiagramParams:
    """Full self-intersection census of an even walk.

    Every letter, the root included, is classified by its marked arrival
    edges, so the census edge count is exactly s.  The structural sigma is
    reported from the vertex count; see DiagramParams for the census-based
    variants.
    """
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    a = walk.analysis
    if not a.is_even:
        raise ClassificationError("census requires an even walk")
    s = walk.s
    mu1 = r = p = q = mu2_pp = u2 = mu3_p = mu3_pp = u3 = 0
    nu: Counter = Counter()
    # the condition sets of each vertex's marked arrivals, in time order (the
    # root has none when no marked step returns to it); a set is labelled by
    # its maximal condition, Lambda > Delta > o
    for conds in a.arrival_conds.values():
        k = len(conds)
        if k == 1:
            mu1 += 1
        elif k > k0:
            nu[k] += 1
        elif conds[1]:
            if "Lambda" in conds[1]:
                q += 1
            elif "Delta" in conds[1]:
                p += 1
            else:
                r += 1
            u2 += k - 2
        elif k == 2:
            mu2_pp += 1
        else:
            if "Lambda" in conds[2] or "Delta" in conds[2]:
                mu3_p += 1
            else:
                mu3_pp += 1
            u3 += k - 3
    n_vertices = walk.n_letters
    sigma = s - n_vertices + 1
    return DiagramParams(
        s=s, k0=k0, mu1=mu1, r=r, p=p, q=q, mu2_pp=mu2_pp, u2=u2,
        mu3_p=mu3_p, mu3_pp=mu3_pp, u3=u3,
        nu_bar=tuple(sorted(nu.items())), sigma=sigma, n_vertices=n_vertices)


# ---------------------------------------------------------------------------
# Reductions, exit degrees, cells
# ---------------------------------------------------------------------------

def max_exit_degree(walk: Walk) -> tuple[int, int]:
    """(vertex, D): D marked edges leave the vertex; ties go to the first letter."""
    a = walk.analysis
    if a.max_exit is None:
        d_max = max(a.exits.values())   # never empty: step 1 is marked
        a.max_exit = min(v for v, d in a.exits.items() if d == d_max), d_max
    return a.max_exit


@dataclass(frozen=True)
class ReducedWalk:
    """Result of a strong or weak reduction with original labels retained."""

    letters: tuple[int, ...]            # empty tuple when fully reduced
    kept_steps: tuple[int, ...]         # original 1-based step numbers
    removed_pairs: tuple[tuple[int, int], ...]

    @property
    def is_empty(self) -> bool:
        return not self.kept_steps

    def to_string(self) -> str:
        return ",".join(map(str, self.letters))


def _reduce(walk: Walk, spare_vertex: Optional[int]) -> ReducedWalk:
    """Remove, leftmost first, each marked step directly followed by a
    non-marked step back to its tail, unless it arrives at spare_vertex.

    Two such pairs never overlap (the first step is marked, the second is
    not), so a removal only joins the kept step before it to the step after
    it: a stack of kept steps removes the same pairs in the same order as
    rescanning from the start after each removal.
    """
    memo = walk.analysis.reductions
    if spare_vertex in memo:
        return memo[spare_vertex]
    w = walk.letters
    marked = walk.analysis.marked
    kept: list[int] = []
    removed = []
    top = 0     # the kept step on top of the stack, 0 when none
    for t in range(1, len(w)):
        if (top and not marked[t - 1] and marked[top - 1]
                and w[top - 1] == w[t] and w[top] != spare_vertex):
            removed.append((kept.pop(), t))
            top = kept[-1] if kept else 0
        else:
            kept.append(t)
            top = t
    letters = tuple([w[kept[0] - 1]] + [w[t] for t in kept]) if kept else ()
    memo[spare_vertex] = ReducedWalk(letters, tuple(kept), tuple(removed))
    return memo[spare_vertex]


def strong_reduce(walk: Walk) -> ReducedWalk:
    """Repeatedly drop a marked step followed by its own non-marked reversal."""
    return _reduce(walk, spare_vertex=None)


def weak_reduce(walk: Walk) -> ReducedWalk:
    """Strong reduction, but removals arriving at the max-exit vertex are kept."""
    breve, _ = max_exit_degree(walk)
    return _reduce(walk, spare_vertex=breve)


@dataclass(frozen=True)
class CellReport:
    """Arrival structure at the max-exit vertex after the two reductions.

    Arrival steps at breve_beta surviving the weak reduction are cells:
    marked ones are proper (split into I cells inside the weak-only part and
    K cells inside the strongly reduced walk), non-marked ones are mirror
    cells (weak-only part) or imported cells (strongly reduced walk).  Each
    imported cell is generated by the nearest preceding marked step of the
    strongly reduced walk; that instant is local (z, head at breve_beta) or
    remote (y, head elsewhere).  Offsets are measured in original walk time
    and replay to breve_beta.
    """

    breve_beta: int
    D: int
    proper: tuple[tuple[int, int], ...]        # (x_i marked instant, m_i)
    local_bts: tuple[tuple[int, tuple[int, ...], int], ...]   # (z_k, phis, f'_k)
    remote_bts: tuple[tuple[int, int, tuple[int, ...], int], ...]
    # (y_j, ell_j, psis, f''_j)
    I: int
    M: int
    K: int
    J: int
    F_p: int
    F_pp: int
    verified: bool

    @property
    def R(self) -> int:
        return self.I + self.M + self.K + 2 * self.J + self.F_p + self.F_pp

    def to_json(self) -> str:
        return json.dumps({
            "breve_beta": self.breve_beta, "D": self.D,
            "proper": [list(x) for x in self.proper],
            "local_bts": [[z, list(phis), fp] for z, phis, fp in self.local_bts],
            "remote_bts": [[y, ell, list(psis), fpp]
                           for y, ell, psis, fpp in self.remote_bts],
            "I": self.I, "M": self.M, "K": self.K, "J": self.J,
            "F_p": self.F_p, "F_pp": self.F_pp, "R": self.R,
            "verified": self.verified,
        })


def bts_and_cells(walk: Walk) -> CellReport:
    """Classify the arrival cells at the vertex of maximal exit degree.

    One pass in time order carries the latest marked step of the strongly
    reduced walk, which generates the next imported cell, and the latest I
    proper cell, which owns the next mirror cell.
    """
    a = walk.analysis
    w = walk.letters
    breve, d_max = max_exit_degree(walk)
    hat_set = set(strong_reduce(walk).kept_steps)
    brv_set = set(_reduce(walk, spare_vertex=breve).kept_steps)
    marked = a.marked
    # marked instant = rank of a marked step among marked steps, 1-based
    instant_of = {t: i for i, (_, _, t) in enumerate(a.marked_edges, 1)}

    proper: list[list[int]] = []   # [x_i, m_i] per I proper cell
    local = []      # (z_k, phis) per K cell
    remote = []     # (y_j, ell_j, psis)
    gen = None      # latest marked step of the strongly reduced walk
    offsets = None  # gen's phis or psis, once it has a local or remote entry
    last = 0        # time of gen's latest cell, where the next offset starts
    unassigned_mirrors = 0

    for t in range(1, len(w)):
        if marked[t - 1] and t in hat_set:
            gen, offsets = t, None
        if w[t] != breve or t not in brv_set:
            continue
        if marked[t - 1]:
            if t in hat_set:  # a K cell: the generator of local imports
                offsets, last = [], t
                local.append((instant_of[t], offsets))
            else:
                proper.append([instant_of[t], 0])
        elif t in hat_set:  # an imported cell, generated by gen
            if gen is None:
                unassigned_mirrors += 1  # cannot happen for valid walks
            elif offsets is not None:
                offsets.append(t - last)
                last = t
            elif w[gen] != breve:
                offsets, last = [], t
                remote.append((instant_of[gen], t - gen, offsets))
        elif proper:
            proper[-1][1] += 1  # a mirror cell of the latest I proper cell
        else:
            unassigned_mirrors += 1

    local_bts = tuple((z, tuple(phis), len(phis)) for z, phis in local)
    remote_bts = tuple((y, ell, tuple(psis), len(psis))
                       for y, ell, psis in remote)
    I, K, J = len(proper), len(local_bts), len(remote_bts)
    M = sum(m for _, m in proper) + unassigned_mirrors
    F_p = sum(fp for _, _, fp in local_bts)
    F_pp = sum(fpp for _, _, _, fpp in remote_bts)

    # replay verification of offsets and the proper-cell count
    ok = unassigned_mirrors == 0
    times = [t for _, _, t in a.marked_edges]
    chains = [(times[z - 1], phis) for z, phis, _ in local_bts]
    chains += [(times[y - 1] + ell, (0,) + psis)
               for y, ell, psis, _ in remote_bts]
    for pos, offsets in chains:
        for step in offsets:
            pos += step
            ok = ok and w[pos] == breve
    # every marked arrival at breve_beta must survive as an I or K cell
    ok = ok and len(a.arrival_conds.get(breve, ())) == I + K

    return CellReport(breve, d_max, tuple(map(tuple, proper)), local_bts,
                      remote_bts, I, M, K, J, F_p, F_pp, ok)


def exit_arrival_balance(walk: Walk) -> tuple[int, int]:
    """(marked exits, non-marked arrivals) at the max-exit vertex within the
    weak-reduced walk; the two numbers coincide for even walks."""
    w = walk.letters
    marked = walk.analysis.marked
    breve, _ = max_exit_degree(walk)
    kept = _reduce(walk, spare_vertex=breve).kept_steps
    return (sum(1 for t in kept if marked[t - 1] and w[t - 1] == breve),
            sum(1 for t in kept if not marked[t - 1] and w[t] == breve))


# ---------------------------------------------------------------------------
# Enumeration and class sizes
# ---------------------------------------------------------------------------

def estimate_even_walk_count(s: int) -> int:
    """Canonical even walks of 2s steps: the enumerated EVEN_WALK_COUNTS up
    to s = 7, then consecutive ratios (3.0, 5.3, ..., 14.6 at s = 7) that
    keep growing by 2.35 a step, until a float would overflow (s = 147)."""
    if s < len(EVEN_WALK_COUNTS):
        return EVEN_WALK_COUNTS[s]
    count = float(EVEN_WALK_COUNTS[-1])
    ratio = count / EVEN_WALK_COUNTS[-2]
    for _ in range(len(EVEN_WALK_COUNTS), s + 1):
        ratio += 2.35
        if count * ratio == math.inf:
            break
        count *= ratio
    return round(count)


def refuse_over_cap(s: int, cap: int) -> None:
    """Refused when s > cap, with the estimated even-walk count."""
    if s > cap:
        raise Refused("walk enumeration at s=%d exceeds cap %d" % (s, cap),
                      estimate_even_walk_count(s))


def _even_walk_leaves(s: int, cap: int) -> Iterator[tuple]:
    """DFS over the canonical even closed walks of 2s steps, lexicographic.

    A step goes to an existing letter or the next fresh one, never the
    current one.  The search prunes at the parent: once the odd pairs (the
    height) equal the remaining steps, it tries only steps along an odd pair
    at the current letter, so the odd pairs never exceed the remaining steps
    (the last step returns to 1).  A step moves both counts by one, so their
    parities always agree and need no test.  Refuses s > cap before any
    step.

    Next to the letters the search keeps the state of `_sweep`, undoing each
    piece on backtrack and deleting a key whose count returns to 0, so every
    dict has the insertion order of a fresh sweep.  Yields the live
    (letters, heights, pair multiplicities keyed (min, max), marked
    (tail, head, time) steps, arrival condition sets, exits, letter count)
    of each even walk; the caller copies what it keeps.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    refuse_over_cap(s, cap)
    total = 2 * s
    width = total + 2               # letters stay below it
    seq, heights, edges = [1], [0], []
    mult: dict[tuple[int, int], int] = {}
    conds: dict[int, tuple[frozenset, ...]] = {}
    exits: dict[int, int] = {}
    odd_at = [0] * width            # odd pairs touching each letter
    directed = [0] * (width * width)    # marked steps tail -> head

    def rec(t: int, max_letter: int):
        h = heights[-1]
        remaining = total - t
        cur = seq[-1]
        if remaining == 1:
            # forced: the one odd pair joins cur to 1, so the last step
            # takes it back to 1; nothing read at a leaf needs odd_at
            pair = (1, cur)
            m = mult[pair]
            mult[pair] = m + 1
            seq.append(1)
            heights.append(0)
            yield seq, heights, mult, edges, conds, exits, max_letter
            seq.pop()
            heights.pop()
            mult[pair] = m
            return
        closing = h == remaining
        row = cur * width           # directed[row + nxt] counts cur -> nxt
        for nxt in range(1, max_letter + (1 if closing else 2)):
            if nxt == cur:
                continue
            pair = (cur, nxt) if cur < nxt else (nxt, cur)
            m = mult.get(pair, 0)
            step = -1 if m & 1 else 1   # -1: the pair turns even, not marked
            if step > 0:
                if closing:
                    continue
                arrived = conds.get(nxt, ())
                conds[nxt] = arrived + (_CONDITION_SETS[
                    (odd_at[nxt] > 0) + 2 * (directed[row + nxt] > 0)
                    + 4 * (directed[nxt * width + cur] > 0)],)
                directed[row + nxt] += 1
                edges.append((cur, nxt, t + 1))
                exits[cur] = exits.get(cur, 0) + 1
            mult[pair] = m + 1
            odd_at[cur] += step
            odd_at[nxt] += step
            heights.append(h + step)
            seq.append(nxt)
            yield from rec(t + 1, max(max_letter, nxt))
            seq.pop()
            heights.pop()
            odd_at[cur] -= step
            odd_at[nxt] -= step
            if m:
                mult[pair] = m
            else:
                del mult[pair]
            if step < 0:
                continue
            if arrived:
                conds[nxt] = arrived
            else:
                del conds[nxt]
            directed[row + nxt] -= 1
            edges.pop()
            exits[cur] -= 1
            if not exits[cur]:
                del exits[cur]

    return rec(0, 1)


def enumerate_even_walks(s: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Walk]:
    """All canonical even closed walks of 2s steps, lexicographic order;
    refuses s > cap.  Each walk carries its analysis from the search, so no
    step of it is swept again."""
    shared: dict[tuple, tuple] = {}     # (heights, marks) per Dyck path
    for letters, heights, mult, edges, conds, exits, _ in \
            _even_walk_leaves(s, cap):
        key = tuple(heights)
        marks = shared.get(key)
        if marks is None:
            marks = shared[key] = key, tuple(
                [a < b for a, b in zip(key, key[1:])])
        walk = object.__new__(Walk)     # valid by construction: no check
        walk.__dict__.update(letters=tuple(letters), analysis=WalkAnalysis(
            *marks, dict(mult), tuple(edges), dict(conds), dict(exits)))
        yield walk


@functools.cache
def shape_table(s: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(k, sorted pair multiplicities, walk count) per shape of the even
    walks of 2s steps, sorted.  Class size and weight depend only on the
    shape, so this is all the walk oracle needs; it builds no Walk and no
    analysis, is computed once per s and refuses s > SHAPE_TABLE_CAP."""
    counts: Counter = Counter()
    for _, _, mult, _, _, _, k in _even_walk_leaves(s, SHAPE_TABLE_CAP):
        counts[k, tuple(sorted(mult.values()))] += 1
    return tuple((k, mults, c) for (k, mults), c in sorted(counts.items()))


def class_size(walk: Walk, n: int) -> int:
    """n(n-1)...(n-|V_g|+1): trajectories over [1..n] mapping to this walk."""
    return math.perm(n, walk.n_letters)
