"""Unit tests for walk canonicalization, labeling, census and reduction."""

import csv
import dataclasses
import io
import itertools
import pickle
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import Refused, cli
from wignerlab import walks as wk


def W16():
    traj = wk.Trajectory.from_string("5,2,7,9,7,1,2,7,9,7,2,7,2,1,7,2,5")
    return wk.walk_from_trajectory(traj)


# ---------------------------------------------------------------------------
# Reference implementations: from-scratch replays of the walk, one per fact,
# as the library computed them before one sweep kept them all, and
# the census and cells as computed before their one-pass forms.
# ---------------------------------------------------------------------------

def ref_label_steps(walk):
    """(marked flags, is_even, heights) by a replay of the pair parities."""
    w = walk.letters
    parity = Counter()
    marked = []
    heights = [0]
    for t in range(1, len(w)):
        pair = frozenset((w[t - 1], w[t]))
        parity[pair] ^= 1
        m = parity[pair] == 1
        marked.append(m)
        heights.append(heights[-1] + (1 if m else -1))
    is_even = all(v == 0 for v in parity.values())
    return tuple(marked), is_even, tuple(heights)


def ref_walk_graph(walk):
    """(pair multiplicities keyed (min, max), marked (tail, head, time)
    steps, kappa): kappa[v] counts the marked arrival instants at v, the
    root counting an artificial zero instant for its creation."""
    w = walk.letters
    marked = ref_label_steps(walk)[0]
    mult = {}
    marked_edges = []
    kappa = {1: 1}
    for t, m in zip(range(1, len(w)), marked):
        pair = (min(w[t - 1], w[t]), max(w[t - 1], w[t]))
        mult[pair] = mult.get(pair, 0) + 1
        if m:
            marked_edges.append((w[t - 1], w[t], t))
            kappa[w[t]] = kappa.get(w[t], 0) + 1
    for v in range(1, walk.n_letters + 1):
        kappa.setdefault(v, 0)
    return mult, tuple(marked_edges), kappa


def ref_arrival_conditions(walk, vertex, arrival_index):
    """Replay the walk prefix up to the arrival and test the conditions."""
    w = walk.letters
    marked = ref_label_steps(walk)[0]
    arrivals = [t for t in range(1, len(w)) if marked[t - 1] and w[t] == vertex]
    if arrival_index < 1 or arrival_index > len(arrivals):
        raise IndexError(arrival_index)
    t = arrivals[arrival_index - 1]
    parity = Counter()
    marked_directed = set()
    for tt in range(1, t):
        parity[frozenset((w[tt - 1], w[tt]))] ^= 1
        if marked[tt - 1]:
            marked_directed.add((w[tt - 1], w[tt]))
    conds = set()
    if any(v == 1 for pair, v in parity.items() if vertex in pair):
        conds.add("o")
    if (w[t - 1], vertex) in marked_directed:
        conds.add("Delta")
    if (vertex, w[t - 1]) in marked_directed:
        conds.add("Lambda")
    return conds


def ref_reduce(walk, spare_vertex):
    """Delete the leftmost removable pair, then rescan from the start."""
    w = walk.letters
    marked = ref_label_steps(walk)[0]
    steps = [(t, w[t - 1], w[t], marked[t - 1]) for t in range(1, len(w))]
    removed = []
    while True:
        hit = None
        for i in range(len(steps) - 1):
            _, tail1, head1, m1 = steps[i]
            _, _, head2, m2 = steps[i + 1]
            if m1 and not m2 and tail1 == head2 and head1 != spare_vertex:
                hit = i
                break
        if hit is None:
            break
        removed.append((steps[hit][0], steps[hit + 1][0]))
        del steps[hit:hit + 2]
    kept = tuple(t for t, _, _, _ in steps)
    letters = (steps[0][1],) + tuple(h for _, _, h, _ in steps) if steps else ()
    return wk.ReducedWalk(letters, kept, tuple(removed))


def ref_max_exit_degree(walk):
    exits = Counter(tail for tail, _, _ in ref_walk_graph(walk)[1])
    d_max = max(exits.values())
    return min(v for v, d in exits.items() if d == d_max), d_max


def ref_classify_arrival(walk, vertex, arrival_index):
    """Label an arrival by the maximal condition, precedence Lambda > Delta > o."""
    conds = ref_arrival_conditions(walk, vertex, arrival_index)
    for label in ("Lambda", "Delta", "o"):
        if label in conds:
            return label
    return "plain"


def ref_diagram_params(walk, k0):
    """The census, classifying the 2nd and 3rd arrival of each vertex by a
    replay of the walk prefix."""
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    if not ref_label_steps(walk)[1]:
        raise wk.ClassificationError("census requires an even walk")
    kappa = ref_walk_graph(walk)[2]
    s = walk.s
    mu1 = r = p = q = mu2_pp = u2 = mu3_p = mu3_pp = u3 = 0
    nu = Counter()
    for vertex in range(1, walk.n_letters + 1):
        k = kappa[vertex] - (vertex == 1)  # no zero instant
        if k == 0:
            continue
        if k == 1:
            mu1 += 1
        elif k > k0:
            nu[k] += 1
        else:
            label2 = ref_classify_arrival(walk, vertex, 2)
            if label2 != "plain":
                if label2 == "o":
                    r += 1
                elif label2 == "Delta":
                    p += 1
                else:
                    q += 1
                u2 += k - 2
            elif k == 2:
                mu2_pp += 1
            else:
                label3 = ref_classify_arrival(walk, vertex, 3)
                if label3 in ("Delta", "Lambda"):
                    mu3_p += 1
                else:
                    mu3_pp += 1
                u3 += k - 3
    n_vertices = walk.n_letters
    return wk.DiagramParams(
        s=s, k0=k0, mu1=mu1, r=r, p=p, q=q, mu2_pp=mu2_pp, u2=u2,
        mu3_p=mu3_p, mu3_pp=mu3_pp, u3=u3, nu_bar=tuple(sorted(nu.items())),
        sigma=s - n_vertices + 1, n_vertices=n_vertices)


def ref_bts_and_cells(walk):
    """The cells, each imported cell's generator found by walking back
    through the strongly reduced walk and each mirror cell's owner by a
    scan of the I proper cells before it."""
    w = walk.letters
    _, marked_edges, kappa = ref_walk_graph(walk)
    breve, d_max = ref_max_exit_degree(walk)
    hat = ref_reduce(walk, None)
    brv = ref_reduce(walk, breve)
    hat_set = set(hat.kept_steps)
    brv_set = set(brv.kept_steps)
    marked = ref_label_steps(walk)[0]
    instant_of = {t: i for i, (_, _, t) in enumerate(marked_edges, 1)}

    proper_I = []
    mirrors_of = {}
    local = {}
    remote = {}
    k_cells = []
    unassigned_mirrors = 0

    hat_order = list(hat.kept_steps)
    hat_pos = {t: i for i, t in enumerate(hat_order)}

    for t in range(1, len(w)):
        if w[t] != breve or t not in brv_set:
            continue
        if marked[t - 1]:
            if t in hat_set:
                k_cells.append(t)
            else:
                proper_I.append(t)
                mirrors_of[t] = 0
        else:
            if t in hat_set:
                i = hat_pos[t] - 1
                while i >= 0 and not marked[hat_order[i] - 1]:
                    i -= 1
                if i < 0:
                    unassigned_mirrors += 1
                    continue
                gen = hat_order[i]
                if w[gen] == breve:
                    local.setdefault(gen, []).append(t)
                else:
                    remote.setdefault(gen, []).append(t)
            else:
                prior = [x for x in proper_I if x < t]
                if prior:
                    mirrors_of[prior[-1]] += 1
                else:
                    unassigned_mirrors += 1

    proper = tuple((instant_of[t], mirrors_of[t]) for t in sorted(proper_I))
    local_bts = []
    for gen in sorted(set(k_cells)):
        times = sorted(local.get(gen, []))
        phis = []
        prev = gen
        for t in times:
            phis.append(t - prev)
            prev = t
        local_bts.append((instant_of[gen], tuple(phis), len(times)))
    remote_bts = []
    for gen in sorted(remote):
        times = sorted(remote[gen])
        ell = times[0] - gen
        psis = []
        prev = times[0]
        for t in times[1:]:
            psis.append(t - prev)
            prev = t
        remote_bts.append((instant_of[gen], ell, tuple(psis), len(times) - 1))

    I = len(proper_I)
    M = sum(mirrors_of.values()) + unassigned_mirrors
    K = len(k_cells)
    J = len(remote_bts)
    F_p = sum(fp for _, _, fp in local_bts)
    F_pp = sum(fpp for _, _, _, fpp in remote_bts)

    ok = unassigned_mirrors == 0
    time_of_instant = {inst: t for t, inst in instant_of.items()}
    for z, phis, _ in local_bts:
        pos = time_of_instant[z]
        for phi in phis:
            pos += phi
            ok = ok and w[pos] == breve
    for y, ell, psis, _ in remote_bts:
        pos = time_of_instant[y] + ell
        ok = ok and w[pos] == breve
        for psi in psis:
            pos += psi
            ok = ok and w[pos] == breve
    ok = ok and kappa[breve] - (breve == 1) == I + K

    return wk.CellReport(breve, d_max, proper, tuple(local_bts),
                         tuple(remote_bts), I, M, K, J, F_p, F_pp, ok)


def ref_enumerate_even_walks(s):
    """The parity DFS that enumerate_even_walks ran before it tracked pair
    multiplicities."""
    total = 2 * s
    seq = [1]
    parity = {}
    odd_pairs = 0

    def rec(t, max_letter):
        nonlocal odd_pairs
        remaining = total - t
        if remaining == 0:
            if odd_pairs == 0 and seq[-1] == 1:
                yield wk.Walk(tuple(seq))
            return
        if odd_pairs > remaining or (odd_pairs - remaining) % 2 != 0:
            return
        cur = seq[-1]
        for nxt in range(1, max_letter + 2):
            if nxt == cur or (remaining == 1 and nxt != 1):
                continue
            pair = frozenset((cur, nxt))
            was_odd = parity.get(pair, 0)
            parity[pair] = was_odd ^ 1
            odd_pairs += 1 if was_odd == 0 else -1
            seq.append(nxt)
            yield from rec(t + 1, max(max_letter, nxt))
            seq.pop()
            parity[pair] = was_odd
            odd_pairs += -1 if was_odd == 0 else 1

    yield from rec(0, 1)


def ref_shapes(s):
    """Even walks grouped by (letter count, sorted pair multiplicities), as
    the walk oracle grouped them before the shape table."""
    return Counter((w.n_letters,
                    tuple(sorted(w.analysis.pair_multiplicity.values())))
                   for w in wk.enumerate_even_walks(s))


def ref_analysis(walk):
    """Each compared field of WalkAnalysis, by name, from the replays: one
    (tail, head, time, code) per marked step, code encoding the replayed
    conditions of the step's arrival as o + 2*Delta + 4*Lambda."""
    marked, _, heights = ref_label_steps(walk)
    mult, marked_edges, kappa = ref_walk_graph(walk)
    bits = {"o": 1, "Delta": 2, "Lambda": 4}
    arrivals = Counter()    # the marked arrivals at each head so far
    steps = []
    for tail, head, t in marked_edges:
        arrivals[head] += 1
        steps.append((tail, head, t, sum(
            bits[c] for c in ref_arrival_conditions(walk, head,
                                                    arrivals[head]))))
    assert all(arrivals[v] == k - (v == 1) for v, k in kappa.items())
    return {"marked": marked, "pair_multiplicity": mult,
            "marked_steps": tuple(steps), "theta_star": max(heights)}


def arrival_conds(analysis):
    """The codes of each letter's marked arrivals in time order, keyed by
    letter in the order of its first marked arrival."""
    conds = {}
    for _, head, _, code in analysis.marked_steps:
        conds.setdefault(head, []).append(code)
    return {v: tuple(c) for v, c in conds.items()}


def assert_views_match_reference(walk):
    # pickles pin dict insertion order
    a = walk.analysis
    ref = ref_analysis(walk)
    compared = [f.name for f in dataclasses.fields(a) if f.compare]
    assert compared == list(ref)
    for name in compared:
        assert pickle.dumps(getattr(a, name)) == pickle.dumps(ref[name]), \
            (walk.letters, name)
    _, is_even, heights = ref_label_steps(walk)
    assert a.is_even == is_even and a.theta_star == max(heights)
    assert wk.max_exit_degree(walk) == ref_max_exit_degree(walk)
    for spare in (None,) + tuple(range(1, walk.n_letters + 1)):
        red = wk._reduce(walk, spare)
        ref = ref_reduce(walk, spare)
        assert red.removed_pairs == ref.removed_pairs
        assert red == ref
    assert wk.strong_reduce(walk) == ref_reduce(walk, None)
    assert wk.weak_reduce(walk) == \
        ref_reduce(walk, wk.max_exit_degree(walk)[0])
    assert wk.bts_and_cells(walk) == ref_bts_and_cells(walk)
    for k0 in (2, 4, 12):
        if is_even:
            assert wk.diagram_params(walk, k0) == ref_diagram_params(walk, k0)
        else:
            with pytest.raises(wk.ClassificationError):
                wk.diagram_params(walk, k0)


class TestCanonicalization:
    def test_w16_letters(self):
        assert W16().letters == (1, 2, 3, 4, 3, 5, 2, 3, 4, 3, 2, 3, 2, 5,
                                 3, 2, 1)

    def test_closure_forms_agree(self):
        a = wk.Trajectory.from_sequence([3, 1, 3, 1])
        b = wk.Trajectory.from_sequence([3, 1, 3, 1, 3])
        assert wk.walk_from_trajectory(a) == wk.walk_from_trajectory(b)

    def test_bad_closure_rejected(self):
        with pytest.raises(wk.MalformedInputError):
            wk.Trajectory.from_sequence([1, 2, 3])

    def test_odd_length_rejected(self):
        with pytest.raises(wk.MalformedInputError):
            wk.Trajectory((1, 2, 3), 3)

    def test_walk_letter_order_enforced(self):
        with pytest.raises(wk.MalformedInputError):
            wk.Walk((1, 3, 2, 3, 1))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, s, data):
        # the canonical walk is constant on the trajectory's orbit under
        # vertex permutations
        steps = data.draw(st.lists(st.integers(1, 6), min_size=2 * s,
                                   max_size=2 * s))
        perm = data.draw(st.permutations(list(range(1, 7))))
        w1 = wk.walk_from_trajectory(wk.Trajectory(tuple(steps), 6))
        relabeled = tuple(perm[v - 1] for v in steps)
        w2 = wk.walk_from_trajectory(wk.Trajectory(relabeled, 6))
        assert w1 == w2

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_canonical_idempotence(self, s, data):
        steps = data.draw(st.lists(st.integers(1, 5), min_size=2 * s,
                                   max_size=2 * s))
        w = wk.walk_from_trajectory(wk.Trajectory(tuple(steps), 5))
        again = wk.walk_from_trajectory(
            wk.Trajectory(w.letters[:-1], max(w.letters)))
        assert w == again


class TestLabeling:
    def test_w16_marked_steps(self):
        a = W16().analysis
        assert tuple(t + 1 for t, m in enumerate(a.marked) if m) == \
            (1, 2, 3, 5, 6, 8, 10, 12)
        assert a.theta_star == 4
        assert sum(a.marked) == 8

    def test_even_walk_has_s_marked(self):
        for s in range(1, 5):
            for w in wk.enumerate_even_walks(s):
                a = w.analysis
                assert a.is_even
                assert sum(a.marked) == s
                dyck = wk.DyckPath(tuple(1 if m else -1 for m in a.marked))
                assert dyck.height == a.theta_star

    def test_odd_walk_flagged(self):
        w = wk.walk_from_trajectory(wk.Trajectory((1, 2, 2, 1), 2))
        assert not w.analysis.is_even
        # the walk 1,2,2,1,1 ends with its two loops odd
        assert sum(1 if m else -1 for m in w.analysis.marked) == 2


class TestSweepAgainstReference:
    def test_every_even_walk(self):
        for s in range(1, 6):
            for w in wk.enumerate_even_walks(s):
                assert_views_match_reference(w)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_drawn_trajectories(self, s, data):
        # loops and odd pairs included: most drawn walks are not even
        steps = data.draw(st.lists(st.integers(1, 6), min_size=2 * s,
                                   max_size=2 * s))
        assert_views_match_reference(
            wk.walk_from_trajectory(wk.Trajectory(tuple(steps), 6)))

    def test_long_walk_sweeps_in_linear_time(self):
        # 200,000 steps 1,2,1,2,...: every step 1 -> 2 is a marked arrival
        walk = wk.Walk(tuple([1, 2] * 100_000 + [1]))
        start = time.perf_counter()
        a = wk._sweep(walk.letters)
        assert time.perf_counter() - start < 5.0
        conds = arrival_conds(a)
        assert len(conds[2]) == 100_000
        assert conds[2][0] == 0
        assert set(conds[2][1:]) == {wk.DELTA}

    def test_analysis_outside_equality(self):
        a, b = W16(), W16()
        assert a.analysis is a.analysis
        assert a == b and hash(a) == hash(b)
        assert "analysis" not in repr(a)


class TestSearchAnalysis:
    def test_search_state_is_a_fresh_sweep(self):
        # the analysis each enumerated walk carries from the search, against
        # the sweep of the same letters; pickles pin dict insertion order
        assert [f.name for f in dataclasses.fields(wk.WalkAnalysis)] == \
            ["marked", "pair_multiplicity", "marked_steps", "theta_star",
             "reductions", "max_exit"]
        for s in range(1, 7):
            for w in wk.enumerate_even_walks(s):
                assert "analysis" in vars(w)   # attached, not computed
                ref = wk._sweep(w.letters)
                assert w.analysis == ref
                for f in dataclasses.fields(ref):
                    assert pickle.dumps(getattr(w.analysis, f.name)) == \
                        pickle.dumps(getattr(ref, f.name)), (w.letters, f.name)


class TestDyckTree:
    def test_dyck_words(self):
        from wignerlab.catalan import catalan
        assert list(wk.dyck_words(0)) == [()]
        for s in range(11):
            words = list(wk.dyck_words(s))
            assert len(words) == catalan(s)
            for w in words:
                heights = list(itertools.accumulate(w))
                assert len(w) == 2 * s and set(w) <= {1, -1}
                assert min(heights, default=0) >= 0 and sum(w) == 0
            # strictly increasing with +1 before -1: compare w with -w
            keys = [tuple(-step for step in w) for w in words]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_counts_match_catalan(self):
        from wignerlab.catalan import catalan
        for s in range(1, 9):
            assert sum(1 for _ in wk.all_dyck_paths(s)) == catalan(s)

    def test_round_trip_s8(self):
        for d in wk.all_dyck_paths(8):
            tree = wk.tree_from_dyck(d)
            assert wk.dyck_from_tree(tree) == d
            assert tree.edge_count == 8
            assert tree.height == d.height


class TestCensus:
    def test_w16_graph(self):
        conds = arrival_conds(W16().analysis)
        # marked arrivals per letter, root counting its artificial start
        kappa = {v: len(conds.get(v, ())) + (v == 1) for v in range(1, 6)}
        assert kappa == {1: 1, 2: 4, 3: 1, 4: 2, 5: 1}
        assert sum(kappa.values()) - 1 == W16().s
        assert sum(k - 1 for k in kappa.values()) == 4

    def test_w16_census(self):
        dp = wk.diagram_params(W16(), 4)
        assert (dp.mu1, dp.mu2_pp, dp.u2) == (2, 0, 2)
        assert dp.mu3 == 0 and dp.nu_l1 == 0
        assert dp.census_sum == 8
        assert dp.sigma == 4

    def test_census_sum_is_s(self):
        for s in range(1, 5):
            for w in wk.enumerate_even_walks(s):
                for k0 in (2, 4, 12):
                    dp = wk.diagram_params(w, k0)
                    assert dp.census_sum == s
                    assert dp.n_vertices == s - dp.sigma + 1
                    # the census leaves out the root's artificial start
                    root_return = bool(arrival_conds(w.analysis).get(1))
                    assert dp.sigma_census_b + root_return == dp.sigma

    def test_k0_too_small(self):
        with pytest.raises(ValueError):
            wk.diagram_params(W16(), 1)

    def test_non_even_walk_rejected(self):
        w = wk.walk_from_trajectory(wk.Trajectory((1, 2, 2, 1), 2))
        with pytest.raises(wk.ClassificationError):
            wk.diagram_params(w, 4)


class TestReduction:
    def test_w16_strong(self):
        red = wk.strong_reduce(W16())
        assert red.letters == (1, 2, 3, 5, 2, 3, 2, 5, 3, 2, 1)
        assert red.kept_steps == (1, 2, 5, 6, 7, 12, 13, 14, 15, 16)
        assert len(red.removed_pairs) == 3

    def test_w16_weak_equals_strong(self):
        assert wk.weak_reduce(W16()).letters == \
            wk.strong_reduce(W16()).letters

    def test_tree_type(self):
        # a tree-type walk reduces to the empty walk
        assert wk.strong_reduce(wk.Walk((1, 2, 3, 2, 1))).is_empty
        assert wk.strong_reduce(wk.Walk((1, 2, 1, 2, 1))).is_empty
        assert not wk.strong_reduce(W16()).is_empty

    def test_reduced_walk_is_even(self):
        for s in range(2, 5):
            for w in wk.enumerate_even_walks(s):
                red = wk.strong_reduce(w)
                if red.is_empty:
                    continue
                mult = Counter(frozenset(p)
                               for p in zip(red.letters, red.letters[1:]))
                assert all(m % 2 == 0 for m in mult.values())


class TestCells:
    def test_w16_cells(self):
        rep = wk.bts_and_cells(W16())
        assert rep.breve_beta == 3
        assert (rep.I, rep.M, rep.K, rep.J, rep.F_p, rep.F_pp) == \
            (0, 0, 1, 2, 0, 0)
        assert rep.R == 5
        assert rep.verified
        assert sorted(ell for _, ell, _, _ in rep.remote_bts) == [1, 2]

    def test_balance_small(self):
        for s in range(1, 5):
            for w in wk.enumerate_even_walks(s):
                exits, arrivals = wk.exit_arrival_balance(w)
                assert exits == arrivals


class TestEnumeration:
    def test_counts(self):
        expected = {1: 1, 2: 3, 3: 16, 4: 122}
        for s, count in expected.items():
            assert sum(1 for _ in wk.enumerate_even_walks(s)) == count

    def test_cap(self):
        with pytest.raises(Refused) as exc:
            list(wk.enumerate_even_walks(9))
        assert exc.value.estimate == 71_213_283

    def test_refused_before_any_step(self, first_nested_call):
        # one cap, s = 7, with no override; a 5,000-digit s (past str()'s
        # digit limit) refuses too, with its estimate
        for s in (8, 10 ** 4999):
            step, exc = first_nested_call(wk, list,
                                          wk.enumerate_even_walks(s))
            assert step is None and isinstance(exc, Refused)
            assert exc.estimate == wk.estimate_even_walk_count(s)
        assert first_nested_call(
            wk, cli.main, ["walk", "enumerate", "--s", "8"]) == (None, 3)

    def test_estimate_is_the_count(self):
        for s in range(1, 7):
            assert wk.estimate_even_walk_count(s) == \
                sum(1 for _ in wk.enumerate_even_walks(s))
        # past s = 7 the estimate extrapolates; it stays a printable int
        # however large s is
        assert 3.6e6 < wk.estimate_even_walk_count(8) < 3.7e6
        huge = wk.estimate_even_walk_count(10 ** 9)
        assert isinstance(huge, int) and len(str(huge)) < 400

    @pytest.mark.slow
    def test_estimate_is_the_count_at_7(self):
        count = sum(1 for _ in wk.enumerate_even_walks(7))
        assert count == wk.estimate_even_walk_count(7) == 216955

    def test_partition_small(self):
        # every trajectory maps to exactly one canonical walk; class sizes
        # add back to the trajectory count
        n, s = 4, 2
        by_walk = Counter()
        skipped = 0
        for steps in itertools.product(range(1, n + 1), repeat=2 * s):
            w = wk.walk_from_trajectory(wk.Trajectory(steps, n))
            if w.has_loops or not w.analysis.is_even:
                skipped += 1
            else:
                by_walk[w] += 1
        assert all(wk.class_size(w, n) == c for w, c in by_walk.items())
        assert sum(by_walk.values()) + skipped == n ** (2 * s)

    def test_same_walks_as_parity_dfs(self):
        for s in range(1, 7):
            assert list(wk.enumerate_even_walks(s)) == \
                list(ref_enumerate_even_walks(s))

    def test_class_size(self):
        w = wk.Walk((1, 2, 3, 2, 1))
        assert wk.class_size(w, 5) == 5 * 4 * 3
        assert wk.class_size(w, 2) == 0


class TestShapeTable:
    def test_matches_grouped_walks(self):
        for s in range(1, 7):
            table = wk.shape_table(s)
            assert list(table) == sorted(table)
            assert {(k, mults): c for k, mults, c in table} == ref_shapes(s)
            assert sum(c for _, _, c in table) == wk.EVEN_WALK_COUNTS[s]

    def test_cached_and_immutable(self):
        table = wk.shape_table(4)
        assert wk.shape_table(4) is table
        assert isinstance(table, tuple)
        assert all(isinstance(row, tuple) and isinstance(row[1], tuple)
                   for row in table)

    def test_counts_at_7(self):
        # the cap of the walk search, which the table shares
        table = wk.shape_table(7)
        assert list(table) == sorted(table)
        assert sum(c for _, _, c in table) == wk.EVEN_WALK_COUNTS[7]

    def test_refuses_above_cap(self):
        # at once: a search at s = 9 would visit some 7e7 walks
        for s in (8, 9):
            with pytest.raises(Refused) as exc:
                wk.shape_table(s)
            assert exc.value.estimate == wk.estimate_even_walk_count(s)
        with pytest.raises(ValueError):
            wk.shape_table(0)


class TestGoldenBodies:
    """`walk` bodies through cli.main against rows built from the ref_*
    replays, so that a faster sweep cannot change a byte of them."""

    @staticmethod
    def body(argv, capsys):
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert lines[0].startswith("# manifest:")
        return "".join(lines[1:])

    @staticmethod
    def assert_body(got, rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["true" if v is True else "false" if v is False else str(v)
              for v in row] for row in rows])
        # line by line: a diff of two whole bodies takes minutes to print
        want = buf.getvalue().splitlines(keepends=True)
        got = got.splitlines(keepends=True)
        assert len(got) == len(want)
        for got_line, want_line in zip(got, want):
            assert got_line == want_line

    def test_enumerate(self, capsys):
        rows = [("walk", "s", "n_letters", "theta_star", "sigma", "census")]
        for walk in ref_enumerate_even_walks(5):
            dp = ref_diagram_params(walk, 4)
            rows.append((",".join(map(str, walk.letters)), 5,
                         max(walk.letters),
                         max(ref_label_steps(walk)[2]), dp.sigma,
                         dp.census_key()))
        assert len(rows) == 1 + wk.EVEN_WALK_COUNTS[5]
        self.assert_body(
            self.body(["walk", "enumerate", "--s", "5", "--k0", "4"], capsys),
            rows)

    def test_from_trajectory(self, capsys):
        walk = W16()
        _, is_even, heights = ref_label_steps(walk)
        letter, degree = ref_max_exit_degree(walk)
        strong, weak = ref_reduce(walk, None), ref_reduce(walk, letter)
        rec = {"walk": ",".join(map(str, walk.letters)), "s": 8,
               "n_letters": 5, "even": is_even}
        rec.update(ref_diagram_params(walk, 4).as_dict())
        rec.update({"theta_star": max(heights),
                    "max_exit_letter": letter, "max_exit_degree": degree,
                    "strong_reduced": ",".join(map(str, strong.letters)),
                    "strong_removed": len(strong.removed_pairs),
                    "weak_reduced": ",".join(map(str, weak.letters)),
                    "weak_removed": len(weak.removed_pairs)})
        rec.update(ref_bts_and_cells(walk).as_dict())
        argv = ["walk", "from-trajectory",
                "5,2,7,9,7,1,2,7,9,7,2,7,2,1,7,2,5", "--k0", "4"]
        self.assert_body(self.body(argv, capsys),
                         [list(rec), list(rec.values())])
