"""Unit tests for the exact rational moment oracle and the class audit."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from wignerlab import Refused
from wignerlab import oracle as orc
from wignerlab import walks as wk
from wignerlab.catalan import catalan


# ---------------------------------------------------------------------------
# Reference: the walk method as computed before the shape table, listing
# every even walk and weighing each shape on its first walk.
# ---------------------------------------------------------------------------

def ref_walk_weight(walk, spec):
    if walk.has_loops:
        return Fraction(0)
    out = Fraction(1)
    for mult in walk.analysis.pair_multiplicity.values():
        out *= orc.pair_weight(mult, spec)
        if out == 0:
            return out
    return out


def ref_class_size(walk, n):
    k = walk.n_letters
    if n < k:
        return 0
    out = 1
    for i in range(k):
        out *= n - i
    return out


def ref_exact_moment_walk(spec):
    shapes = Counter()
    first = {}
    for walk in wk.enumerate_even_walks(spec.s):
        shape = (walk.n_letters,
                 tuple(sorted(walk.analysis.pair_multiplicity.values())))
        shapes[shape] += 1
        first.setdefault(shape, walk)
    total = Fraction(0)
    for shape, count in shapes.items():
        size = ref_class_size(first[shape], spec.n)
        if size:
            total += count * size * ref_walk_weight(first[shape], spec)
    return total


# ---------------------------------------------------------------------------
# Reference: the trajectory method as computed before the prefix search,
# building every one of the n^{2s} step sequences.
# ---------------------------------------------------------------------------

def ref_exact_moment_trajectory(spec):
    n, s = spec.n, spec.s
    total = Fraction(0)
    for steps in itertools.product(range(1, n + 1), repeat=2 * s):
        closed = steps + (steps[0],)
        if any(closed[i] == closed[i + 1] for i in range(2 * s)):
            continue  # diagonal entries vanish
        mult = Counter(frozenset((closed[i], closed[i + 1]))
                       for i in range(2 * s))
        if any(m % 2 for m in mult.values()):
            continue
        w = Fraction(1)
        for m in mult.values():
            w *= orc.pair_weight(m, spec)
        total += w
    return total


class TestMomentSpec:
    def test_rademacher(self):
        assert orc.rademacher_moments(3) == \
            (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64))

    def test_gaussian(self):
        assert orc.gaussian_moments(3) == \
            (Fraction(1, 4), Fraction(3, 16), Fraction(15, 64))

    def test_validation(self):
        with pytest.raises(ValueError):
            orc.MomentSpec(4, Fraction(5), 1, (Fraction(1, 4),))
        with pytest.raises(ValueError):
            orc.MomentSpec(4, Fraction(1), 2, (Fraction(1, 4),))
        with pytest.raises(ValueError):
            orc.make_spec(4, 1, 1, "poisson")

    def test_odd_moment_zero(self):
        spec = orc.make_spec(4, 1, 2)
        assert spec.v_moment(3) == 0


class TestPairWeight:
    def test_multiplicity_two(self):
        spec = orc.make_spec(4, Fraction(3, 2), 1)
        assert orc.pair_weight(2, spec) == Fraction(1, 16)

    def test_multiplicity_four_scales_with_rho(self):
        spec = orc.make_spec(4, Fraction(1, 2), 2)
        # V_4 rho^{-1} / n
        assert orc.pair_weight(4, spec) == Fraction(1, 16) * 2 / 4

    def test_odd_is_zero(self):
        spec = orc.make_spec(4, 1, 2)
        assert orc.pair_weight(3, spec) == 0

    def test_shape_weight(self):
        spec = orc.make_spec(5, Fraction(3, 2), 3)
        # (5)_3 = 60 trajectories; pair weights V_2/n = 1/20 and
        # V_4 rho^{-1}/n = (1/16)(2/3)/5
        assert orc.shape_weight(3, (2, 4), spec) == \
            60 * Fraction(1, 20) * Fraction(1, 120)
        assert orc.shape_weight(6, (2, 2, 2), spec) == 0   # k > n
        assert orc.shape_weight(2, (3,), spec) == 0        # odd pair


class TestExactMoment:
    def test_m2(self):
        for n in range(2, 7):
            assert orc.exact_moment_walk(orc.make_spec(n, 1, 1)) == \
                Fraction(n - 1, 4)

    def test_n2_all_s(self):
        for s in range(1, 5):
            for rho in (Fraction(1, 2), Fraction(1), Fraction(2)):
                spec = orc.MomentSpec(2, rho, s, orc.rademacher_moments(s))
                assert orc.exact_moment_walk(spec) == \
                    Fraction(1, 4) ** s * rho ** (1 - s)

    def test_frozen_values(self):
        # n=4, rho=2, Rademacher entries +-1/2
        expected = {1: Fraction(3, 4), 2: Fraction(9, 32),
                    3: Fraction(69, 512), 4: Fraction(627, 8192)}
        for s, value in expected.items():
            assert orc.exact_moment_walk(orc.make_spec(4, 2, s)) == value

    def test_methods_agree(self):
        for n in range(2, 7):
            for s in range(1, 4):
                spec = orc.make_spec(n, Fraction(3, 2), s)
                assert orc.exact_moment(spec, "both") == \
                    orc.exact_moment_trajectory(spec)

    def test_budget_guard(self):
        spec = orc.make_spec(9, 2, 6)
        with pytest.raises(Refused) as exc:
            orc.exact_moment_trajectory(spec)
        assert exc.value.estimate == 9 ** 12

    def test_trajectory_s_cap(self):
        # n = 1 fits any sequence budget; its refusal counts moments
        assert orc.exact_moment_trajectory(orc.make_spec(1, 1, 11)) == 0
        with pytest.raises(Refused) as exc:
            orc.refuse_over_budget(1, 12, "trajectory")
        assert exc.value.estimate == 12
        # n = 2 at s = 11 is the largest request within the budget
        orc.refuse_over_budget(2, orc.TRAJECTORY_S_CAP, "trajectory")
        assert 2 ** (2 * orc.TRAJECTORY_S_CAP) <= orc.TRAJECTORY_BUDGET \
            < 2 ** (2 * orc.TRAJECTORY_S_CAP + 2)
        with pytest.raises(Refused) as exc:
            orc.refuse_over_budget(3, 30_000_000, "trajectory")
        assert exc.value.estimate.adjusted() == 28_627_275

    def test_methods_agree_at_7(self):
        # the shape table at s = 7, one step past the walk enumeration,
        # against the 3^14 trajectories on three vertices, of which the
        # search visits the 2^14 + 2 with no diagonal step
        spec = orc.make_spec(3, 2, 7)
        assert orc.exact_moment_walk(spec) == \
            orc.exact_moment_trajectory(spec) == Fraction(3727, 1572864)

    @pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
    def test_search_matches_sequence_loop(self, dist):
        for n in range(1, 5):
            for s in range(1, 5):
                for rho in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
                    if rho <= n:
                        spec = orc.make_spec(n, rho, s, dist)
                        assert orc.exact_moment_trajectory(spec) == \
                            ref_exact_moment_trajectory(spec)

    def test_refused_before_any_step(self, first_nested_call):
        assert first_nested_call(orc, orc.exact_moment_trajectory,
                                 orc.make_spec(3, 2, 2)) == ("extend", None)
        for n, s in ((9, 6), (1, orc.TRAJECTORY_S_CAP + 1)):
            step, result = first_nested_call(
                orc, orc.exact_moment_trajectory, orc.make_spec(n, 1, s))
            assert step is None and isinstance(result, Refused)

    def test_walk_method_guard(self):
        # the walk enumerator's refusal, with its estimate in walks
        spec = orc.make_spec(4, 2, 9)
        with pytest.raises(Refused) as exc:
            orc.exact_moment(spec, "walk")
        assert exc.value.estimate == wk.estimate_even_walk_count(9)

    @pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
    def test_shape_sum_matches_walk_listing(self, dist):
        for s in range(1, 6):
            for n in (2, 3, 5, 2000):
                for rho in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
                    if rho <= n:
                        spec = orc.make_spec(n, rho, s, dist)
                        assert orc.exact_moment_walk(spec) == \
                            ref_exact_moment_walk(spec)
        spec = orc.make_spec(2000, 2, 6, dist)
        assert orc.exact_moment_walk(spec) == ref_exact_moment_walk(spec)

    def test_walk_method_builds_no_walk(self, monkeypatch):
        spec = orc.make_spec(5, 2, 5)
        expected = ref_exact_moment_walk(spec)

        def no_walk(*args):
            raise AssertionError("a Walk was built")
        wk.shape_table.cache_clear()   # make the call run the search
        monkeypatch.setattr(wk, "Walk", no_walk)
        monkeypatch.setattr(wk, "WalkAnalysis", no_walk)
        monkeypatch.setattr(wk, "_sweep", no_walk)
        assert orc.exact_moment_walk(spec) == expected

    def test_gaussian_exceeds_rademacher(self):
        r = orc.exact_moment_walk(orc.make_spec(4, 2, 2))
        g = orc.exact_moment_walk(orc.make_spec(4, 2, 2, "gaussian"))
        assert g > r

    def test_dense_limit_direction(self):
        # at rho = n the s=2 moment approaches t_2/4^2 per site from below
        per_site = [Fraction(orc.exact_moment_walk(orc.make_spec(n, n, 2)), n)
                    for n in (3, 5, 8, 12)]
        assert per_site == sorted(per_site)
        assert all(v < Fraction(catalan(2), 16) for v in per_site)


class TestClosedForms:
    def test_insertion_count(self):
        assert orc.insertion_count(4, 0) == 1
        assert orc.insertion_count(4, 1) == 6
        assert orc.insertion_count(4, 2) == 3
        assert orc.insertion_count(3, 2) == 0

    def test_insertion_bound(self):
        for s in range(2, 13):
            for mu2 in range(0, s // 2 + 1):
                for m in range(mu2, s // 2 + 1):
                    assert orc.insertion_lower_bound_ok(s, mu2, m)


class TestAudit:
    def test_small_sweep(self):
        for s in range(1, 4):
            for n in range(2, 6):
                for rec in orc.class_weight_audit(s, n, 1, 4):
                    assert rec.bound_ok
                    assert rec.eq_5_15_ok
                    assert rec.n_walks > 0

    def test_weights_total(self):
        # per-class weights add back to the full moment
        s, n, rho = 3, 5, Fraction(2)
        recs = orc.class_weight_audit(s, n, rho, 4)
        total = sum(r.weight for r in recs)
        assert total == orc.exact_moment_walk(orc.make_spec(n, rho, s))
