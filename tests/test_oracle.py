"""Unit tests for the exact rational moment oracle and the class audit."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from wignerlab import ENTRY_LAWS, Refused
from wignerlab import catalan as ct
from wignerlab import oracle as orc
from wignerlab import verify
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


def ref_rademacher_moments(s):
    """The oracle's Rademacher moments before the entry-law table."""
    return tuple(Fraction(1, 4) ** l for l in range(1, s + 1))


def ref_gaussian_moments(s):
    """The oracle's Gaussian moments before the entry-law table."""
    out = []
    double_fact = 1
    for l in range(1, s + 1):
        double_fact *= 2 * l - 1
        out.append(double_fact * Fraction(1, 4) ** l)
    return tuple(out)


class TestMomentSpec:
    def test_rademacher(self):
        assert orc.make_spec(4, 2, 3).moments == \
            (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64))
        assert orc.make_spec(4, 2, 12).moments == ref_rademacher_moments(12)

    def test_gaussian(self):
        assert orc.make_spec(4, 2, 3, "gaussian").moments == \
            (Fraction(1, 4), Fraction(3, 16), Fraction(15, 64))
        assert orc.make_spec(4, 2, 12, "gaussian").moments == \
            ref_gaussian_moments(12)

    def test_student(self):
        # t with df = 14 rescaled to v = 1/2: V_2 ... V_12 are finite, the
        # abstract's 6 + phi_0 moments at phi_0 = 0
        assert orc.make_spec(4, 2, 3, "student").moments == \
            (Fraction(1, 4), Fraction(9, 40), Fraction(27, 64))
        assert len(orc.make_spec(4, 2, 6, "student").moments) == 6
        with pytest.raises(ValueError, match="df=14"):
            orc.make_spec(4, 2, 7, "student")

    @pytest.mark.parametrize("df", [Fraction(5, 2), 3, Fraction(7, 2), 14,
                                    Fraction(1001, 10)])
    @pytest.mark.parametrize("v", [Fraction(1, 3), Fraction(1, 2), 2])
    def test_student_variance(self, v, df):
        # sim rescales t by v / sqrt(df / (df - 2)): variance v^2 at any
        # df > 2
        assert ENTRY_LAWS["student"](1, Fraction(v), df) == Fraction(v) ** 2

    def test_student_refuses_past_df(self):
        for df in (2, Fraction(5, 2), 4):
            with pytest.raises(ValueError, match="df=%s" % df):
                ENTRY_LAWS["student"](2, Fraction(1, 2), df)

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

        def weight(k, mults):
            return orc.weigh(orc.walk_shapes(5, [(k, mults, 1)]), spec)
        # (5)_3 = 60 trajectories; pair weights V_2/n = 1/20 and
        # V_4 rho^{-1}/n = (1/16)(2/3)/5
        assert weight(3, (2, 4)) == 60 * Fraction(1, 20) * Fraction(1, 120)
        assert weight(6, (2, 2, 2)) == 0   # k > n
        assert weight(2, (3,)) == 0        # odd pair


class TestExactMoment:
    def test_m2(self):
        for n in range(2, 7):
            assert orc.exact_moment_walk(orc.make_spec(n, 1, 1)) == \
                Fraction(n - 1, 4)

    def test_n2_all_s(self):
        for s in range(1, 5):
            for rho in (Fraction(1, 2), Fraction(1), Fraction(2)):
                spec = orc.make_spec(2, rho, s)
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


def moved_walk(shape_table, s_moved, source, target):
    """shape_table with one walk of 2 s_moved steps moved from shape source
    to shape target."""
    def table(s):
        rows = Counter({row[:2]: row[2] for row in shape_table(s)})
        if s == s_moved:
            assert rows[source] > 0
            rows[source] -= 1
            rows[target] += 1
        return tuple(shape + (c,) for shape, c in sorted(rows.items()))
    return table


def distinct_weigh(shapes, spec):
    """weigh with the product taken over the distinct multiplicities only."""
    return sum((count * math.prod(orc.pair_weight(m, spec) for m in set(mults))
                for mults, count in shapes.items()), Fraction(0))


def bound_without_nu_bar(S, u, D, s, n, rho, U_hat_sq, V2_hat, k0,
                         bound_3_7=orc.bound_3_7):
    """bound_3_7 with its nu_bar factor divided back out."""
    out = bound_3_7(S, u, D, s, n, rho, U_hat_sq, V2_hat, k0)
    for k, nu_k in S.nu_bar:
        out /= orc._pow_fact(n * (2.0 * k * s) ** k * U_hat_sq ** k
                             / (math.factorial(k) * rho ** k), nu_k)
    return out


# the s = 4 move: the Rademacher law weighs both shapes v^8 rho^-2 n^-2, and
# (3, (2, 6)) is the multi-edge class l = 3
MOVED_S4 = moved_walk(wk.shape_table, 4, (3, (4, 4)), (3, (2, 6)))
# (module, name, fault) and the verify oracle ids it fails with --fast and
# at full range
PLANTED = {
    "s4-move": ((wk, "shape_table", MOVED_S4),
                ["oracle.dual_method", "oracle.multi_edge_classes"],
                ["oracle.dual_method", "oracle.multi_edge_classes"]),
    # k = 6 exceeds every n of the dual check's grid at s = 6; the target is
    # the multi-edge class l = 2
    "s6-move": ((wk, "shape_table", moved_walk(
        wk.shape_table, 6, (6, (2,) * 6), (6, (2, 2, 2, 2, 4)))),
        ["oracle.multi_edge_classes"], ["oracle.multi_edge_classes"]),
    "weigh-distinct": ((orc, "weigh", distinct_weigh),
                       ["oracle.scaling_law", "oracle.class_weight_audit"],
                       ["oracle.scaling_law", "oracle.class_weight_audit"]),
    # the first nu_bar class at k0 = 4 has s = 5, past the --fast audit;
    # at rho = 1 its weight stays below the bound even without the factor
    "nu-bar-dropped": ((orc, "bound_3_7", bound_without_nu_bar),
                       [], ["oracle.class_weight_audit"]),
}


class TestDualCheck:
    @pytest.mark.parametrize("fault, fast_failing, failing", PLANTED.values(),
                             ids=PLANTED.keys())
    def test_planted_shape_fault(self, monkeypatch, fault, fast_failing,
                                 failing):
        monkeypatch.setattr(*fault)
        for fast, want in ((True, fast_failing), (False, failing)):
            failed = [c["check"] for c in verify.oracle_suite(fast)
                      if c["status"] == "fail"]
            assert failed == want

    def test_moved_walk_raises_in_both(self, monkeypatch):
        monkeypatch.setattr(wk, "shape_table", MOVED_S4)
        spec = orc.make_spec(4, 2, 4)
        # the weighed sums cannot see it
        assert orc.exact_moment_walk(spec) == orc.exact_moment_trajectory(spec)
        with pytest.raises(AssertionError,
                           match=re.escape("tuples [(2, 6), (4, 4)]")):
            orc.exact_moment(spec, "both")

    @pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
    def test_routes_share_no_enumeration(self, monkeypatch, dist):
        spec = orc.make_spec(4, Fraction(3, 2), 4, dist)

        def no_call(*args):
            raise AssertionError("the other route ran")
        with monkeypatch.context() as patch:
            patch.setattr(wk, "shape_table", no_call)
            patch.setattr(wk, "_even_walk_leaves", no_call)
            by_trajectory = orc.exact_moment_trajectory(spec)
        monkeypatch.setattr(orc, "trajectory_shapes", no_call)
        assert orc.exact_moment_walk(spec) == by_trajectory == \
            ref_exact_moment_walk(spec)


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
        # at rho = 1/2 the nu_bar class's weight exceeds its bound without
        # the nu_bar factor
        for rho in (1, Fraction(1, 2)):
            for s in range(1, 6):
                for n in range(2, 7):
                    recs = orc.class_weight_audit(s, n, rho, 4)
                    for rec in recs:
                        assert rec.bound_ok
                        assert rec.eq_5_15_ok
                        assert rec.n_walks > 0
        # s = 5 is the first s with a class in nu_bar at k0 = 4: the walk
        # 1,2,1,2,...,1 arrives at letter 2 five times
        assert len(recs) == 68
        assert [r.census.nu_bar for r in recs if r.census.nu_bar] \
            == [((5, 1),)]

    def test_weights_total(self):
        # per-class weights add back to the full moment
        s, n, rho = 3, 5, Fraction(2)
        recs = orc.class_weight_audit(s, n, rho, 4)
        total = sum(r.weight for r in recs)
        assert total == orc.exact_moment_walk(orc.make_spec(n, rho, s))


class TestBounds:
    def test_pow_fact(self):
        assert orc._pow_fact(2.0, 3) == pytest.approx(8.0 / 6.0)
        assert orc._pow_fact(123.0, 0) == 1.0

    def test_trivial_class_bound(self):
        # the all-zero census at height u reduces to V2^s * theta_u(s) * exp
        s, n = 4, 10
        dp = wk.diagram_params(wk.Walk((1, 2, 3, 4, 5, 4, 3, 2, 1)), 4)
        got = orc.bound_3_7(dp, 4, 1, s, n, 2.0, 1.0, 0.25, 4)
        expect = 0.25 ** s * ct.height_row(s)[4] \
            * math.exp(-(s - 0) ** 2 / (2.0 * n))
        assert got == pytest.approx(expect)

    def test_nu_bar_class_bound(self):
        # 1,2,1,2,...,1 arrives at letter 2 five times, so kappa(2) = 5 >
        # k0 = 4 puts it in nu_bar; every other census count is zero, and
        # the bound is the trivial-class product times the nu_bar factor
        s, n, rho, k = 5, 6, 1.0, 5
        dp = wk.diagram_params(wk.Walk((1, 2) * s + (1,)), 4)
        assert dp.nu_bar == ((k, 1),)
        got = orc.bound_3_7(dp, 1, 5, s, n, rho, 1.0, 0.25, 4)
        trivial = 0.25 ** s * ct.height_row(s)[1] \
            * math.exp(-(s - dp.sigma_census_b) ** 2 / (2.0 * n))
        expect = trivial * n * (2.0 * k * s) ** k \
            / (math.factorial(k) * rho ** k)
        assert got == pytest.approx(expect)
        assert got == pytest.approx(14038.76365, rel=1e-9)

    # the first walk that carries each other factor at k0 = 4, the census
    # counts it carries, those counts' factors of eq. (3.7) expanded by hand
    # at n = 6, rho = 2, U^2 = 3/2, k0 = 4 (every count is 1, so each
    # factor is its base), and the pinned bound
    @pytest.mark.parametrize("traj, counts, factors, pinned", [
        ("1,2,1,2,1", {"p": 1},
         lambda s, u, D: [3 * s * D * 1.5 / 2.0], 0.5175249832),
        ("1,2,1,2,1,2,1", {"p": 1, "u2": 1},
         lambda s, u, D: [3 * s * D * 1.5 / 2.0,
                          8 * 4 ** 4 * s * 1 * 1.5 / 2.0],  # mu2' = 1
         1341.424757),
        ("1,2,1,3,2,3,1", {"mu2_pp": 1},
         lambda s, u, D: [s * s / (2 * 6)], 0.02519055389),
        ("1,2,1,3,2,3,1,2,1", {"mu3_p": 1},
         lambda s, u, D: [9 * (D + 4) * s * s * 1.5 / (6 * 2.0)],
         2.468674281),
        ("1,2,3,1,2,1,2,3,1", {"q": 1},
         lambda s, u, D: [3 * s * 4 * 1.5 / 2.0], 0.3321327324),
        ("1,2,3,4,2,3,4,2,1", {"r": 1},
         lambda s, u, D: [6 * s * u / 6], 0.02952290955),
        ("1,2,1,3,2,3,1,2,1,2,1", {"mu3_p": 1, "u3": 1},
         lambda s, u, D: [9 * (D + 4) * s * s * 1.5 / (6 * 2.0),
                          16 * 4 ** 5 * s * 1 * 1.5 / 2.0],  # mu3 = 1
         145097.5904),
        ("1,2,1,3,2,3,1,4,2,4,1", {"mu3_pp": 1},
         lambda s, u, D: [3 * s ** 3 / (2 * 6 ** 2)], 0.03603870794)],
        ids=["p", "u2", "mu2_pp", "mu3_p", "q", "r", "u3", "mu3_pp"])
    def test_factor_class_bound(self, traj, counts, factors, pinned):
        walk = wk.walk_from_trajectory(wk.Trajectory.from_string(traj))
        dp = wk.diagram_params(walk, 4)
        census = {f: getattr(dp, f) for f in (
            "r", "p", "q", "mu2_pp", "u2", "mu3_p", "mu3_pp", "u3")}
        assert {f: c for f, c in census.items() if c} == counts
        assert dp.nu_bar == ()
        s, u, D = walk.s, walk.analysis.theta_star, wk.max_exit_degree(walk)[1]
        got = orc.bound_3_7(dp, u, D, s, 6, 2.0, 1.5, 0.25, 4)
        trivial = 0.25 ** s * ct.height_row(s)[u] \
            * math.exp(-(s - dp.sigma_census_b) ** 2 / (2.0 * 6))
        assert got == pytest.approx(trivial * math.prod(factors(s, u, D)))
        assert got == pytest.approx(pinned, rel=1e-9)

    def test_class_bound_outside_heights(self):
        # no tree of s edges has height 0 or above s
        s, n = 4, 10
        dp = wk.diagram_params(wk.Walk((1, 2, 3, 4, 5, 4, 3, 2, 1)), 4)
        for u in (-1, 0, s + 1):
            assert orc.bound_3_7(dp, u, 1, s, n, 2.0, 1.0, 0.25, 4) == 0.0
