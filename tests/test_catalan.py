"""Unit tests for exact Catalan-family counting and the bound evaluators."""

import math

import pytest

from wignerlab import Refused
from wignerlab import catalan as ct
from wignerlab import walks as wk

FIRST_CATALANS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


# ---------------------------------------------------------------------------
# Reference: the tree census as computed before the prefix search, reading
# every Dyck word from its first step.
# ---------------------------------------------------------------------------

def ref_degree_histogram(s):
    hist = [0] * (s + 1)
    for word in wk.dyck_words(s):
        open_nodes = [0]
        for step in word:
            if step == 1:
                open_nodes[-1] += 1
                open_nodes.append(0)
            else:
                hist[open_nodes.pop()] += 1
        hist[open_nodes[0]] += 1  # the root
    return hist


def ref_multi_edge_counts_enum(l_max, s):
    hist = ref_degree_histogram(s)
    return [sum(hist[d] * math.comb(d, l) for d in range(l, s + 1))
            for l in range(1, l_max + 1)]


def ref_catalans(s_max):
    # t_0..t_{s_max} from t_{s+1} = sum_j t_j t_{s-j}, every term summed
    t = [1]
    for s in range(s_max):
        t.append(sum(t[j] * t[s - j] for j in range(s + 1)))
    return t


def ref_series_mul(a, b, order):
    # the plain product of two power series, coefficients 0..order
    return [sum(a[i] * b[k - i] for i in range(k + 1))
            for k in range(order + 1)]


class TestCatalan:
    def test_first_values(self):
        assert [ct.catalan(s) for s in range(11)] == FIRST_CATALANS

    def test_formula_vs_recurrence(self):
        assert ct.catalan_check(400)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ct.catalan(-1)


class TestSeries:
    def test_functional_equation(self):
        # f = 1 + x f^2, f from the reference recurrence
        f = ct.SeriesExact(tuple(ref_catalans(40)), 40)
        assert f.coeffs == (1,) + (f * f).coeffs[:40]


class TestRootSubcluster:
    def test_dual_methods_agree(self):
        assert ct.root_subcluster_table(200) == \
            ct.root_subcluster_ballot_table(200)

    def test_brute_force(self):
        # root degree exactly d, counted directly over plane trees
        rec = ct.root_subcluster_table(8)
        ballot = ct.root_subcluster_ballot_table(8)
        for s in range(1, 9):
            counts = {}
            for tree in wk.all_trees(s):
                d = len(tree.children)
                counts[d] = counts.get(d, 0) + 1
            for d in range(1, s + 1):
                assert rec[s][d] == ballot[s][d] == counts.get(d, 0)

    def test_geometric_bound(self):
        rep = ct.check_lemma_6_1(300)
        assert rep["holds_for_d_ge_3"]
        assert rep["violations"] == []
        assert rep["boundary_failures"] == [(1, 1)]

    def test_dominated_by_previous_catalan(self):
        assert ct.check_6_6(300)


class TestMultiEdge:
    def test_enum_matches_gf(self):
        for s in range(1, 13):
            enum = ct.multi_edge_counts_enum(min(5, s), s)
            for l in range(1, min(5, s) + 1):
                assert enum[l - 1] == ct.multi_edge_count_gf(l, s)

    @pytest.mark.parametrize("l", [1, 57, 300, 600])
    def test_gf_row_at_the_cli_cap(self, l):
        # count multi-edge takes s_max up to 600; the row is C(2s, s-l)
        assert ct.multi_edge_gf_row(l, 600) == \
            [math.comb(2 * s, s - l) if s >= l else 0 for s in range(601)]

    def test_enum_cap(self):
        # refused before any tree is built; the estimate counts the trees
        with pytest.raises(Refused) as exc:
            ct.multi_edge_counts_enum(5, 13)
        assert exc.value.estimate == ct.catalan(13) == 742_900

    def test_refused_before_any_step(self, first_nested_call):
        assert first_nested_call(ct, ct.multi_edge_counts_enum, 5, 3) \
            == ("trees_below", None)
        step, result = first_nested_call(ct, ct.multi_edge_counts_enum, 5,
                                         ct.TREE_ENUM_CAP + 1)
        assert step is None and isinstance(result, Refused)

    def test_search_matches_word_loop(self):
        for s in range(11):
            hist = ref_degree_histogram(s)
            # every node of every tree is counted once
            assert sum(hist) == (s + 1) * ct.catalan(s)
            assert ct.multi_edge_counts_enum(5, s) == \
                ref_multi_edge_counts_enum(5, s)

    def test_l_below_1_rejected(self):
        for l in (0, -1):
            with pytest.raises(ValueError):
                ct.multi_edge_gf_row(l, 5)

    def test_l1_is_s_ts(self):
        row = ct.multi_edge_gf_row(1, 200)
        for s in range(1, 201):
            assert row[s] == s * ct.catalan(s)

    def test_closed_forms(self):
        for l in (2, 3):
            row = ct.multi_edge_gf_row(l, 200)
            for s in range(l, 201):
                assert row[s] == ct.multi_edge_closed_form(l, s)

    def test_report_grid(self):
        rows = ct.conjecture_6_25_report(10, 10)
        assert all(r["match"] for r in rows)
        assert all(r["bound_2l_s_ts_holds"] for r in rows)

    def test_n2_lower_bound(self):
        rep = ct.check_n2_lower(300)
        assert rep["holds"]
        assert rep["equality_at"] == [4]
        assert ct.multi_edge_count_gf(2, 4) == 28


class TestHeights:
    def test_marginals(self):
        for s in range(1, 121):
            assert sum(ct.height_row(s)) == ct.catalan(s)

    def test_against_brute_trees(self):
        for s in range(1, 10):
            counts = {}
            for tree in wk.all_trees(s):
                counts[tree.height] = counts.get(tree.height, 0) + 1
            row = ct.height_row(s)
            for u in range(1, s + 1):
                assert row[u] == counts.get(u, 0)

    def test_extremes(self):
        for s in range(2, 31):
            row = ct.height_row(s)
            assert row[1] == 1      # the star
            assert row[s] == 1      # the path

    def test_b_s(self):
        assert ct.b_s(0.0, 30) == pytest.approx(1.0)
        vals = [ct.b_s(x, 30) for x in (0.0, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)


class TestAgainstReference:
    """The table builders against the plain routes they replaced: the
    first-subtree height recurrence, the untruncated convolution, the
    PlaneTree child-degree enumeration and the unsymmetrized recurrence."""

    @staticmethod
    def height_cum(s_max):
        # a tree of height <= u is a first subtree of height <= u-1 plus a
        # remainder of height <= u
        cum = [[0] * (s_max + 1) for _ in range(s_max + 1)]
        cum[0][0] = 1
        for u in range(1, s_max + 1):
            cum[u][0] = 1
            for s in range(1, s_max + 1):
                cum[u][s] = sum(cum[u - 1][j] * cum[u][s - 1 - j]
                                for j in range(s))
        return cum

    @staticmethod
    def subcluster_conv(s_max):
        f = ref_catalans(s_max)
        table = [[0] * (s_max + 1) for _ in range(s_max + 1)]
        power = [1] + [0] * s_max
        for d in range(1, s_max + 1):
            power = ref_series_mul(power, f, s_max)
            for s in range(d, s_max + 1):
                table[s][d] = power[s - d]
        return table

    @staticmethod
    def multi_edge_trees(l_max, s):
        def child_degrees(tree):
            out = [len(tree.children)]
            for c in tree.children:
                out.extend(child_degrees(c))
            return out

        totals = [0] * l_max
        for tree in wk.all_trees(s):
            for deg in child_degrees(tree):
                for l in range(1, min(l_max, deg) + 1):
                    totals[l - 1] += math.comb(deg, l)
        return totals

    @staticmethod
    def multi_edge_gf_literal(l, s_max):
        # 2 x^{l+1} f' f^{2l-1} + x^l f^{2l} term by term, f = 1 + x f^2
        t = ref_catalans(s_max + 1)
        f = t[:s_max + 1]
        fp = [(k + 1) * t[k + 1] for k in range(s_max + 1)]
        power = [1] + [0] * s_max
        for _ in range(2 * l - 1):
            power = ref_series_mul(power, f, s_max)
        fp_power, power = (ref_series_mul(fp, power, s_max),
                           ref_series_mul(power, f, s_max))
        return [(2 * fp_power[s - l - 1] if s > l else 0)
                + (power[s - l] if s >= l else 0) for s in range(s_max + 1)]

    @staticmethod
    def height_exact(cum, s):
        # trees of s edges with height exactly u, u = 0..s
        return [cum[0][s]] + [cum[u][s] - cum[u - 1][s]
                              for u in range(1, s + 1)]

    def test_heights(self):
        cum = self.height_cum(60)
        for s in range(61):
            assert ct.height_row(s) == self.height_exact(cum, s)

    @pytest.mark.parametrize("s", [1, 7, 30])
    def test_b_s(self, s):
        # the same sum, term by term, over the reference counts
        ts = ct.catalan(s)
        scale = 1.5 / math.sqrt(s)
        expect = 0.0
        for u, cnt in enumerate(self.height_exact(self.height_cum(s), s)):
            if cnt:
                expect += cnt / ts * math.exp(scale * u)
        assert ct.b_s(1.5, s) == expect

    def test_subcluster_convolution(self):
        # the ballot formula equals [x^{s-d}] f^d by plain series products
        for s_max in (0, 1, 2, 80):
            assert ct.root_subcluster_ballot_table(s_max) == \
                self.subcluster_conv(s_max)

    def test_multi_edge_gf_row(self):
        # the one series power against the literal generating function
        for l in range(1, 9):
            for s_max in (0, l - 1, l, 80):
                assert ct.multi_edge_gf_row(l, s_max) == \
                    self.multi_edge_gf_literal(l, s_max)

    def test_multi_edge_enumeration(self):
        for s in range(1, 11):
            for l_max in (1, min(5, s), s):
                assert ct.multi_edge_counts_enum(l_max, s) == \
                    self.multi_edge_trees(l_max, s)

    def test_catalan_recurrence(self):
        # f = 1 + x f^2, coefficient by coefficient
        assert ct.catalan_table_recurrence(400) == ref_catalans(400)


class TestBounds:
    def test_pow_fact(self):
        assert ct._pow_fact(2.0, 3) == pytest.approx(8.0 / 6.0)
        assert ct._pow_fact(123.0, 0) == 1.0

    def test_trivial_class_bound(self):
        # the all-zero census at height u reduces to V2^s * theta_u(s) * exp
        s, n = 4, 10
        dp = wk.diagram_params(wk.Walk((1, 2, 3, 4, 5, 4, 3, 2, 1)), 4)
        got = ct.bound_3_7(dp, 4, 1, s, n, 2.0, 1.0, 0.25, 4)
        expect = 0.25 ** s * ct.height_row(s)[4] \
            * math.exp(-(s - 0) ** 2 / (2.0 * n))
        assert got == pytest.approx(expect)

    def test_class_bound_outside_heights(self):
        # no tree of s edges has height 0 or above s
        s, n = 4, 10
        dp = wk.diagram_params(wk.Walk((1, 2, 3, 4, 5, 4, 3, 2, 1)), 4)
        for u in (-1, 0, s + 1):
            assert ct.bound_3_7(dp, u, 1, s, n, 2.0, 1.0, 0.25, 4) == 0.0
