"""Acceptance criteria, one test per criterion.

Each test records a single `criterion N: PASS|FAIL` line before asserting,
so a red run still shows the full scoreboard in the terminal summary.
"""

import time
from fractions import Fraction

import pytest

from wignerlab import catalan as ct
from wignerlab import oracle as orc
from wignerlab import reports
from wignerlab import sim
from wignerlab import walks as wk

from conftest import CRITERION_LINES


def report(num: int, ok: bool, detail: str = ""):
    line = "criterion %d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    CRITERION_LINES.append(line)


def test_criterion_1_worked_example():
    t0 = time.monotonic()
    traj = wk.Trajectory.from_string("5,2,7,9,7,1,2,7,9,7,2,7,2,1,7,2,5")
    walk = wk.walk_from_trajectory(traj)
    a = walk.analysis
    letter, degree = wk.max_exit_degree(walk)
    strong = wk.strong_reduce(walk)
    weak = wk.weak_reduce(walk)
    elapsed = time.monotonic() - t0
    # the reduced letter string is fully determined by the kept steps; the
    # step 2 -> 5 at position 8 follows because no step between letters 2
    # and 4 exists anywhere in the walk
    expected_reduced = (1, 2, 3, 5, 2, 3, 2, 5, 3, 2, 1)
    checks = [
        walk.letters == (1, 2, 3, 4, 3, 5, 2, 3, 4, 3, 2, 3, 2, 5, 3, 2, 1),
        a.theta_star == 4,
        (letter, degree) == (3, 5),
        strong.kept_steps == (1, 2, 5, 6, 7, 12, 13, 14, 15, 16),
        strong.letters == expected_reduced,
        weak.letters == strong.letters,
        elapsed < 1.0,
    ]
    ok = all(checks)
    report(1, ok, "%.3fs" % elapsed)
    assert ok, checks


def test_criterion_2_multi_edge_identities():
    t0 = time.monotonic()
    row = ct.multi_edge_gf_row(1, 200)
    ok = all(row[s] == s * ct.catalan(s) for s in range(1, 201))
    for l in (2, 3):
        row = ct.multi_edge_gf_row(l, 200)
        ok = ok and all(row[s] == ct.multi_edge_closed_form(l, s)
                        for s in range(l, 201))
    for s in range(1, 13):
        enum = ct.multi_edge_counts_enum(min(5, s), s)
        for l in range(1, min(5, s) + 1):
            ok = ok and enum[l - 1] == ct.multi_edge_count_gf(l, s)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(2, ok, "%.1fs" % elapsed)
    assert ok


def test_criterion_3_conjecture_grid(tmp_path):
    rows = ct.conjecture_6_25_report(10, 10)
    manifest = reports.RunManifest("count", {"l_max": 10, "s_max": 10}).start()
    out = tmp_path / "conjecture.csv"
    reports.emit_report(rows, "csv", str(out), manifest)
    ok = out.exists() and len(rows) > 0
    ok = ok and all(r["match"] for r in rows)
    ok = ok and all(r["bound_2l_s_ts_holds"] for r in rows)
    report(3, ok, "%d grid rows emitted" % len(rows))
    assert ok


def test_criterion_4_subcluster_sweeps():
    t0 = time.monotonic()
    rep61 = ct.check_lemma_6_1(300)
    ok = rep61["holds_for_d_ge_3"] and rep61["violations"] == []
    ok = ok and all(d < 3 for _, d in rep61["boundary_failures"])
    n2 = ct.check_n2_lower(300)
    ok = ok and n2["holds"] and n2["equality_at"] == [4]
    ok = ok and ct.multi_edge_count_gf(2, 4) == 28
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "%.1fs" % elapsed)
    assert ok


def test_criterion_5_oracle_closed_forms():
    ok = all(orc.exact_moment_walk(orc.make_spec(n, 1, 1)) ==
             Fraction(n - 1, 4) for n in range(2, 7))
    for s in range(1, 5):
        for rho in (Fraction(1, 2), Fraction(1), Fraction(2)):
            spec = orc.MomentSpec(2, rho, s, orc.rademacher_moments(s))
            ok = ok and orc.exact_moment_walk(spec) == \
                Fraction(1, 4) ** s * rho ** (1 - s)
    for n in range(2, 7):
        for s in range(1, 4):
            spec = orc.make_spec(n, Fraction(3, 2), s)
            ok = ok and orc.exact_moment_trajectory(spec) == \
                orc.exact_moment_walk(spec)
    report(5, ok)
    assert ok


def test_criterion_6_simulation_vs_oracle():
    t0 = time.monotonic()
    config = sim.EnsembleConfig(n=4, rho=2.0, seed=2024)
    stats = sim.estimate_moments(config, [1, 2, 3], 100000)
    ok = True
    zs = []
    for s in (1, 2, 3):
        exact = float(orc.exact_moment_walk(orc.make_spec(4, 2, s)))
        z = abs(stats[s].mean - exact) / stats[s].stderr
        zs.append("%.2f" % z)
        ok = ok and z <= 4.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(6, ok, "z=" + ",".join(zs) + ", %.1fs" % elapsed)
    assert ok


@pytest.mark.slow
def test_criterion_7_semicircle_moments():
    t0 = time.monotonic()
    n = 2000
    config = sim.EnsembleConfig(n=n, rho=float(n), seed=7)
    stats = sim.estimate_moments(config, [1, 2, 3, 4, 5], 200)
    ok = True
    errs = []
    for s in (1, 2, 3, 4, 5):
        target = ct.catalan(s) / 4.0 ** s
        rel = abs(stats[s].mean / n - target) / target
        errs.append("%.4f" % rel)
        ok = ok and rel <= 0.05
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report(7, ok, "rel=" + ",".join(errs) + ", %.0fs" % elapsed)
    assert ok


@pytest.mark.slow
def test_criterion_8_edge_moment_lower_bound():
    # report-grade: finite-size trend of the dilution-crossover lower bound;
    # the criterion never hard-fails
    t0 = time.monotonic()
    rows = sim.crossover_scan([500, 1000], [0.0], 1.0, 40, seed=8)
    details = []
    for row in rows:
        margin = row["mean_rademacher"] / row["thm_7_1_lower_bound"]
        details.append("n=%d ok=%s margin=%.2g"
                       % (row["n"], row["lower_bound_ok"], margin))
    elapsed = time.monotonic() - t0
    report(8, True, "report-grade; " + "; ".join(details)
           + ", %.0fs" % elapsed)
    assert len(rows) == 2


def test_criterion_9_structural_invariants():
    ok = True
    for s in range(1, 6):
        for w in wk.enumerate_even_walks(s):
            a = w.analysis
            ok = ok and a.is_even and sum(a.marked) == s
            ok = ok and wk.DyckPath(tuple(
                1 if m else -1 for m in a.marked)).height == a.theta_star
            # sigma = sum(kappa - 1), kappa counting the root's zero instant
            sigma = sum(map(len, a.arrival_conds.values())) + 1 - w.n_letters
            ok = ok and w.n_letters == s - sigma + 1
            for k0 in (2, 4, 12):
                ok = ok and wk.diagram_params(w, k0).census_sum == s
            exits, arrivals = wk.exit_arrival_balance(w)
            ok = ok and exits == arrivals
    count = 0
    for d in wk.all_dyck_paths(8):
        tree = wk.tree_from_dyck(d)
        ok = ok and wk.dyck_from_tree(tree) == d
        count += 1
    ok = ok and count == 1430
    report(9, ok, "%d trees round-tripped" % count)
    assert ok


def test_criterion_10_class_weight_audit(tmp_path):
    t0 = time.monotonic()
    ok = True
    rows = []
    for s in range(1, 5):
        for n in range(2, 7):
            for rec in orc.class_weight_audit(s, n, 1, 4):
                ok = ok and rec.bound_ok and rec.eq_5_15_ok
                rows.append({
                    "s": s, "n": n, "u": rec.u, "n_walks": rec.n_walks,
                    "weight": rec.weight_normalized,
                    "bound": rec.bound, "bound_ok": rec.bound_ok,
                })
    manifest = reports.RunManifest(
        "audit", {"s_max": 4, "n_max": 6, "rho": 1, "k0": 4}).start()
    out = tmp_path / "audit.csv"
    reports.emit_report(rows, "csv", str(out), manifest)
    ok = ok and out.exists()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(10, ok, "%d classes, %.1fs" % (len(rows), elapsed))
    assert ok
