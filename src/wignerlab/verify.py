"""Verification suites: every module invariant as an addressable check.

Each suite is a generator of check records, {"check", "status",
"detail"} dicts with status pass/fail/report; report-grade checks describe
finite-size trends and never fail a run.  run times each record and tags
it with its suite.
The fast flag shrinks sweep ranges for quick smoke runs; the full ranges
match the module contracts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import time
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from . import ENTRY_LAWS
from . import walks as wk
from . import catalan as ct
from . import oracle as orc
from . import sim
from . import reports


def check(check_id: str, ok: bool, detail: str = "",
          report_grade: bool = False) -> dict:
    status = "report" if report_grade else "pass" if ok else "fail"
    return {"check": check_id, "status": status, "detail": detail}


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def walks_suite(fast: bool = False) -> Iterator[dict]:
    s_enum = 4 if fast else 5

    rng = random.Random(20240824)
    ok = True
    for _ in range(50 if fast else 300):
        n = rng.randint(2, 6)
        s = rng.randint(1, 4)
        steps = [rng.randint(1, n) for _ in range(2 * s)]
        traj = wk.Trajectory(tuple(steps), n)
        w1 = wk.walk_from_trajectory(traj)
        w2 = wk.walk_from_trajectory(
            wk.Trajectory(w1.letters[:-1], max(w1.letters)))
        ok = ok and w1 == w2
    yield check("walks.canonical_idempotence", ok)

    pairs = [(1, 7), (2, 5)] if fast else [(1, 7), (2, 5), (3, 5)]
    ok = True
    detail = []
    for s, n in pairs:
        by_walk: Counter = Counter()
        non_even = 0
        for steps in itertools.product(range(1, n + 1), repeat=2 * s):
            w = wk.walk_from_trajectory(wk.Trajectory(steps, n))
            if w.has_loops or not w.analysis.is_even:
                non_even += 1
            else:
                by_walk[w] += 1
        ok = ok and all(wk.class_size(w, n) == c for w, c in by_walk.items())
        even_walks = {w for w in wk.enumerate_even_walks(s) if wk.class_size(w, n)}
        ok = ok and set(by_walk) == even_walks
        ok = ok and sum(by_walk.values()) + non_even == n ** (2 * s)
        detail.append("s=%d n=%d classes=%d" % (s, n, len(by_walk)))
    yield check("walks.partition_property", ok, "; ".join(detail))

    ok_marked = ok_vertex = ok_census = ok_reduce = ok_balance = ok_cells = True
    for s in range(1, s_enum + 1):
        for w in wk.enumerate_even_walks(s):
            a = w.analysis
            ok_marked = ok_marked and a.is_even and sum(a.marked) == s \
                and wk.DyckPath(tuple([1 if m else -1 for m in a.marked])
                                ).height == a.theta_star
            # sigma = sum(kappa - 1), kappa counting the root's zero instant
            sigma = len(a.marked_steps) + 1 - w.n_letters
            ok_vertex = ok_vertex and sigma == s - w.n_letters + 1 \
                and sum(a.pair_multiplicity.values()) == 2 * s
            root_return = any(head == 1 for _, head, _, _ in a.marked_steps)
            for k0 in (2, 4, 12):
                dp = wk.diagram_params(w, k0)
                ok_census = ok_census and dp.census_sum == s \
                    and dp.sigma == s - w.n_letters + 1 \
                    and dp.sigma_census_b + root_return == dp.sigma
            red = wk.strong_reduce(w)
            ok_reduce = ok_reduce and \
                len(red.kept_steps) == 2 * s - 2 * len(red.removed_pairs)
            if red.kept_steps:
                kept_mult = Counter(
                    frozenset((w.letters[t - 1], w.letters[t]))
                    for t in red.kept_steps)
                ok_reduce = ok_reduce and red.letters[0] == red.letters[-1] \
                    and all(m % 2 == 0 for m in kept_mult.values())
            exits, arrivals = wk.exit_arrival_balance(w)
            ok_balance = ok_balance and exits == arrivals
            ok_cells = ok_cells and wk.bts_and_cells(w).verified
    yield check("walks.marked_count_dyck", ok_marked, "s <= %d" % s_enum)
    yield check("walks.vertex_count_identity", ok_vertex, "s <= %d" % s_enum)
    yield check("walks.census_identity", ok_census,
                "k0 in {2,4,12}, s <= %d" % s_enum)
    yield check("walks.reduction_soundness", ok_reduce, "s <= %d" % s_enum)
    yield check("walks.exit_arrival_balance", ok_balance, "s <= %d" % s_enum)
    yield check("walks.cell_report_consistency", ok_cells, "s <= %d" % s_enum)

    s_bij = 6 if fast else 8
    ok = True
    count = 0
    for d in wk.all_dyck_paths(s_bij):
        tree = wk.tree_from_dyck(d)
        ok = ok and wk.dyck_from_tree(tree) == d \
            and tree.height == d.height and tree.edge_count == s_bij
        count += 1
    ok = ok and count == ct.catalan(s_bij)
    yield check("walks.dyck_tree_bijection", ok,
                "s=%d, %d paths" % (s_bij, count))

    ok = wk.strong_reduce(wk.Walk((1, 2, 3, 4, 3, 2, 1))).is_empty \
        and wk.strong_reduce(wk.Walk((1, 2, 1, 3, 1))).is_empty
    yield check("walks.tree_type_reduces_empty", ok)


# ---------------------------------------------------------------------------
# catalan
# ---------------------------------------------------------------------------

def catalan_suite(fast: bool = False) -> Iterator[dict]:
    s_cat = 300 if fast else 2000
    yield check("catalan.formula_vs_recurrence",
                all(row["match"] for row in ct.catalan_rows(s_cat)),
                "s <= %d" % s_cat)

    # the count subcluster rows, one pass for both checks
    s_sub = 120 if fast else 500
    t = ct.catalan_table_recurrence(s_sub)
    dual = bound = True
    for row in ct.subcluster_rows(s_sub):
        dual = dual and row["match"]
        bound = bound and row["value"] <= t[row["s"] - 1]
    yield check("catalan.subcluster_dual", dual, "s <= %d" % s_sub)
    yield check("catalan.subcluster_bound_6_6", bound, "s <= %d" % s_sub)

    (rep61,) = ct.lemma61_rows(300)
    yield check("catalan.lemma_6_1", rep61["holds_for_d_ge_3"],
                "boundary failures at %s" % rep61["boundary_failures"])

    s_enum = 9 if fast else 12
    ok = True
    for s in range(1, s_enum + 1):
        enum_counts = ct.multi_edge_counts_enum(min(5, s), s)
        for l in range(1, min(5, s) + 1):
            ok = ok and enum_counts[l - 1] == ct.multi_edge_count_gf(l, s)
    yield check("catalan.multi_edge_enum_vs_gf", ok,
                "l <= 5, s <= %d" % s_enum)

    ok = all(row["match"] for l in (2, 3)
             for row in ct.multi_edge_rows(l, 200, check_closed_form=True))
    yield check("catalan.closed_forms_l2_l3", ok, "s <= 200")

    n2 = ct.check_n2_lower(300)
    yield check("catalan.n2_lower_bound",
                n2["holds"] and n2["equality_at"] == [4],
                "equality at %s" % n2["equality_at"])

    s_ht = 150 if fast else 500
    ok = all(sum(ct.height_row(s)) == ct.catalan(s)
             for s in range(1, s_ht + 1))
    yield check("catalan.height_marginals", ok, "s <= %d" % s_ht)

    ok = True
    for s in range(1, 11):
        brute = Counter(tree.height for tree in wk.all_trees(s))
        ok = ok and ct.height_row(s) == [brute[u] for u in range(s + 1)]
    yield check("catalan.height_vs_brute", ok, "s <= 10")

    xs = [0.0, 0.5, 1.0, 2.0, 4.0]
    vals = [ct.b_s(x, 30) for x in xs]
    yield check("catalan.b_s_monotone",
                all(a <= b for a, b in zip(vals, vals[1:])),
                "s=30 grid %s" % xs)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def oracle_suite(fast: bool = False) -> Iterator[dict]:
    ok = all(orc.exact_moment_walk(orc.make_spec(n, 1, 1)) ==
             Fraction(n - 1, 4) for n in range(2, 7))
    yield check("oracle.m2_closed_form", ok, "n in 2..6")

    ok = True
    for s in range(1, 5):
        for rho in (Fraction(1, 2), Fraction(1), Fraction(2)):
            got = orc.exact_moment_walk(orc.make_spec(2, rho, s))
            ok = ok and got == Fraction(1, 4) ** s * rho ** (1 - s)
    yield check("oracle.n2_closed_form", ok, "s <= 4, rho in {1/2,1,2}")

    # trajectory counts per multiplicity tuple, before any law
    grid = [(n, s) for n in range(2, 5 if fast else 7) for s in range(1, 4)]
    grid += [(4, 4)] if fast else [(4, 4), (4, 5), (3, 6)]
    ok = all(orc.trajectory_shapes(n, s) ==
             orc.walk_shapes(n, wk.shape_table(s)) for n, s in grid)
    yield check("oracle.dual_method", ok, "grid %s" % (grid,))

    c = Fraction(3)
    spec = orc.make_spec(4, 2, 3)
    scaled = orc.MomentSpec(4, Fraction(2), 3, tuple(
        c ** (2 * l) * m for l, m in enumerate(spec.moments, start=1)))
    ok = orc.exact_moment_walk(scaled) == \
        c ** 6 * orc.exact_moment_walk(spec)
    yield check("oracle.scaling_law", ok, "H -> 3H at n=4, s=3")

    # walks with s - l pairs of multiplicity 2 and one of 2l against N^(l)_s
    # by Miller's route; l = 1 are the trees, C_s = N^(1)_s / s
    s_me = 6 if fast else 7
    ok = True
    for s in range(1, s_me + 1):
        table = {row[:2]: row[2] for row in wk.shape_table(s)}
        ok = ok and all(
            table.get((s + 2 - l, (2,) * (s - l) + (2 * l,)), 0)
            * (s if l == 1 else 1) == ct.multi_edge_gf_row(l, s)[s]
            for l in range(1, s + 1))
    yield check("oracle.multi_edge_classes", ok,
                "1 <= l <= s <= %d, %d cases" % (s_me, s_me * (s_me + 1) // 2))

    base = orc.MomentSpec(4, Fraction(2), 2,
                          (Fraction(1, 4), Fraction(1, 16)))
    bigger = orc.MomentSpec(4, Fraction(2), 2,
                            (Fraction(1, 4), Fraction(3, 16)))
    yield check("oracle.v4_monotonicity",
                orc.exact_moment_walk(bigger) > orc.exact_moment_walk(base),
                "M_4 at n=4")

    ok = all(orc.insertion_lower_bound_ok(s, mu2, M)
             for s in range(2, 13) for mu2 in range(0, s // 2 + 1)
             for M in range(mu2, s // 2 + 1))
    yield check("oracle.insertion_bound", ok, "s <= 12")

    # at rho = 1/2 a class past k0 weighs more than its bound without the
    # nu_bar factor; at rho = 1 it does not
    s_aud = 3 if fast else 5
    ok = True
    for s in range(1, s_aud + 1):
        for n in range(2, 7):
            for rho in (Fraction(1, 2), 1):
                recs = orc.class_weight_audit(s, n, rho, 4)
                ok = ok and all(r.bound_ok and r.eq_5_15_ok for r in recs)
    yield check("oracle.class_weight_audit", ok,
                "s <= %d, n <= 6, rho in {1/2,1}, k0=4" % s_aud)


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def sim_suite(fast: bool = False) -> Iterator[dict]:
    cfg = sim.EnsembleConfig(n=16, rho=4.0, seed=99)
    h1 = sim.sample_matrix(cfg, 3)
    h2 = sim.sample_matrix(cfg, 3)
    yield check("sim.determinism", np.array_equal(h1, h2))
    yield check("sim.symmetry_diag",
                np.array_equal(h1, h1.T) and not np.any(np.diag(h1)))

    n = 200
    cfg = sim.EnsembleConfig(n=n, rho=10.0, seed=1)
    chunks = []
    for k in range(10 if fast else 50):
        h = sim.sample_matrix(cfg, k)
        iu = np.triu_indices(n, 1)
        chunks.append(h[iu] ** 2)
    vals = np.concatenate(chunks)
    target = cfg.v ** 2 / n
    z = (vals.mean() - target) / (vals.std(ddof=1) / math.sqrt(vals.size))
    yield check("sim.entry_second_moment", abs(z) <= 4.0,
                "%d draws, z=%.2f" % (vals.size, z))

    samples = 20000 if fast else 100000
    ok = True
    details = []
    for dist in ENTRY_LAWS:
        cfg = sim.EnsembleConfig(n=4, rho=2.0, dist=dist, seed=3)
        stats = sim.estimate_moments(cfg, [1, 2, 3], samples)
        for s in (1, 2, 3):
            exact = float(orc.exact_moment_walk(orc.make_spec(4, 2, s, dist)))
            z = (stats[s].mean - exact) / stats[s].stderr
            ok = ok and abs(z) <= 4.0
            details.append("%s s=%d z=%.2f" % (dist, s, z))
    yield check("sim.oracle_consistency", ok, ", ".join(details))

    ok = True
    cfg = sim.EnsembleConfig(n=32, rho=8.0, seed=7)
    spectra = np.concatenate(list(sim.sample_spectra(cfg, 20)))
    for k, eig in enumerate(spectra):
        tr = float(np.sum(eig ** 2))
        frob = float(np.sum(sim.sample_matrix(cfg, k) ** 2))
        ok = ok and (frob == 0 or abs(tr - frob) <= 1e-10 * frob)
    yield check("sim.trace_identity", ok, "20 samples, n=32")

    cfg = sim.EnsembleConfig(n=64, rho=16.0, seed=21)
    a = sim.estimate_moments(cfg, [1, 2, 3, 4, 5], 10)
    hs = [sim.sample_matrix(cfg, k) for k in range(10)]
    ok = True
    for s in (1, 2, 3, 4, 5):
        ref = float(np.mean([np.trace(np.linalg.matrix_power(h, 2 * s))
                             for h in hs]))
        ok = ok and abs(a[s].mean - ref) <= 1e-8 * max(1.0, abs(a[s].mean))
    yield check("sim.trace_powers_vs_eig", ok, "n=64, s <= 5")

    cfg = sim.EnsembleConfig(n=100, rho=20.0, seed=5)
    curve = sim.edge_tail(cfg, [-5.0, -1.0, 0.0, 2.0, 10.0, 50.0],
                          200 if fast else 1000)
    ok = all(b <= a for a, b in zip(curve.tail_prob, curve.tail_prob[1:]))
    ok = ok and all(0.0 <= p <= 1.0 for p in curve.tail_prob)
    ok = ok and curve.tail_prob[0] >= 0.99
    yield check("sim.edge_tail_monotone", ok,
                "tail=%s" % (curve.tail_prob,))

    cfg = sim.EnsembleConfig(n=50, rho=10.0, dist="student", df=14.0,
                             delta=sim.default_delta(0.5, 1.0), seed=9)
    h = sim.sample_matrix(cfg, 0)
    yield check("sim.student_truncation_path",
                np.array_equal(h, h.T) and np.isfinite(h).all())

    n = 1000
    cfg = sim.EnsembleConfig(n=n, rho=n ** (2.0 / 3.0), seed=17)
    scale = 2.0 * cfg.v * n ** (-2.0 / 3.0)
    eig, worst = [], 0.0
    for k, block in enumerate(sim.sample_blocks(cfg, 4)):
        eig.append(float(np.max(np.abs(np.linalg.eigvalsh(block)))))
        value, _ = sim.lanczos_lambda_max(block[0], sim.lanczos_start(cfg, k),
                                          2.0 * cfg.v)
        worst = max(worst, math.inf if value is None
                    else abs(value - eig[k]) / scale)
    curve = sim.edge_tail(cfg, [-2.0, -1.0, 0.0, 1.0, 2.0], len(eig))
    want = [sum(lam > thr for lam in eig) for thr in curve.thresholds]
    yield check("sim.lanczos_vs_eig",
                worst <= 1e-9 and list(curve.counts) == want,
                "n=%d, %d samples: max |error| %.1e edge scales, counts %s "
                "vs %s" % (n, len(eig), worst, list(curve.counts), want))

    if not fast:
        curves = []
        for eps in (0.3, 0.5):
            rho = n ** (2.0 / 3.0 * (1.0 + eps))
            cfg = sim.EnsembleConfig(n=n, rho=min(rho, float(n)), seed=13)
            curves.append(sim.edge_tail(cfg, [-2.0, 0.0, 2.0], 60))
        agree = all(
            abs(p1 - p2) <= 3.0 * math.hypot(e1, e2) + 1e-9
            for p1, e1, p2, e2 in zip(curves[0].tail_prob, curves[0].stderr,
                                      curves[1].tail_prob, curves[1].stderr))
        yield check("sim.edge_universality_eps", agree,
                    "eps 0.3 vs 0.5 at n=%d: %s vs %s"
                    % (n, curves[0].tail_prob, curves[1].tail_prob),
                    report_grade=True)


# ---------------------------------------------------------------------------
# cli-level determinism
# ---------------------------------------------------------------------------

def cli_suite(fast: bool = False) -> Iterator[dict]:
    # the writer every command uses, on stdout, twice
    recs = [{"s": s, "value": Fraction(1, 4) ** s} for s in range(1, 6)]
    bodies = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            reports.emit_report(recs, "csv", None, {})
        bodies.append(out.getvalue().split("\n", 1)[1])
    yield check("cli.csv_determinism",
                bodies[0] == bodies[1] and "1/4" in bodies[0])


SUITES = {
    "walks": walks_suite,
    "catalan": catalan_suite,
    "oracle": oracle_suite,
    "sim": sim_suite,
    "cli": cli_suite,
}


def run(suite: str, fast: bool = False) -> Iterator[tuple[float, dict]]:
    """(seconds, record) for each check of the named suite, the record
    tagged with its suite; the seconds run from the suite's previous check,
    or from the suite's start."""
    last = time.perf_counter()
    for record in SUITES[suite](fast):
        now = time.perf_counter()
        yield now - last, dict(record, suite=suite)
        last = now
