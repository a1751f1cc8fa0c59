"""Command-line entry point wiring the walk, count, oracle, sim and verify
engines.

Each leaf command takes only the flags it reads: --out on every leaf,
--format on every leaf but oracle (one bare JSON line), --seed and
--threads on the sim actions, --config on sim moments and sim edge.  No
flag goes before the subcommand.  Every usage error, argparse's included,
is one ``error:`` line on stderr.

A flag is taken only as spelled: no abbreviation of it.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guardrail
refusal (with an estimate of the requested work), 4 I/O error, 5 internal
error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import Refused, reports


# The largest size argument (--s-max, --l, --l-max) each count action
# takes; a larger request refuses before any work.
COUNT_CAPS = {"catalan": 3000, "multi-edge": 600, "subcluster": 600,
              "lemma61": 1000, "conjecture": 100, "heights": 1000}


def _set_threads(value):
    """The requested BLAS thread count: --threads, else LAB_THREADS, else
    None.  0 or None leaves the BLAS defaults alone."""
    if value is None:
        env = os.environ.get("LAB_THREADS")
        if not env:
            return None
        try:
            value = int(env)
        except ValueError:
            raise ValueError("LAB_THREADS must be an integer, got %r" % env)
    if value < 0:
        raise ValueError("thread count must be >= 0, got %d" % value)
    if value:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(value)
    return value


def _parse_fraction(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad rational %r: %s" % (text, exc))


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IOError("cannot read config %r: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("config %r is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ValueError("config %r must be a flat JSON object" % path)
    return data


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which main reports on one line.
    Takes no abbreviated flag: add_parser builds every subparser with this
    class, so the default holds on each command."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise ValueError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wignerlab",
        description="Walk combinatorics, exact moments and edge-scale "
                    "experiments for dilute Wigner matrices.")
    # each leaf takes only the flags it reads, from one of these parents
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
    sampled = argparse.ArgumentParser(add_help=False, parents=[report])
    sampled.add_argument("--seed", type=int, default=0)
    sampled.add_argument("--threads", type=int,
                         help="BLAS thread count (fallback: LAB_THREADS)")
    configured = argparse.ArgumentParser(add_help=False, parents=[sampled])
    configured.add_argument("--config",
                            help="JSON config file with flat ensemble "
                                 "fields; flags override it")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_walk = sub.add_parser("walk", help="canonicalize and analyze walks")
    walk_sub = p_walk.add_subparsers(dest="action", required=True)
    p_ft = walk_sub.add_parser("from-trajectory", parents=[report],
                               help="canonical walk and its full analysis")
    p_ft.add_argument("trajectory", help="comma-separated vertex labels")
    p_ft.add_argument("--k0", type=int, default=4)
    p_cen = walk_sub.add_parser("census", parents=[report],
                                help="classification census only")
    p_cen.add_argument("trajectory")
    p_cen.add_argument("--k0", type=int, default=4)
    p_en = walk_sub.add_parser("enumerate", parents=[report],
                               help="all canonical even walks of 2s steps")
    p_en.add_argument("--s", type=int, required=True)
    p_en.add_argument("--k0", type=int, default=4)
    p_en.add_argument("--force", action="store_true",
                      help="override the enumeration size guardrail")

    p_count = sub.add_parser("count", help="exact counting tables")
    count_sub = p_count.add_subparsers(dest="action", required=True)
    p_cat = count_sub.add_parser("catalan", parents=[report])
    p_cat.add_argument("--s-max", type=int, default=30)
    p_me = count_sub.add_parser("multi-edge", parents=[report])
    p_me.add_argument("--l", type=int, required=True)
    p_me.add_argument("--s-max", type=int, required=True)
    p_me.add_argument("--check-closed-form", action="store_true")
    p_sc = count_sub.add_parser("subcluster", parents=[report])
    p_sc.add_argument("--s-max", type=int, default=30)
    p_l61 = count_sub.add_parser("lemma61", parents=[report])
    p_l61.add_argument("--s-max", type=int, default=300)
    p_cj = count_sub.add_parser("conjecture", parents=[report])
    p_cj.add_argument("--l-max", type=int, default=5)
    p_cj.add_argument("--s-max", type=int, default=60)
    p_ht = count_sub.add_parser("heights", parents=[report])
    p_ht.add_argument("--s-max", type=int, default=30)

    p_oracle = sub.add_parser("oracle", parents=[out],
                              help="exact rational trace moments")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--rho", required=True,
                          help="rational, e.g. 3/2")
    p_oracle.add_argument("--s", type=int, required=True)
    p_oracle.add_argument("--dist", choices=("rademacher", "gaussian"),
                          default="rademacher")
    p_oracle.add_argument("--method",
                          choices=("trajectory", "walk", "both"),
                          default="both")

    p_sim = sub.add_parser("sim", help="Monte Carlo spectral experiments")
    sim_sub = p_sim.add_subparsers(dest="action", required=True)

    def add_ensemble_flags(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--rho", type=float)
        sp.add_argument("--dist",
                        choices=("rademacher", "gaussian", "student"),
                        default="rademacher")
        sp.add_argument("--samples", type=int, default=100)

    p_mom = sim_sub.add_parser("moments", parents=[configured])
    add_ensemble_flags(p_mom)
    p_mom.add_argument("--s", type=int, action="append", required=True,
                       help="repeatable; Tr H^{2s} per value")
    p_mom.add_argument("--fast", action="store_true",
                       help="ignored; kept so that older command lines "
                            "still parse")
    p_edge = sim_sub.add_parser("edge", parents=[configured])
    add_ensemble_flags(p_edge)
    p_edge.add_argument("--eps", type=float,
                        help="sparsity exponent: rho = n^{2/3 (1+eps)}")
    p_edge.add_argument("--x-grid", default="-4,-2,-1,0,1,2,4",
                        help="comma-separated edge offsets")
    p_cr = sim_sub.add_parser("crossover", parents=[sampled])
    p_cr.add_argument("--n", type=int, action="append", required=True,
                      help="repeatable matrix sizes")
    p_cr.add_argument("--eps", type=float, action="append", required=True,
                      help="repeatable sparsity exponents")
    p_cr.add_argument("--chi", type=float, default=1.0)
    p_cr.add_argument("--zeta", type=float, default=1.0)
    p_cr.add_argument("--samples", type=int, default=100)

    p_ver = sub.add_parser("verify", parents=[report],
                           help="run invariant suites")
    p_ver.add_argument("suite", nargs="?", default="all",
                       choices=("all", "walks", "catalan", "oracle", "sim",
                                "cli"))
    p_ver.add_argument("--fast", action="store_true",
                       help="shrunk sweep ranges")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _emit(args, records, manifest):
    manifest.finish()
    reports.emit_report(records, args.format, args.out, manifest)


def _manifest(args, config: dict):
    return reports.RunManifest(subcommand=args.subcommand, config=config,
                               seed=getattr(args, "seed", None)).start()


def cmd_walk(args) -> int:
    from . import walks as wk
    if args.k0 < 2:
        raise ValueError("--k0 must be >= 2, got %d" % args.k0)
    if args.action == "enumerate":
        walks_iter = wk.enumerate_even_walks(
            args.s, cap=args.s if args.force else wk.DEFAULT_ENUM_CAP)
        def records():
            for walk in walks_iter:
                dp = wk.diagram_params(walk, args.k0)
                yield {"walk": walk.to_string(), "s": walk.s,
                       "n_letters": walk.n_letters,
                       "theta_star": walk.analysis.theta_star,
                       "sigma": dp.sigma,
                       "census": dp.census_key()}
        manifest = _manifest(args, {"s": args.s, "k0": args.k0})
        _emit(args, records(), manifest)
        return 0
    manifest = _manifest(args, {"trajectory": args.trajectory,
                                "k0": args.k0})
    traj = wk.Trajectory.from_string(args.trajectory)
    walk = wk.walk_from_trajectory(traj)
    a = walk.analysis
    rec = {"walk": walk.to_string(), "s": walk.s,
           "n_letters": walk.n_letters, "even": a.is_even}
    if a.is_even and not walk.has_loops:
        dp = wk.diagram_params(walk, args.k0)
        letter, degree = wk.max_exit_degree(walk)
        rec.update(json.loads(dp.to_json()))
        rec.update({"theta_star": a.theta_star,
                    "max_exit_letter": letter, "max_exit_degree": degree})
        if args.action == "from-trajectory":
            strong = wk.strong_reduce(walk)
            weak = wk.weak_reduce(walk)
            cells = wk.bts_and_cells(walk)
            rec.update({"strong_reduced": strong.to_string(),
                        "strong_removed": len(strong.removed_pairs),
                        "weak_reduced": weak.to_string(),
                        "weak_removed": len(weak.removed_pairs)})
            rec.update(json.loads(cells.to_json()))
    _emit(args, [rec], manifest)
    return 0


def _refuse_large_count(args) -> None:
    """Refused when a size argument exceeds the action's cap; the estimate
    counts the table entries the request would build."""
    m = max(args.s_max, getattr(args, "l", 0), getattr(args, "l_max", 0))
    cap = COUNT_CAPS[args.action]
    if m <= cap:
        return
    if args.action in ("catalan", "multi-edge"):
        entries = m + 1                      # one row
    elif args.action == "conjecture":
        entries = args.l_max * (m + 1)       # one row per l
    elif args.action == "heights":
        entries = (m + 1) * (m + 2) // 2     # row s holds s + 1 counts
    elif args.action == "subcluster":
        entries = 2 * (m + 1) ** 2           # two square tables
    else:
        entries = (m + 1) ** 2
    raise Refused("count %s at size %d exceeds cap %d"
                  % (args.action, m, cap), entries)


def cmd_count(args) -> int:
    from . import catalan as ct
    if args.s_max < 0:
        raise ValueError("--s-max must be >= 0, got %d" % args.s_max)
    if getattr(args, "l", 1) < 1:
        raise ValueError("--l must be >= 1, got %d" % args.l)
    if getattr(args, "l_max", 1) < 1:
        raise ValueError("--l-max must be >= 1, got %d" % args.l_max)
    # no empty table: rows start at s = 1 (multi-edge: at s = --l)
    if args.action in ("heights", "subcluster", "conjecture") \
            and args.s_max < 1:
        raise ValueError("count %s needs --s-max >= 1, got %d"
                         % (args.action, args.s_max))
    if args.action == "multi-edge" and args.s_max < args.l:
        raise ValueError("count multi-edge needs --s-max >= --l, got %d < %d"
                         % (args.s_max, args.l))
    _refuse_large_count(args)
    manifest = _manifest(args, {key: getattr(args, key) for key in (
        "l", "l_max", "s_max", "check_closed_form") if hasattr(args, key)})
    records = []
    if args.action == "catalan":
        table = ct.catalan_table_recurrence(args.s_max)
        for s in range(args.s_max + 1):
            closed = ct.catalan(s)
            records.append({"s": s, "value": table[s],
                            "closed_form": closed,
                            "match": table[s] == closed})
    elif args.action == "multi-edge":
        row = ct.multi_edge_gf_row(args.l, args.s_max)
        for s in range(args.l, args.s_max + 1):
            rec = {"s": s, "l": args.l, "value": row[s]}
            if args.check_closed_form:
                closed = ct.multi_edge_closed_form(args.l, s)
                rec["closed_form"] = closed
                rec["match"] = row[s] == closed
            records.append(rec)
    elif args.action == "subcluster":
        rec_tab = ct.root_subcluster_table(args.s_max)
        ballot = ct.root_subcluster_ballot_table(args.s_max)
        for s in range(1, args.s_max + 1):
            for d in range(1, s + 1):
                records.append({"s": s, "d": d, "value": rec_tab[s][d],
                                "closed_form": ballot[s][d],
                                "match": rec_tab[s][d] == ballot[s][d]})
    elif args.action == "lemma61":
        rep = ct.check_lemma_6_1(args.s_max)
        records.append({"s_max": args.s_max,
                        "holds_for_d_ge_3": rep["holds_for_d_ge_3"],
                        "violations": len(rep["violations"]),
                        "boundary_failures": str(rep["boundary_failures"])})
    elif args.action == "conjecture":
        records = ct.conjecture_6_25_report(args.l_max, args.s_max)
    else:  # heights
        for s in range(1, args.s_max + 1):
            for u, cnt in enumerate(ct.height_row(s)):
                if cnt:
                    records.append({"s": s, "u": u, "value": cnt,
                                    "closed_form": "",
                                    "match": ""})
    _emit(args, records, manifest)
    return 0


def cmd_oracle(args) -> int:
    from . import oracle as orc
    rho = _parse_fraction(args.rho)
    orc.refuse_over_budget(args.n, args.s, args.method)
    spec = orc.make_spec(args.n, rho, args.s, args.dist)
    value = orc.exact_moment(spec, args.method)
    payload = {"value_num": str(value.numerator),
               "value_den": str(value.denominator),
               "method_agreement": True if args.method == "both" else None}
    with reports.open_output(args.out) as stream:
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def cmd_sim(args) -> int:
    args.threads = _set_threads(args.threads)   # before numpy loads
    import dataclasses

    from . import sim
    if args.action == "crossover":
        manifest = _manifest(args, {"n": args.n, "eps": args.eps,
                                    "chi": args.chi, "zeta": args.zeta,
                                    "samples": args.samples,
                                    "threads": args.threads})
        rows = sim.crossover_scan(args.n, args.eps, args.chi, args.samples,
                                  seed=args.seed, zeta=args.zeta)
        _emit(args, rows, manifest)
        return 0
    base = _load_config_file(args.config) if args.config else {}
    flagged = [key for key in ("n", "rho", "dist", "seed") if key in base]
    if flagged:
        raise ValueError("--config must not set %s; the flags set it"
                         % ", ".join(flagged))

    def make_config(n, rho, dist):
        try:
            return sim.EnsembleConfig(n=n, rho=rho, dist=dist,
                                      seed=args.seed, **base)
        except TypeError as exc:  # an unknown --config key
            raise ValueError(str(exc))

    def ensemble_manifest(config, **fields):
        # the body depends on every resolved ensemble field, not only on
        # the flags; the seed has a manifest field of its own
        fields.update(dataclasses.asdict(config), threads=args.threads)
        del fields["seed"]
        return _manifest(args, fields)

    if args.action == "moments":
        if args.rho is None:
            raise ValueError("sim moments needs --rho")
        config = make_config(args.n, args.rho, args.dist)
        manifest = ensemble_manifest(config, s=args.s, samples=args.samples)
        est = sim.estimate_moments(config, args.s, args.samples)
        records = [{"s": s, "mean": est[s].mean, "stderr": est[s].stderr,
                    "n_samples": est[s].n_samples,
                    "min": est[s].min, "max": est[s].max}
                   for s in args.s]
        _emit(args, records, manifest)
        return 0
    # sim edge
    if (args.rho is None) == (args.eps is None):
        raise ValueError("sim edge needs exactly one of --rho / --eps")
    rho = args.rho if args.rho is not None \
        else min(sim.rho_of_eps(args.n, args.eps), float(args.n))
    config = make_config(args.n, rho, args.dist)
    try:
        xs = [float(p) for p in args.x_grid.split(",") if p]
    except ValueError as exc:
        raise ValueError("bad --x-grid: %s" % exc)
    manifest = ensemble_manifest(config, x_grid=xs, samples=args.samples)
    curve = sim.edge_tail(config, xs, args.samples)
    records = [{"x": x, "threshold": thr, "tail_prob": p,
                "stderr": e, "count": c, "n_samples": curve.n_samples}
               for x, thr, p, e, c in
               zip(curve.x_grid, curve.thresholds, curve.tail_prob,
                   curve.stderr, curve.counts)]
    manifest.counters = {"lanczos_steps": curve.lanczos_steps,
                         "lanczos_fallbacks": curve.lanczos_fallbacks}
    _emit(args, records, manifest)
    return 0


def cmd_verify(args) -> int:
    from . import verify
    manifest = _manifest(args, {"suite": args.suite, "fast": args.fast})
    if args.suite == "all":
        reports_ = verify.run_all(args.fast)
    else:
        reports_ = [verify.SUITES[args.suite](args.fast)]
    records = []
    for rep in reports_:
        for rec in rep.records():
            records.append(dict(rec, suite=rep.suite))
    manifest.timings = {check_id: round(seconds, 6) for rep in reports_
                        for check_id, seconds in rep.timings.items()}
    _emit(args, records, manifest)
    n_fail = sum(rep.n_fail for rep in reports_)
    n_pass = sum(1 for r in records if r["status"] == "pass")
    n_report = sum(1 for r in records if r["status"] == "report")
    print("verify %s: %d pass, %d fail, %d report"
          % (args.suite, n_pass, n_fail, n_report), file=sys.stderr)
    return 0 if n_fail == 0 else 1


def _approx_count(value) -> str:
    """An int or Decimal estimate in decimal while it fits in 64 bits, else
    ~10^k with k = floor(log10): str() of an int with thousands of digits
    raises."""
    if value < 2 ** 64:
        return "%d" % value
    from decimal import Decimal
    return "~10^%d" % Decimal(value).adjusted()


def main(argv=None) -> int:
    handlers = {"walk": cmd_walk, "count": cmd_count, "oracle": cmd_oracle,
                "sim": cmd_sim, "verify": cmd_verify}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.subcommand](args)
    except ValueError as exc:  # usage errors: argparse's, ours, the library's
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Refused as exc:  # before the catch-all: a RuntimeError
        print("refused: %s (estimated work: %s)"
              % (exc, _approx_count(exc.estimate)), file=sys.stderr)
        return 3
    except IOError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4
    except Exception as exc:  # a fault of the program, not of the input
        print("internal error: %s: %s" % (type(exc).__name__,
                                          str(exc).replace("\n", " ")),
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
