"""Command-line entry point wiring the walk, count, oracle, sim and verify
engines.

Each leaf command takes only the flags it reads: --out on every leaf,
--format on every leaf but oracle (one bare JSON line), --seed and
--threads on the sim actions, --config on sim moments and sim edge.  No
flag goes before the subcommand.  Every usage error, argparse's included,
is one ``error:`` line on stderr.

A flag is taken only as spelled, and no flag overrides a guardrail.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guardrail
refusal (with an estimate of the requested work), 4 I/O error, 5 internal
error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import ENTRY_LAWS, Refused, reports


def _set_threads(value):
    """Writes the BLAS thread count --threads asks for; 0 or None leaves the
    BLAS defaults alone.  A count outside 0..os.cpu_count() is refused
    before any BLAS variable is written."""
    cpus = os.cpu_count() or 1
    if value is not None and not 0 <= value <= cpus:
        raise ValueError("thread count must be in 0..%d (the CPU count), "
                         "got %d" % (cpus, value))
    if value:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(value)


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
                         help="BLAS thread count")
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
        sp.add_argument("--dist", choices=tuple(ENTRY_LAWS),
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
    manifest["finished"] = reports.utc_now()
    reports.emit_report(records, args.format, args.out, manifest)


def _manifest(args, config: dict):
    return reports.run_manifest(args.subcommand, config,
                                getattr(args, "seed", None))


def cmd_walk(args) -> int:
    from . import walks as wk
    if args.k0 < 2:
        raise ValueError("--k0 must be >= 2, got %d" % args.k0)
    if args.action == "enumerate":
        def records():
            for walk in wk.enumerate_even_walks(args.s):
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
        rec.update(dp.as_dict())
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
            rec.update(cells.as_dict())
    _emit(args, [rec], manifest)
    return 0


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
    config = {key: getattr(args, key) for key in (
        "l", "l_max", "s_max", "check_closed_form") if hasattr(args, key)}
    manifest = _manifest(args, config)
    # refused past the action's cap; the one-row tables (catalan,
    # multi-edge) are built on the call, between the two stamps
    rows = {"catalan": ct.catalan_rows, "multi-edge": ct.multi_edge_rows,
            "subcluster": ct.subcluster_rows, "lemma61": ct.lemma61_rows,
            "conjecture": ct.conjecture_rows,
            "heights": ct.heights_rows}[args.action](**config)
    _emit(args, rows, manifest)
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
    _set_threads(args.threads)   # before numpy loads
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
    manifest["counters"] = {"lanczos_steps": curve.lanczos_steps,
                            "lanczos_fallbacks": curve.lanczos_fallbacks}
    _emit(args, records, manifest)
    return 0


def cmd_verify(args) -> int:
    from . import verify
    manifest = _manifest(args, {"suite": args.suite, "fast": args.fast})
    names = verify.SUITES if args.suite == "all" else [args.suite]
    timed = [pair for name in names for pair in verify.run(name, args.fast)]
    records = [record for _, record in timed]
    manifest["timings"] = {record["check"]: round(seconds, 6)
                           for seconds, record in timed}
    _emit(args, records, manifest)
    counts = Counter(record["status"] for record in records)
    print("verify %s: %d pass, %d fail, %d report"
          % (args.suite, counts["pass"], counts["fail"], counts["report"]),
          file=sys.stderr)
    return 1 if counts["fail"] else 0


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
