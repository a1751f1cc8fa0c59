"""The four workloads: fixed lists of ops, each one thing a user of the lab
runs.  See README.md for why each workload exists and which layer metric
should move which end-to-end metric.

An op is a dict:
    name      unique within the workload; keys digests.json
    kind      "cli" (argv for ``wignerlab``) or "call" (a function of child.py)
    imports   library modules the op needs before its first call
    gate      semantic gate in gates.py; params feed it
    digest    True when the body is pinned by its SHA-256
    headline  True when the op feeds items_per_s; items is its work count
    law       entry law of an oracle op, for the per-law oracle timings
    timeout   seconds before the op is killed and counted failed
"""

from __future__ import annotations

import random

from gates import EVEN_WALKS

WHY = {
    "exact_walks": "walk enumeration, census, cells and the walk-method "
                   "oracle in pure Python; numpy does no work",
    "exact_tables": "Catalan-family table routines in big-integer Python; "
                    "walks appears only through all_trees",
    "mc_dense": "sim moments at n=2000 with every mask entry present; the "
                "spectral step (eigvalsh or 3 GEMMs) dominates",
    "mc_dilute": "sim edge, crossover and many tiny n=4 samples on sparse "
                 "masks; sampling and per-sample cost dominate",
}

OP_TIMEOUT_S = 60.0

# gates of the exact ops, whose bodies do not depend on the seed
DIGEST_GATES = {"walk_rows", "oracle", "audit", "match", "conjecture",
                "lemma61", "heights"}


def _cli(name, argv, imports, gate, params=None, **extra):
    return dict(name=name, kind="cli", argv=[str(a) for a in argv],
                imports=imports, gate=gate, params=params or {}, **extra)


def _call(name, imports, gate, params, **extra):
    return dict(name=name, kind="call", call=name, imports=imports,
                gate=gate, params=params, **extra)


def exact_walks(smoke: bool, seed: int) -> list[dict]:
    s = 3 if smoke else 6
    s_both, n_both = (3, 3) if smoke else (5, 3)
    s_audit = 3 if smoke else 5
    walk_io = ["cli", "walks", "reports"]
    ops = [
        _cli("walk_enumerate", ["walk", "enumerate", "--s", s, "--k0", 4],
             walk_io, "walk_rows", {"s": s}, headline=True,
             items=EVEN_WALKS[s]),
        # the same walks again, so they count once in items_per_s
        _call("cells_and_reductions", ["walks"], "walk_rows", {"s": s},
              headline=True),
    ]
    for law in ("rademacher", "gaussian"):
        ops.append(_cli("oracle_walk_" + law,
                        ["oracle", "--method", "walk", "--s", s, "--n", 2000,
                         "--rho", 2, "--dist", law],
                        ["cli", "oracle"], "oracle", {"method": "walk"},
                        law=law))
    ops.append(_cli("oracle_both", ["oracle", "--method", "both", "--n",
                                    n_both, "--rho", 2, "--s", s_both],
                    ["cli", "oracle"], "oracle", {"method": "both"},
                    law="rademacher"))
    ops.append(_call("class_weight_audit", ["oracle"], "audit",
                     {"s": s_audit, "n": 6, "rho": 1, "k0": 4}))
    return ops


def exact_tables(smoke: bool, seed: int) -> list[dict]:
    cat, sub, ht, me, enum, l61 = ((30, 20, 20, 30, 6, 30) if smoke
                                   else (1000, 200, 200, 300, 11, 300))
    l_max, s_max = (3, 6) if smoke else (10, 10)
    count_io = ["cli", "catalan", "reports"]
    ops = [
        _cli("count_catalan", ["count", "catalan", "--s-max", cat],
             count_io, "match"),
        _cli("count_subcluster", ["count", "subcluster", "--s-max", sub],
             count_io, "match"),
        _cli("count_heights", ["count", "heights", "--s-max", ht],
             count_io, "heights", {"s_max": ht}),
        _cli("count_multi_edge", ["count", "multi-edge", "--l", 2, "--s-max",
                                  me, "--check-closed-form"],
             count_io, "match"),
        _call("multi_edge_enum_vs_gf", ["catalan"], "match", {"s_max": enum}),
        _cli("count_lemma61", ["count", "lemma61", "--s-max", l61],
             count_io, "lemma61"),
        _cli("count_conjecture", ["count", "conjecture", "--l-max", l_max,
                                  "--s-max", s_max], count_io, "conjecture"),
    ]
    # items_per_s: table rows emitted per second
    return [dict(op, headline=True, items="rows") for op in ops]


def mc_dense(smoke: bool, seed: int) -> list[dict]:
    n, samples = (300, 2) if smoke else (2000, 3)
    seeds = random.Random("mc_dense:%d" % seed)
    ops = []
    for fast in (True, False):
        argv = ["sim", "moments", "--n", n, "--rho", n, "--samples", samples,
                "--seed", seeds.randrange(2 ** 31)]
        for s in range(1, 6):
            argv += ["--s", s]
        ops.append(_cli("sim_moments" + ("_fast" if fast else ""),
                        argv + (["--fast"] if fast else []),
                        ["cli", "sim", "reports"], "semicircle", {"n": n},
                        headline=fast, items=samples))
    return ops


def mc_dilute(smoke: bool, seed: int) -> list[dict]:
    n_edge, n_cross, samples, tiny = ((60, 60, 4, 200) if smoke
                                      else (1000, 500, 20, 20000))
    x_grid = [-4, -2, 0, 2, 4]
    seeds = random.Random("mc_dilute:%d" % seed)
    sim_io = ["cli", "sim", "reports"]
    return [
        _cli("sim_edge", ["sim", "edge", "--n", n_edge, "--eps", 0.0,
                          "--samples", samples,
                          "--x-grid=" + ",".join(map(str, x_grid)),
                          "--seed", seeds.randrange(2 ** 31)],
             sim_io, "edge", {"x_grid": x_grid}, headline=True, items=samples),
        _cli("sim_crossover", ["sim", "crossover", "--n", n_cross, "--eps",
                               0.0, "--chi", 1.0, "--samples", samples,
                               "--seed", seeds.randrange(2 ** 31)],
             sim_io, "crossover", {"n": n_cross, "chi": 1.0}),
        _call("estimate_moments", ["sim"], "oracle_z",
              {"n": 4, "rho": 2.0, "s": [1, 2, 3], "samples": tiny,
               "seed": seeds.randrange(2 ** 31)}),
    ]


WORKLOADS = {"exact_walks": exact_walks, "exact_tables": exact_tables,
            "mc_dense": mc_dense, "mc_dilute": mc_dilute}


def build_ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's op list; MC seeds are drawn from the workload seed.
    Exact ops have fixed inputs, so their body digests are fixed too."""
    ops = WORKLOADS[workload](smoke, seed)
    for op in ops:
        op.setdefault("headline", False)
        op.setdefault("items", 0)
        op["digest"] = op["gate"] in DIGEST_GATES and not smoke
        op["timeout"] = OP_TIMEOUT_S
    return ops
