"""wignerlab benchmark: run one workload's op list and print its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload exact_walks --seed 1 --seconds 20 --trace 0

Each op runs in a fresh Python process, issued serially: a closed loop with
one client.  The op list is repeated while the next pass fits in --seconds
(at least once), and every metric is the median over those passes.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics from the traced ones.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

    --smoke            every op at toy sizes, without body digests
    --record-digests   rerun the exact ops and rewrite digests.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
# No op runs past this many seconds after the start, so that a run with a
# hanging op still ends within 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}

PER_LAYER = {
    "walks.enumerate_s": "s", "walks.label_steps_s": "s",
    "walks.diagram_params_s": "s", "walks.bts_and_cells_s": "s",
    "walks.reduce_s": "s", "walks.label_steps_calls_per_walk": "count",
    "walks.walk_graph_calls_per_walk": "count",
    "walks.walks_enumerated": "count", "walks.all_trees_s": "s",
    "walks.plane_trees_built": "count",
    "oracle.walk_method_rademacher_s": "s",
    "oracle.walk_method_gaussian_s": "s", "oracle.trajectory_method_s": "s",
    "oracle.audit_s": "s", "oracle.walk_weight_calls": "count",
    "oracle.trajectories_scanned": "count",
    "oracle.trajectory_useful_ratio": "ratio",
    "catalan.catalan_check_s": "s", "catalan.subcluster_rec_s": "s",
    "catalan.subcluster_conv_s": "s", "catalan.height_table_s": "s",
    "catalan.multi_edge_enum_s": "s", "catalan.multi_edge_gf_s": "s",
    "catalan.multi_edge_gf_row_s": "s", "catalan.series_mul_calls": "count",
    "catalan.height_useful_ratio": "ratio",
    "sim.spectral_ms": "ms", "sim.spectral_1t_ms": "ms",
    "sim.spectral_s": "s", "sim.sample_ms": "ms", "sim.sample_s": "s",
    "sim.gemm_gflop_computed": "GFLOP", "sim.bytes_moved_computed": "MB",
    "sim.mask_density": "ratio", "sim.samples_drawn": "count",
    "sim.blas_threads": "count",
    "reports.rows": "count", "reports.emit_s": "s",
    "reports.rows_per_s": "1/s",
    "bench.self_s": "s", "cli.self_s": "s", "walks.self_s": "s",
    "catalan.self_s": "s", "oracle.self_s": "s", "sim.self_s": "s",
    "reports.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

LAYER_SELF = ("bench", "cli", "walks", "catalan", "oracle", "sim", "reports")
# sim functions whose self time is the spectral step (eigvalsh or GEMMs)
SPECTRAL = ("sim.sample_spectra", "sim.estimate_trace_moments_fast",
            "sim.trace_power_and_lambda_max")


class Runner:
    """Runs ops in child processes under one scratch directory."""

    def __init__(self, workdir: str, threads: int, digests: dict):
        self.workdir = workdir
        self.threads = threads
        self.digests = digests
        self.count = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # set before the child starts: --threads cannot change BLAS threads
        # once numpy is imported
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(threads)
        return env

    def probe(self) -> dict:
        out = subprocess.run([sys.executable, CHILD, "--probe"],
                             env=self.env(self.threads), capture_output=True,
                             text=True, timeout=60, check=True)
        return json.loads(out.stdout)

    def run_op(self, op: dict, traced: bool, threads: int = 0) -> dict:
        """Run one op; never raises for a failing op, only reports it."""
        self.count += 1
        base = os.path.join(self.workdir, "%04d_%s" % (self.count, op["name"]))
        spec = dict(op, trace=traced, out=base + ".body")
        with open(base + ".spec", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        res = {"name": op["name"], "op": op, "traced": traced, "error": "",
               "out": spec["out"]}
        timeout = min(op["timeout"], self.deadline - time.perf_counter())
        if timeout <= 0:
            res["error"] = "not run: the run's deadline has passed"
            return res
        with open(base + ".err", "w", encoding="utf-8") as err:
            # perf_counter is CLOCK_MONOTONIC, shared with the child
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, base + ".spec", base + ".result"],
                env=self.env(threads or self.threads),
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                res["error"] = "timeout after %.0f s" % timeout
                return res
        try:
            with open(base + ".result", encoding="utf-8") as fh:
                out = json.load(fh)
        except (OSError, ValueError):
            with open(base + ".err", encoding="utf-8") as fh:
                tail = fh.read()[-300:]
            res["error"] = "exit %s, no result: %s" % (proc.returncode, tail)
            return res
        res.update(setup=out["ready"] - spawned, wall=out["end"] - out["ready"],
                   maxrss_mb=out["maxrss_kb"] / 1024.0,
                   spans=out.get("spans", {}), extras=out.get("extras", {}))
        if out["exit"] != 0:
            res["error"] = "exit %s %s" % (out["exit"], out["error"])
            return res
        try:
            with open(spec["out"], encoding="utf-8") as fh:
                body = fh.read()
        except OSError as exc:
            res["error"] = "no body: %s" % exc
            return res
        res["rows"] = len(gates.body_rows(body)) if op["items"] == "rows" else 0
        res["error"] = gates.check(op, body, self.digests)
        res["digest"] = gates.digest(body)
        return res


# -- metrics ------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def pass_metrics(results: list[dict]) -> dict:
    """End-to-end figures of one pass over the op list."""
    done = [r for r in results if "wall" in r]
    head = [r for r in done if r["op"]["headline"]]
    items = sum(r.get("rows", 0) if r["op"]["items"] == "rows"
                else r["op"]["items"]
                for r in head)
    head_wall = sum(r["wall"] for r in head)
    return {"wall_s": sum(r["wall"] for r in done),
            "items_per_s": items / head_wall if head_wall else 0.0,
            "peak_rss_mb": max((r["maxrss_mb"] for r in done), default=0.0)}


def _merge(results: list[dict]) -> dict:
    agg: dict[str, dict] = {}
    for r in results:
        for name, rec in r.get("spans", {}).items():
            into = agg.setdefault(name, dict.fromkeys(rec, 0))
            for key, value in rec.items():
                into[key] += value
    return agg


def layer_metrics(results: list[dict], blas_threads: int) -> dict:
    """Per-layer figures of one traced pass."""
    agg = _merge(results)

    def get(name, key="incl_s"):
        return agg.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    extras: dict[str, float] = {}
    for r in results:
        for key, value in r.get("extras", {}).items():
            extras[key] = extras.get(key, 0) + value
    m = {}
    walks = get("walks.enumerate_even_walks", "yields")
    m["walks.enumerate_s"] = get("walks.enumerate_even_walks")
    m["walks.label_steps_s"] = get("walks.label_steps")
    m["walks.diagram_params_s"] = get("walks.diagram_params")
    m["walks.bts_and_cells_s"] = get("walks.bts_and_cells")
    m["walks.reduce_s"] = get("walks.strong_reduce") + get("walks.weak_reduce")
    m["walks.label_steps_calls_per_walk"] = ratio(
        get("walks.label_steps", "calls"), walks)
    m["walks.walk_graph_calls_per_walk"] = ratio(
        get("walks.walk_graph", "calls"), walks)
    m["walks.walks_enumerated"] = walks
    m["walks.all_trees_s"] = get("walks.all_trees")
    m["walks.plane_trees_built"] = get("walks.all_trees", "yields")

    for law in ("rademacher", "gaussian"):
        m["oracle.walk_method_%s_s" % law] = sum(
            r["spans"].get("oracle.exact_moment_walk", {}).get("incl_s", 0)
            for r in results if r["op"].get("law") == law and "spans" in r)
    m["oracle.trajectory_method_s"] = get("oracle.exact_moment_trajectory")
    m["oracle.audit_s"] = get("oracle.class_weight_audit")
    m["oracle.walk_weight_calls"] = get("oracle.walk_weight", "calls")
    m["oracle.trajectories_scanned"] = extras.get("trajectories_scanned", 0)
    m["oracle.trajectory_useful_ratio"] = ratio(
        extras.get("trajectories_useful", 0),
        extras.get("trajectories_scanned", 0))

    m["catalan.catalan_check_s"] = (
        get("catalan.catalan_table_recurrence", "top_s")
        + get("catalan.catalan", "top_s"))
    m["catalan.subcluster_rec_s"] = get("catalan.root_subcluster_table")
    m["catalan.subcluster_conv_s"] = get("catalan.root_subcluster_conv_table")
    m["catalan.height_table_s"] = get("catalan.height_table")
    m["catalan.multi_edge_enum_s"] = get("catalan.multi_edge_counts_enum")
    m["catalan.multi_edge_gf_s"] = get("catalan.multi_edge_count_gf")
    m["catalan.multi_edge_gf_row_s"] = get("catalan.multi_edge_gf_row")
    m["catalan.series_mul_calls"] = get("catalan.SeriesExact.__mul__", "calls")
    m["catalan.height_useful_ratio"] = ratio(
        extras.get("height_cells_useful", 0),
        extras.get("height_cells_filled", 0))

    # per-sample figures come from the headline sim op alone
    head = [r for r in results if r["op"]["headline"]]
    m["sim.spectral_ms"], m["sim.sample_ms"] = per_sample_ms(head)
    m["sim.spectral_1t_ms"] = 0.0  # filled in from the 1-thread baseline
    m["sim.spectral_s"] = sum(get(n, "self_s") for n in SPECTRAL)
    m["sim.sample_s"] = get("sim.sample_matrix", "self_s")
    m["sim.gemm_gflop_computed"] = extras.get("gemm_flop", 0) / 1e9
    m["sim.bytes_moved_computed"] = extras.get("gemm_bytes", 0) / 1e6
    densities = [r["extras"]["mask_density"] for r in head
                 if "mask_density" in r.get("extras", {})]
    m["sim.mask_density"] = ratio(sum(densities), len(densities))
    m["sim.samples_drawn"] = get("sim.sample_matrix", "calls")
    m["sim.blas_threads"] = blas_threads

    m["reports.rows"] = extras.get("rows", 0)
    m["reports.emit_s"] = get("reports.emit_report", "self_s")
    m["reports.rows_per_s"] = ratio(m["reports.rows"], m["reports.emit_s"])

    for layer in LAYER_SELF:
        m[layer + ".self_s"] = sum(rec["self_s"] for name, rec in agg.items()
                                   if name.split(".", 1)[0] == layer)
    m["trace.wall_s"] = sum(r["wall"] for r in results if "wall" in r)
    return m


def per_sample_ms(results: list[dict]) -> tuple[float, float]:
    """Self time per sample, in ms, of the spectral step and of sampling."""
    spans = [r["spans"] for r in results
             if "sim.sample_matrix" in r.get("spans", {})]
    samples = sum(sp["sim.sample_matrix"]["calls"] for sp in spans)
    if not samples:
        return 0.0, 0.0
    spectral = sum(sp.get(n, {}).get("self_s", 0) for sp in spans
                   for n in SPECTRAL)
    sample = sum(sp["sim.sample_matrix"]["self_s"] for sp in spans)
    return 1e3 * spectral / samples, 1e3 * sample / samples


def spectral_1t_ms(runner: Runner, ops: list[dict]) -> tuple[float, dict]:
    """The headline sim op again, traced, with one BLAS thread."""
    head = [op for op in ops if op["headline"] and "sim" in op["imports"]]
    if not head:
        return 0.0, {}
    res = runner.run_op(head[0], traced=True, threads=1)
    return per_sample_ms([res])[0], res


# -- run ----------------------------------------------------------------------

def git_revision():
    if not os.path.isdir(".git"):  # not a git checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record_digests(runner: Runner) -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build_ops(workload, 0):
            if op["digest"]:
                # the semantic gate alone: the digest is what gets recorded
                res = runner.run_op(dict(op, digest=False), traced=False)
                if res["error"]:
                    print("error: %s: %s" % (op["name"], res["error"]),
                          file=sys.stderr)
                    return 1
                digests[op["name"]] = res["digest"]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), DIGESTS))
    return 0


def measure(runner: Runner, ops: list[dict], seconds: float, trace: bool):
    """Repeat the op list while the next pass fits in `seconds`, at least
    once; with trace, alternate untraced and traced passes, at least one of
    each."""
    passes = []
    took = {}  # duration of the last pass, untraced and traced
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        start = time.perf_counter()
        results = [runner.run_op(op, traced) for op in ops]
        took[traced] = time.perf_counter() - start
        for r in results:
            if r["error"]:
                print("# FAIL %s: %s" % (r["name"],
                                         " | ".join(r["error"].split("\n"))))
        passes.append((traced, results))
        elapsed = time.perf_counter() - t0
        following = trace and len(passes) % 2 == 1
        if time.perf_counter() >= runner.deadline:
            break
        if trace and len(passes) < 2:
            continue
        if elapsed + took.get(following, took[traced]) > seconds:
            break
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "wignerlab", "cli.py")):
        print("error: run from the repository root (src/wignerlab missing)",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    sys.path.insert(0, os.path.abspath("src"))  # for the gates' oracle
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    workdir = os.path.join(".perfbench", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir, min(2, len(os.sched_getaffinity(0))), digests)
        if args.record_digests:
            return record_digests(runner)
        return run_workload(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(runner: Runner, args) -> int:
    ops = workloads.build_ops(args.workload, args.seed, args.smoke)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "smoke": args.smoke, "ops": [op["name"] for op in ops],
           "nproc": len(os.sched_getaffinity(0)), "threads_env": runner.threads,
           "loadavg_before": os.getloadavg(), "git": git_revision()}
    env.update(runner.probe())
    passes = measure(runner, ops, args.seconds, bool(args.trace))
    results = [r for _, rs in passes for r in rs]
    plain = [rs for traced, rs in passes if not traced]
    traced = [rs for t, rs in passes if t]
    if args.trace:
        if not traced or not plain:
            print("error: no time left for a traced pass", file=sys.stderr)
            return 1
        per_pass = [layer_metrics(rs, env["blas_threads"]) for rs in traced]
        metrics = {k: _median([p[k] for p in per_pass]) for k in PER_LAYER
                   if k in per_pass[0]}
        metrics["sim.spectral_1t_ms"], base = spectral_1t_ms(runner, ops)
        if base:
            results.append(base)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(
            [pass_metrics(rs)["wall_s"] for rs in plain])
        units = PER_LAYER
    else:
        per_pass = [pass_metrics(rs) for rs in plain]
        metrics = {k: _median([p[k] for p in per_pass])
                   for k in ("wall_s", "items_per_s", "peak_rss_mb")}
        metrics["setup_s"] = _median([r["setup"] for r in results
                                      if "setup" in r])
        units = END_TO_END
    failed = sum(1 for r in results if r["error"])
    if not args.trace:
        metrics["pass_ratio"] = 1.0 - failed / len(results)
    env["loadavg_after"] = os.getloadavg()
    env["passes"] = len(passes)
    print("# env " + json.dumps(env, sort_keys=True))
    for r in results:
        if "wall" in r:
            print("# op %-24s traced=%d setup=%.3fs wall=%.3fs rss=%.0fMB %s"
                  % (r["name"], r["traced"], r["setup"], r["wall"],
                     r["maxrss_mb"], "ok" if not r["error"] else "FAIL"))
    for name in units:
        print("# %-36s %14.6g %s" % (name, metrics[name], units[name]))
    out = {"correct": failed == 0, "attempted": len(results), "failed": failed,
           "metrics": {k: {"value": metrics[k], "unit": units[k]}
                       for k in units}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
