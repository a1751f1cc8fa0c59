"""One benchmark op in a fresh Python process, as a user would run it.

Usage: python3 perfbench/child.py SPEC.json RESULT.json
       python3 perfbench/child.py --probe

The spec names the op: a ``wignerlab`` CLI command (kind "cli") or one
public library call that the CLI has no command for (kind "call").  The
child imports what the op needs, notes the time it is ready, runs the op
(traced if the spec asks for it), and writes the op's timings to the
result file.  The op's own output, the body, goes to ``spec["out"]``.

All timestamps are ``time.perf_counter()``, which is CLOCK_MONOTONIC on
Linux and so comparable with the parent's clock.
"""

import csv
import importlib
import io
import json
import sys
import time
import traceback


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# -- library-call ops ---------------------------------------------------------
# Each takes the op's params and returns the body text.  They call the
# library through module attributes, so the tracer sees every call.

def op_cells_and_reductions(p) -> str:
    from wignerlab import walks as wk
    rows = [("walk", "strong", "strong_removed", "weak", "weak_removed",
             "cells")]
    for walk in wk.enumerate_even_walks(p["s"]):
        cells = wk.bts_and_cells(walk)
        strong = wk.strong_reduce(walk)
        weak = wk.weak_reduce(walk)
        rows.append((walk.to_string(), strong.to_string(),
                     len(strong.removed_pairs), weak.to_string(),
                     len(weak.removed_pairs), cells.to_json()))
    return _csv(rows)


def op_class_weight_audit(p) -> str:
    from wignerlab import oracle as orc
    rows = [("u", "census", "n_walks", "max_D", "weight", "bound",
             "bound_ok", "eq_5_15_ok")]
    for rec in orc.class_weight_audit(p["s"], p["n"], p["rho"], p["k0"]):
        rows.append((rec.u, " ".join(map(str, rec.census.census_key())),
                     rec.n_walks, rec.max_D, rec.weight, repr(rec.bound),
                     rec.bound_ok, rec.eq_5_15_ok))
    return _csv(rows)


def op_multi_edge_enum_vs_gf(p) -> str:
    from wignerlab import catalan as ct
    rows = [("s", "l", "enum", "gf", "match")]
    for s in range(1, p["s_max"] + 1):
        enum = ct.multi_edge_counts_enum(min(5, s), s)
        for l in range(1, min(5, s) + 1):
            gf = ct.multi_edge_count_gf(l, s)
            rows.append((s, l, enum[l - 1], gf, enum[l - 1] == gf))
    return _csv(rows)


def op_estimate_moments(p) -> str:
    from wignerlab import sim
    config = sim.EnsembleConfig(n=p["n"], rho=p["rho"], seed=p["seed"])
    stats = sim.estimate_moments(config, p["s"], p["samples"])
    rows = [("s", "mean", "stderr", "n_samples")]
    rows += [(s, repr(stats[s].mean), repr(stats[s].stderr),
              stats[s].n_samples) for s in p["s"]]
    return _csv(rows)


CALLS = {"cells_and_reductions": op_cells_and_reductions,
         "class_weight_audit": op_class_weight_audit,
         "multi_edge_enum_vs_gf": op_multi_edge_enum_vs_gf,
         "estimate_moments": op_estimate_moments}


# -- environment probe --------------------------------------------------------

def blas_info() -> dict:
    """numpy and BLAS versions and the effective BLAS thread count, read from
    numpy's bundled OpenBLAS (-1 when it cannot be read)."""
    import ctypes
    import glob
    import os

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = -1
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads}


# -- main ---------------------------------------------------------------------

def run(spec: dict) -> dict:
    for module in spec["imports"]:
        importlib.import_module("wignerlab." + module)
    ready = time.perf_counter()
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer("bench.op", ready)
        tracer.install()
    code = 0
    error = ""
    try:
        if spec["kind"] == "cli":
            from wignerlab import cli
            main = cli.main
            if tracer is not None:
                main = tracer.wrap(main, "cli.main")
            code = main(spec["argv"] + ["--out", spec["out"]])
        else:
            body = CALLS[spec["call"]](spec["params"])
            with open(spec["out"], "w", encoding="utf-8") as fh:
                fh.write(body)
    except Exception:  # reported as a failed op, never a crash
        code = -1
        error = traceback.format_exc(limit=-3)
    end = time.perf_counter()
    result = {"ready": ready, "end": end, "exit": code, "error": error}
    if tracer is not None:
        result["spans"] = tracer.finish(end)
        tracer.uninstall()
        result["extras"] = _extras(tracer)
    result["maxrss_kb"] = peak_rss_kb()
    return result


def peak_rss_kb() -> int:
    """Peak RSS of this process image.  ru_maxrss would also count the
    parent's peak, which a forked child inherits."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _extras(tracer) -> dict:
    """Counters reduced from the captured arguments, after the op ended."""
    out = {"rows": tracer.log.get("rows", [0])[0]}
    configs = [args[0] for args in tracer.log.get("sim.sample_matrix", [])]
    if configs:
        out["mask_density"] = sum(c.rho / c.n for c in configs) / len(configs)
    flop = moved = 0
    for args in tracer.log.get("sim.estimate_trace_moments_fast", []):
        config, s_list, samples = args[:3]
        if max(s_list) <= 5:  # the matrix-power route
            gemms = samples * (3 if 5 in s_list else 2)
            flop += gemms * 2 * config.n ** 3
            moved += gemms * 3 * 8 * config.n ** 2
    out["gemm_flop"] = flop
    out["gemm_bytes"] = moved
    scanned = useful = 0
    for args in tracer.log.get("oracle.exact_moment_trajectory", []):
        spec = args[0]
        scanned += spec.n ** (2 * spec.s)
        # trajectories with no diagonal step and all pair multiplicities
        # even are exactly the class members of the even walks
        from wignerlab import walks as wk
        useful += sum(wk.class_size(w, spec.n)
                      for w in wk.enumerate_even_walks(spec.s, cap=spec.s))
    out["trajectories_scanned"] = scanned
    out["trajectories_useful"] = useful
    filled = useful_cells = 0
    for table in tracer.log.get("catalan.height_table", []):
        # cum[u][s] for u, s >= 1 is nonzero exactly where height_table
        # filled it; only the cells with u <= s are ever read
        for u, row in enumerate(getattr(table, "cum", [])[1:], start=1):
            for s, value in enumerate(row[1:], start=1):
                if value:
                    filled += 1
                    useful_cells += u <= s
    out["height_cells_filled"] = filled
    out["height_cells_useful"] = useful_cells
    return out


def main(argv) -> int:
    if argv[1:] == ["--probe"]:
        print(json.dumps(blas_info()))
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
