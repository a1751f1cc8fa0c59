"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and c [5, 9]; b [2, 3] is under a
    names = ["root", "a", "b", "c"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(names, parents, starts, ends) == [3.0, 2.0, 1.0,
                                                              4.0]


def test_tracer_self_times_add_up_and_skip_the_consumer():
    def leaf():
        time.sleep(0.01)

    def outer():
        leaf()
        leaf()

    def gen():
        for _ in range(3):
            leaf()
            yield 1

    t0 = time.perf_counter()
    tracer = spans.Tracer("bench.op", t0)
    leaf = tracer.wrap(leaf, "x.leaf")
    outer_t = tracer.wrap(outer, "x.outer")
    gen_t = tracer.wrap_generator(gen, "x.gen")
    outer_t()
    for _ in gen_t():
        time.sleep(0.02)  # consumer work, not the generator's
    out = tracer.finish(time.perf_counter())
    total = tracer.end[0] - tracer.start[0]
    assert sum(r["self_s"] for r in out.values()) == pytest.approx(total)
    assert out["x.leaf"]["calls"] == 5
    assert out["x.gen"]["yields"] == 3
    assert out["x.gen"]["calls"] == 4  # three items and the final stop
    assert out["x.gen"]["self_s"] < 0.01
    assert out["bench.op"]["self_s"] >= 0.06
    assert out["x.outer"]["top_s"] == out["x.outer"]["incl_s"]


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    return run.Runner(str(tmp_path), 1, digests)


def _op(workload, name, smoke=False):
    return next(op for op in workloads.build_ops(workload, 0, smoke)
                if op["name"] == name)


def test_corrupted_body_fails_its_gate(runner):
    op = _op("exact_tables", "count_lemma61")
    res = runner.run_op(op, traced=False)
    assert res["error"] == ""
    with open(res["out"], encoding="utf-8") as fh:
        body = fh.read()
    assert gates.check(op, body, runner.digests) == ""
    # another manifest line, with other timestamps, is not a corruption
    restamped = "# manifest: {}\n" + gates.strip_manifest(body)
    assert gates.check(op, restamped, runner.digests) == ""
    corrupted = body[:-3] + ("1" if body[-3] != "1" else "2") + body[-2:]
    assert "digest" in gates.check(op, corrupted, runner.digests)


def test_semantic_gate_fails_without_a_digest(runner):
    op = _op("exact_tables", "count_subcluster", smoke=True)
    res = runner.run_op(op, traced=False)
    assert res["error"] == "" and not op["digest"]
    with open(res["out"], encoding="utf-8") as fh:
        body = fh.read()
    assert "match false" in gates.check(op, body.replace("true", "false", 1),
                                        {})


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_op(workload, trace):
    out = _bench("--workload", workload, "--smoke", "--seconds", "0",
                 "--trace", trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in declared[kind]}
    for m in declared[kind]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "exact_walks", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_failing_and_hanging_ops_are_counted_not_fatal(runner):
    bad = dict(_op("exact_walks", "oracle_both"),
               argv=["oracle", "--n", "2", "--rho", "1", "--s", "0"])
    assert runner.run_op(bad, traced=False)["error"].startswith("exit")
    slow = dict(_op("exact_walks", "walk_enumerate"), timeout=0.5)
    assert runner.run_op(slow, traced=False)["error"].startswith("timeout")
