"""CLI integration tests: subcommands, formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy
import pytest
from hypothesis import (assume, event, example, given, settings,
                        strategies as st)

from wignerlab import Refused, cli
from wignerlab import catalan as ct
from wignerlab import oracle as orc
from wignerlab import reports
from wignerlab import sim
from wignerlab import walks as wk

W16_TRAJ = "5,2,7,9,7,1,2,7,9,7,2,7,2,1,7,2,5"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def body_of(text):
    """Output lines minus the manifest header."""
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# manifest:"))


# SHA-256 of each walk body (manifest line stripped), generated before
# the walk record kept one tuple per marked step: walk enumerate at
# s = 1..6, and from-trajectory and census on W16, on one pair walked six
# times, on a walk whose third marked step returns to the root and on a
# loop
WALK_BODY_SHA256 = {
    ("enumerate --s 1", "csv"):
        "7e59d9df95e1f442610b3ad7e89c9b43d5bf7b118d041ded17f3e12f0231fc12",
    ("enumerate --s 2", "csv"):
        "d796f67fff6c846996b9742cdc62f08885e8f9c62bb64f2bc9465f48409b1972",
    ("enumerate --s 3", "csv"):
        "1d8ca0e84657afcedf95ee7392555374dfb464aecafc572743f19e92b9c8531a",
    ("enumerate --s 4", "csv"):
        "a273e92f71dac60f21c0cd20c5bec6abeb8f931dfe080fb82553dec80d36b591",
    ("enumerate --s 5", "csv"):
        "2431199157409b77348a7d4fc8a37678699c755fd09e37128554eb8647d5acde",
    ("enumerate --s 6", "csv"):
        "e80f7b1630b0fa65e4e655dcbfdfe18a91fb8ff872c82a85978e3c92c3db12fc",
    ("from-trajectory W16", "csv"):
        "5fa9bc7bc93c8931a98e88eba6f6c2cf4277723cecace75198bd67ae56e09cd2",
    ("from-trajectory 1,2,1,2,1,2", "csv"):
        "a1587b48457d1cdf90f0190e6960ad29b1a348c788c518b779ddb8cf03e86583",
    ("from-trajectory 1,2,3,1,2,3", "csv"):
        "77c3ce291e2573cab3756f7cd4e1c982970ce45dd5d4e206b649336cee7bdb13",
    ("from-trajectory 1,1", "csv"):
        "998c6fb7b1f0c0161cd2de7ec0a26ecab058c5ac1f31fc4f1f0a4f2101928bdd",
    ("census W16", "csv"):
        "c21b9c56540e6aaa36edb6d2f5b5f84e90bc5ee9e101125ada9dfbc6a01144e0",
    ("census 1,2,1,2,1,2", "csv"):
        "895e375227d0acb1e4f096490869316fb53610c24e5f616157662ae5a7e98fc5",
    ("census 1,2,3,1,2,3", "csv"):
        "d138354e40a65e2322b71d689f00b3ab3380a79bb15a9772d8327ecf08f12319",
    ("census 1,1", "csv"):
        "998c6fb7b1f0c0161cd2de7ec0a26ecab058c5ac1f31fc4f1f0a4f2101928bdd",
    ("enumerate --s 1", "json"):
        "e307e1463bf02ef47a18d2882ca2d7126356fcc13e1eff1038469158673fc8b2",
    ("enumerate --s 2", "json"):
        "a7b71736127e7f507110e540237e240d85c3c20164a2da6395cb51190d5e4975",
    ("enumerate --s 3", "json"):
        "66e19019034de7fac21f9cd42a73979eb34822eb93f02dd6f104875eda2302ca",
    ("enumerate --s 4", "json"):
        "18c3be6bca2c748f47a5b7ca865107e2f192547b94f37ae428be70a579b87523",
    ("enumerate --s 5", "json"):
        "c51aec16afd72a7e2f82b9a0b21a825dfd029ea3912adc2c0cb4039b63b217c9",
    ("enumerate --s 6", "json"):
        "5dc3bbe7a91675f8076ddf3496af28c37ac4719bc1c8d3043b91aa8085dee5e1",
    ("from-trajectory W16", "json"):
        "ca743b7975b38da780a615dea2aa5e838d908d0a58dbdd04cdf3ca1d2986f7f8",
    ("from-trajectory 1,2,1,2,1,2", "json"):
        "e9df70e55d48e64c0e74d1091408b534e5d22dabfe293b36cd60d23a586ab483",
    ("from-trajectory 1,2,3,1,2,3", "json"):
        "ce5ae94e657960b3761049ff29ee35156b5456aa1e36f0e68f3ae737c20b47d6",
    ("from-trajectory 1,1", "json"):
        "baa0e61a0a8d2b99f968c0812cb73bde65b0f93373b4a7f3107e9fbb79316017",
    ("census W16", "json"):
        "95993f3d005782a26407c71196d9b9d050bdda1eab66619b03a17018ef19cc89",
    ("census 1,2,1,2,1,2", "json"):
        "49724205039a9184dd0361ae54c79fb384e7ef75a80cfbbc3d20ce874aaa8e8b",
    ("census 1,2,3,1,2,3", "json"):
        "d29983899f2958e40e8511b787168d0472ac8bed5de470171423be5d5e307bb8",
    ("census 1,1", "json"):
        "baa0e61a0a8d2b99f968c0812cb73bde65b0f93373b4a7f3107e9fbb79316017",
}


class TestWalk:
    def test_from_trajectory(self, capsys):
        code, out, _ = run_cli(
            ["walk", "from-trajectory", W16_TRAJ, "--format", "json"],
            capsys)
        assert code == 0
        rec = json.loads(body_of(out))
        assert rec["walk"] == "1,2,3,4,3,5,2,3,4,3,2,3,2,5,3,2,1"
        assert rec["theta_star"] == 4
        assert rec["max_exit_degree"] == 5
        assert rec["max_exit_letter"] == 3
        assert rec["strong_reduced"] == rec["weak_reduced"]

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(["walk", "enumerate", "--s", "3"], capsys)
        assert code == 0
        lines = body_of(out).strip().splitlines()
        assert len(lines) == 1 + 16  # header + walks

    @pytest.mark.parametrize("argv, fmt", list(WALK_BODY_SHA256))
    def test_bodies_byte_identical(self, argv, fmt, tmp_path):
        out_file = tmp_path / "t.out"
        assert cli.main(["walk"] + argv.replace("W16", W16_TRAJ).split()
                        + ["--format", fmt, "--out", str(out_file)]) == 0
        head, body = out_file.read_bytes().split(b"\n", 1)
        assert head.startswith(b"# manifest: ")
        assert hashlib.sha256(body).hexdigest() == \
            WALK_BODY_SHA256[argv, fmt]

    def test_enumerate_guardrail(self, capsys, tmp_path):
        code, out, err = run_cli(["walk", "enumerate", "--s", "9"], capsys)
        assert code == 3
        assert "refused" in err and out == ""
        # s = 7 is the cap, and no flag overrides it
        code, out, err = run_cli(["walk", "enumerate", "--s", "8"], capsys)
        assert code == 3 and out == ""
        assert "estimated work: %d)" % wk.estimate_even_walk_count(8) in err
        # a refused stream leaves no file behind, not even a manifest
        out_file = tmp_path / "walks.csv"
        code, out, err = run_cli(
            ["walk", "enumerate", "--s", "9", "--out", str(out_file)], capsys)
        assert code == 3
        assert "refused" in err and out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("action", [
        ["census", W16_TRAJ], ["from-trajectory", W16_TRAJ],
        ["enumerate", "--s", "3"]])
    def test_k0_below_two(self, capsys, action):
        code, out, err = run_cli(["walk"] + action + ["--k0", "1"], capsys)
        assert code == 2
        assert err.startswith("error:") and "k0" in err
        assert "Traceback" not in err and out == ""

    def test_bad_trajectory(self, capsys):
        code, _, err = run_cli(["walk", "from-trajectory", "1,x,3"], capsys)
        assert code == 2
        assert "error" in err


# SHA-256 of each count body (manifest line stripped), generated before
# the count tables streamed row by row: every README count example, and
# the benchmark's exact_tables sizes, full and smoke
COUNT_BODY_SHA256 = {
    ("catalan --s-max 30", "csv"):
        "f50c8c24671c10912eb54f26fd5564ed88a88d6e4560054ae2468696c8e0aefd",
    ("catalan --s-max 30", "json"):
        "e5655d7382ebc149e6ab90734a0a6014323e487ed10f58f40f78fd3d9848da7d",
    ("multi-edge --l 2 --s-max 12 --check-closed-form", "csv"):
        "a07490d24e924d1f80ac0129f152f885713e0e670215efe37e7d64481268df9a",
    ("multi-edge --l 2 --s-max 12 --check-closed-form", "json"):
        "2434a707386f3a59f736ad4f5f11afc15ca8107085f491ae16fefe11c8ea60a3",
    ("subcluster --s-max 30", "csv"):
        "5912d9dea6aacc10a62b191baf887bd869ee74eac59ec1d0607b4b43141e7940",
    ("subcluster --s-max 30", "json"):
        "6e87e6902f61a3d3ab860d7fade5db5b9da156e60cf0b3a4bc0ab4d356a948f7",
    ("lemma61 --s-max 300", "csv"):
        "5e6f0faa71aa97ed068666326bd5f5e2377cf15d76ad3c4b38a7ec4ea9b7e0a5",
    ("lemma61 --s-max 300", "json"):
        "17ce2a37237967c0136788c76ed0879f7935e71a0c1b7d63d3bc8e90bba70d27",
    ("conjecture --l-max 10 --s-max 10", "csv"):
        "4b35337ffa21d7152f5167f6534ce56a4cb82233f06b62feea58e71e4e27253b",
    ("conjecture --l-max 10 --s-max 10", "json"):
        "a9b8f9ccd58638daf7bb56196bbc4644f26324eb3c60173ae2c585820a44e55d",
    ("heights --s-max 30", "csv"):
        "9c2079a97a23a37dd5f2a5684a211e30190ee75b76ffbb970904a0bdf13a7fb9",
    ("heights --s-max 30", "json"):
        "977ab1c722424abb03cd244fe36b47ab390fe2d6b6d4f9ed23fe039e2bc8c52d",
    ("catalan --s-max 1000", "csv"):
        "f9b33c8ad72bc7ce2ee155b8afb0ba3bfc68747e0e34186f9295f924be9c7a39",
    ("catalan --s-max 1000", "json"):
        "00f9d0b68ae84d723d3d0e1a68d6943568595f1488a80d9a8670f6741c0ef777",
    ("subcluster --s-max 200", "csv"):
        "45d196ce7a23c018f3562cc1db37a66e032f045c845e0fe909fff39a0ead453e",
    ("subcluster --s-max 200", "json"):
        "d97c06d8a0265ec43b2f1c611859287e2b41b0b599a75f30658273c6e738594c",
    ("heights --s-max 200", "csv"):
        "d334ad5870b611e0601d6e502efc0452f696d9e5d922f887af141161e588f795",
    ("heights --s-max 200", "json"):
        "c277c9804a3db3b67c13a430d077f4aa55569a67fdb23f2da75e52a3da1719bf",
    ("multi-edge --l 2 --s-max 300 --check-closed-form", "csv"):
        "e7bf9c713df963b719743c356f5098df092953fa10e5d67bf72dfcc00fe45af1",
    ("multi-edge --l 2 --s-max 300 --check-closed-form", "json"):
        "f214b8b1ee192fc9ec742b6db0e47b1eab068f8fa554070fb92f044256ed02aa",
    ("subcluster --s-max 20", "csv"):
        "cba7b255add4fb610088b5f47412b3dfe2f5d6abdee0fe88dbb3f23ae5298225",
    ("subcluster --s-max 20", "json"):
        "e54910a833c9b5a2a3708502f9fb9e9cfe7ad24908633e78289ec22546e8bdde",
    ("heights --s-max 20", "csv"):
        "9fb3e2ad71210c1e62b8d245081383f2d8d91b72e26e8f100080d6363d5d1815",
    ("heights --s-max 20", "json"):
        "044ffa9fc1f870a30b985d62835869899e5d0b2cd87d8d91c23f5b9b14b11f16",
    ("multi-edge --l 2 --s-max 30 --check-closed-form", "csv"):
        "363972e2ca5c10bfb5d1a50057df58cac94303f90fe2adc75fa24ec39d9002b7",
    ("multi-edge --l 2 --s-max 30 --check-closed-form", "json"):
        "ed07e98fd7ef53f6164383e92d9b3b8ddab2ee027f7b6a9465eaf2902e43162e",
    ("lemma61 --s-max 30", "csv"):
        "8b8ac726df42ba05e86a11f25856640872e57bd9d73d61737961c00dd4ec4bec",
    ("lemma61 --s-max 30", "json"):
        "b1fcd6b2694264f4a1bc1f0486869b279bf987aac6c2a0d9c7d17a867c6d91a2",
    ("conjecture --l-max 3 --s-max 6", "csv"):
        "81f8fd3d31d0a9f94d9ecb2c2bac6f605887acb0e614454a601bfcbfcc0323df",
    ("conjecture --l-max 3 --s-max 6", "json"):
        "3e846917fd5c39d1a1a30fb248cf7297316b6c378579ade5e6fb61b5b0dc8d20",
}


def count_peak_kb(argv):
    """VmHWM in KB of a fresh process that runs count argv, read from its
    own /proc/self/status after the run."""
    code = ("import os\n"
            "from wignerlab import cli\n"
            "assert cli.main(%r + ['--out', os.devnull]) == 0\n"
            "print([l.split()[1] for l in open('/proc/self/status')"
            " if l.startswith('VmHWM:')][0])" % (["count"] + argv))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


class TestCount:
    def test_multi_edge_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["count", "multi-edge", "--l", "2", "--s-max", "12",
             "--check-closed-form"], capsys)
        assert code == 0
        lines = body_of(out).strip().splitlines()
        assert lines[0] == "s,l,value,closed_form,match"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_catalan_csv(self, capsys):
        code, out, _ = run_cli(["count", "catalan", "--s-max", "5"], capsys)
        assert code == 0
        assert "5,42,42,true" in body_of(out)

    @pytest.mark.parametrize("argv", [
        ["multi-edge", "--l", "0", "--s-max", "3"],
        ["conjecture", "--l-max", "0", "--s-max", "3"],
        ["catalan", "--s-max", "-1"],
        ["multi-edge", "--l", "2", "--s-max", "-1"],
        ["subcluster", "--s-max", "-1"],
        ["lemma61", "--s-max", "-1"],
        ["conjecture", "--s-max", "-1"],
        ["heights", "--s-max", "-1"],
        # an empty table: no row has s in range
        ["heights", "--s-max", "0"],
        ["subcluster", "--s-max", "0"],
        ["conjecture", "--s-max", "0"],
        ["multi-edge", "--l", "5", "--s-max", "2"],
        ["multi-edge", "--l", "1000000000000", "--s-max", "3"]])
    def test_bad_sizes(self, argv):
        # a subprocess, so that a hang fails the test instead of stalling it
        proc = subprocess.run(
            [sys.executable, "-m", "wignerlab.cli", "count"] + argv,
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_missing_action(self, capsys):
        code, _, err = run_cli(["count"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["catalan", "--s-max", "100000000"],
        ["multi-edge", "--l", "2", "--s-max", "601"],
        ["multi-edge", "--l", "1000000000000", "--s-max", "1000000000000"],
        ["subcluster", "--s-max", "601"],
        ["lemma61", "--s-max", "1001"],
        ["conjecture", "--l-max", "101", "--s-max", "5"],
        ["heights", "--s-max", "1001"]])
    def test_size_caps(self, argv, tmp_path):
        # refused before any work: a subprocess, so that a request that
        # starts the work fails the test by its timeout
        out_file = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "wignerlab.cli", "count"] + argv
            + ["--out", str(out_file)],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 3 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("refused:")
        assert "exceeds cap %d" % ct.COUNT_CAPS[argv[0]] in lines[0]
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, fmt", list(COUNT_BODY_SHA256))
    def test_bodies_byte_identical(self, argv, fmt, tmp_path):
        out_file = tmp_path / "t.out"
        assert cli.main(["count"] + argv.split() + ["--format", fmt,
                                                    "--out", str(out_file)]) == 0
        head, body = out_file.read_bytes().split(b"\n", 1)
        assert head.startswith(b"# manifest: ")
        assert hashlib.sha256(body).hexdigest() == \
            COUNT_BODY_SHA256[argv, fmt]

    @pytest.mark.parametrize("action", ["subcluster", "lemma61", "heights"])
    def test_rows_stream(self, action, tmp_path):
        # The traced peak of a count run is what does not grow with s_max
        # (the parser, the manifest, the file and csv buffers: the peak of
        # the same command at --s-max 1) plus O(s_max) numbers.  Every
        # number a row, a Catalan list or a power list holds is below
        # 4^s_max (t_s < 4^s, C(2s, k) < 4^s, 3^d < 4^d), so it takes at
        # most sys.getsizeof(4 ** s_max) bytes and an 8-byte list slot.
        # The largest action holds about five lists of s_max + 1 numbers
        # (lemma61: the Catalan list, two power lists and two rows;
        # heights: a binomial row of 2s + 1, the strip counts and the
        # row), so 8 per s leaves room for the cells in flight.  A square
        # table holds (s_max + 1)^2 numbers, 37 times the 8 (s_max + 1)
        # allowed here at s_max = 300.
        s_max = 300
        per_number = sys.getsizeof(4 ** s_max) + 8

        def traced_peak(size):
            tracemalloc.start()
            try:
                assert cli.main(["count", action, "--s-max", str(size),
                                 "--out", str(tmp_path / "t.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        traced_peak(1)  # imports and first-call caches
        floor = traced_peak(1)
        assert traced_peak(s_max) <= floor + 8 * (s_max + 1) * per_number

    @pytest.mark.slow
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc/self/status")
    def test_cap_size_peak_rss(self):
        # At the caps the whole tables peaked at 91 MB (subcluster
        # --s-max 600) and 92 MB (lemma61 --s-max 1000) of VmHWM; streamed
        # rows add well under 8 MB to the interpreter's own floor.  The
        # two runs go side by side (about 5 s on a 2-vCPU VM)
        floor = count_peak_kb(["catalan", "--s-max", "1"])
        runs = [count_peak_kb(argv) for argv in (
            ["subcluster", "--s-max", "600"], ["lemma61", "--s-max", "1000"])]
        peaks = []
        for proc in [floor] + runs:
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            peaks.append(int(out))
        assert max(peaks[1:]) < peaks[0] + 8 * 1024, peaks

    def test_caps_cover_verify_and_benchmark_sizes(self):
        # verify's catalan rows at 2000, subcluster and heights at 500,
        # lemma61 and multi-edge at 300, conjecture at l_max = s_max = 10
        # and the parser's defaults all run
        sizes = {"catalan": 2000, "subcluster": 500, "heights": 500,
                 "lemma61": 300, "multi-edge": 300, "conjecture": 60}
        assert all(ct.COUNT_CAPS[a] >= m for a, m in sizes.items())


class TestOracle:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--n", "4", "--rho", "2", "--s", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"value_num": "9", "value_den": "32",
                           "method_agreement": True}

    def test_rational_rho(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--n", "3", "--rho", "3/2", "--s", "1",
             "--method", "walk"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value_num"] == "1" and payload["value_den"] == "2"
        assert payload["method_agreement"] is None

    def test_budget_guardrail(self, capsys):
        code, _, err = run_cli(
            ["oracle", "--n", "9", "--rho", "2", "--s", "6",
             "--method", "trajectory"], capsys)
        assert code == 3
        assert "estimated work" in err

    def test_huge_estimate(self):
        # n^(2s) = 10^12000 has too many digits for str(); the refusal
        # still exits 3 and prints the estimate as a power of ten
        proc = subprocess.run(
            [sys.executable, "-m", "wignerlab.cli", "oracle", "--n",
             "1000000", "--rho", "1", "--s", "1000", "--method",
             "trajectory"], capture_output=True, text=True, timeout=10)
        assert proc.returncode == 3 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("refused:")
        assert "(estimated work: ~10^12000)" in lines[0]

    def test_walk_method_guardrail(self, capsys, monkeypatch):
        from wignerlab import walks as wk

        def no_walks(*args):
            raise AssertionError("walk enumeration started")
        monkeypatch.setattr(wk, "Walk", no_walks)
        code, out, err = run_cli(
            ["oracle", "--n", "4", "--rho", "2", "--s", "9",
             "--method", "walk"], capsys)
        assert code == 3
        assert err.startswith("refused:") and "estimated work" in err
        assert "force" not in err  # the oracle has no override
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("method", ["walk", "trajectory", "both"])
    def test_refuses_before_moment_list(self, method, capsys, monkeypatch):
        # at s = 10^5 the moment list alone would take minutes
        from wignerlab import oracle as orc

        def no_spec(*args):
            raise AssertionError("moment list built")
        monkeypatch.setattr(orc, "make_spec", no_spec)
        start = time.perf_counter()
        code, out, err = run_cli(
            ["oracle", "--n", "3", "--rho", "1", "--s", "100000",
             "--method", method, "--dist", "gaussian"], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == "" and err.startswith("refused:")

    @pytest.mark.parametrize("n, s, estimate", [
        ("1", "200000", "200000"), ("3", "30000000", "~10^28627275")])
    def test_trajectory_refusal_is_quick(self, n, s, estimate):
        # n = 1 fits any sequence budget and 3^(6e7) takes a minute to
        # build: both refuse from (n, s) alone.  A subprocess, so that a
        # hang fails the test by its timeout
        code = ("import time\nfrom wignerlab import cli\n"
                "t = time.perf_counter()\n"
                "code = cli.main(['oracle', '--n', '%s', '--rho', '1', "
                "'--s', '%s', '--method', 'trajectory'])\n"
                "print(code, time.perf_counter() - t)" % (n, s))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=20)
        exit_code, seconds = proc.stdout.split()
        assert exit_code == "3" and float(seconds) < 1.0
        assert proc.stderr.startswith("refused:")
        assert proc.stderr.endswith("(estimated work: %s)\n" % estimate)

    def test_walk_method_at_7(self, capsys):
        # the shape table goes one step past the walk enumeration
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["oracle", "--method", "walk", "--s", "7", "--n", "2000",
             "--rho", "2"], capsys)
        assert code == 0 and time.perf_counter() - start < 5.0
        assert json.loads(out)["value_den"] != "0"
        code, out, err = run_cli(
            ["oracle", "--method", "walk", "--s", "8", "--n", "2000",
             "--rho", "2"], capsys)
        assert code == 3 and out == ""
        assert "(estimated work: 3683994)" in err

    def test_both_gaussian(self, capsys):
        # a law under which shapes of the same k and pair count weigh
        # differently: both routes count alike and are weighed once
        args = ["oracle", "--dist", "gaussian", "--n", "4", "--rho", "3/2",
                "--s", "4", "--method"]
        code, both, _ = run_cli(args + ["both"], capsys)
        assert code == 0 and json.loads(both)["method_agreement"] is True
        code, walk, _ = run_cli(args + ["walk"], capsys)
        assert code == 0 and json.loads(walk)["method_agreement"] is None
        assert both.replace("true", "null") == walk

    def test_out_file(self, capsys, tmp_path):
        # the same bytes as stdout, with no manifest line
        args = ["oracle", "--n", "4", "--rho", "2", "--s", "2"]
        out_file = tmp_path / "o.json"
        code, out, _ = run_cli(args + ["--out", str(out_file)], capsys)
        assert code == 0 and out == ""
        assert out_file.read_bytes() == \
            b'{"method_agreement": true, "value_den": "32", "value_num": "9"}\n'
        assert run_cli(args, capsys)[1].encode() == out_file.read_bytes()
        assert os.listdir(tmp_path) == ["o.json"]

    def test_out_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["oracle", "--n", "4", "--rho", "2", "--s", "2", "--out",
             str(tmp_path / "missing" / "o.json")], capsys)
        assert code == 4 and out == ""
        assert err.startswith("i/o error: cannot write")

    def test_bad_rho(self, capsys):
        code, _, err = run_cli(
            ["oracle", "--n", "4", "--rho", "x", "--s", "1"], capsys)
        assert code == 2


class TestSim:
    def test_moments_csv(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, _, _ = run_cli(
            ["sim", "moments", "--n", "16", "--rho", "4", "--s", "1",
             "--samples", "5", "--seed", "3", "--out", str(out_file)],
            capsys)
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# manifest:")
        assert "s,mean,stderr,n_samples,min,max" in text

    def test_deterministic_body(self, capsys, tmp_path):
        args = ["sim", "moments", "--n", "16", "--rho", "4", "--s", "2",
                "--samples", "6", "--seed", "9"]
        f1, f2, f3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert cli.main(args + ["--out", str(f1)]) == 0
        assert cli.main(args + ["--out", str(f2)]) == 0
        assert body_of(f1.read_text()) == body_of(f2.read_text())
        # --fast is an ignored alias: same body, and not in the manifest
        assert cli.main(args + ["--fast", "--out", str(f3)]) == 0
        assert f3.read_text().startswith("# manifest:")
        assert body_of(f3.read_text()) == body_of(f1.read_text())
        assert '"fast"' not in f3.read_text()

    def test_dense_cap_refused(self, capsys):
        code, out, err = run_cli(
            ["sim", "moments", "--n", "5000", "--rho", "10", "--s", "1",
             "--samples", "2"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("refused:") and "estimated work" in err

    @pytest.mark.parametrize("argv, entries", [
        (["moments", "--n", "4", "--rho", "2", "--s", "1"], 16 * 10 ** 12),
        (["edge", "--n", "4", "--rho", "2"], 16 * 10 ** 12),
        (["crossover", "--n", "4", "--n", "8", "--eps", "0"],
         2 * 80 * 10 ** 12)])
    def test_sample_budget_refused(self, argv, entries, capsys):
        # n^2 entries per sample, summed over both laws of a crossover
        code, out, err = run_cli(
            ["sim"] + argv + ["--samples", "1000000000000"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("refused:")
        assert "(estimated work: %d)" % entries in err

    def test_sample_budget_admits_criterion_7(self):
        from wignerlab import sim
        sim.refuse_over_sample_budget(2000 ** 2 * 200)  # no refusal
        with pytest.raises(Refused) as exc:
            sim.refuse_over_sample_budget(sim.SAMPLE_BUDGET + 1)
        assert exc.value.estimate == sim.SAMPLE_BUDGET + 1

    def test_edge_needs_rho_or_eps(self, capsys):
        code, _, err = run_cli(
            ["sim", "edge", "--n", "30", "--samples", "4"], capsys)
        assert code == 2

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": 0.5, "delta": 0.3}))
        code, out, _ = run_cli(
            ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
             "--samples", "4", "--config", str(cfg)], capsys)
        assert code == 0

    def test_manifest_records_ensemble(self, tmp_path):
        # two runs whose bodies differ never have equal manifests
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": 0.25, "delta": 0.3, "df": 9}))
        argvs = [
            ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
             "--samples", "4", "--config", str(cfg), "--threads", "1"],
            ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "4",
             "--config", str(cfg), "--threads", "1"]]
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "wignerlab.cli"] + argv,
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0
            header = proc.stdout.splitlines()[0]
            config = json.loads(header[len("# manifest: "):])["config"]
            assert {k: config[k] for k in
                    ("n", "rho", "dist", "v", "delta", "df", "threads")} == {
                "n": 8, "rho": 2.0, "dist": "rademacher", "v": 0.25,
                "delta": 0.3, "df": 9, "threads": 1}
            assert "truncate" not in config

    @pytest.mark.parametrize("flag, env, expect", [
        (["--threads", "2"], {"LAB_THREADS": "1"}, 2),
        (["--threads", "1"], {}, 1),
        ([], {"LAB_THREADS": "1"}, None)])
    def test_manifest_records_threads(self, flag, env, expect):
        # --threads alone sets the count: LAB_THREADS is not read
        full_env = {k: v for k, v in os.environ.items()
                    if k != "LAB_THREADS"}
        for argv in (["sim", "moments", "--n", "8", "--rho", "2", "--s",
                      "1", "--samples", "2"],
                     ["sim", "crossover", "--n", "8", "--eps", "0",
                      "--samples", "2"]):
            proc = subprocess.run(
                [sys.executable, "-m", "wignerlab.cli"] + argv + flag,
                capture_output=True, text=True, timeout=60,
                env=dict(full_env, **env))
            assert proc.returncode == 0
            header = proc.stdout.splitlines()[0]
            manifest = json.loads(header[len("# manifest: "):])
            assert manifest["config"]["threads"] == expect

    def test_lab_threads_is_not_read(self, monkeypatch, capsys):
        # in process, so that the environment sim leaves is visible
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        for var in blas:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("LAB_THREADS", "1")
        code, out, err = run_cli(["sim", "moments", "--n", "8", "--rho", "2",
                                  "--s", "1", "--samples", "2"], capsys)
        assert code == 0 and err == ""
        manifest = json.loads(out.splitlines()[0][len("# manifest: "):])
        assert manifest["config"]["threads"] is None
        assert not [var for var in blas if var in os.environ]

    def test_edge_manifest_counters(self, capsys):
        # the Lanczos work counters sit in the manifest, outside the body
        for n, lanczos in (("8", False), ("256", True)):
            code, out, _ = run_cli(
                ["sim", "edge", "--n", n, "--rho", "4", "--samples", "2"],
                capsys)
            assert code == 0
            header = out.splitlines()[0]
            counters = json.loads(header[len("# manifest: "):])["counters"]
            assert counters["lanczos_fallbacks"] == 0
            assert (counters["lanczos_steps"] > 0) == lanczos

    def test_crossover_bound_only_at_eps_zero(self, capsys):
        # the Theorem 7.1 comparison is made at eps = 0; other rows leave
        # both cells empty, and the eps = 0 row is the same on its own
        argv = ["sim", "crossover", "--n", "64", "--eps", "0", "--eps",
                "0.3", "--samples", "4", "--seed", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = list(csv.DictReader(body_of(out).splitlines()))
        assert [r["eps"] for r in rows] == ["0.0", "0.3"]
        assert rows[0]["thm_7_1_lower_bound"] == "0.037229762462701294"
        assert rows[0]["lower_bound_ok"] == "true"
        assert rows[1]["thm_7_1_lower_bound"] == rows[1]["lower_bound_ok"] \
            == ""
        code, alone, _ = run_cli(argv[:6] + argv[8:], capsys)
        assert code == 0
        assert body_of(alone).splitlines() == body_of(out).splitlines()[:2]

    def test_io_error(self, capsys):
        code, _, err = run_cli(
            ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
             "--samples", "4", "--out", "/nonexistent/x.csv"], capsys)
        assert code == 4


class TestVerify:
    def test_cli_suite(self, capsys):
        code, out, err = run_cli(["verify", "cli", "--fast"], capsys)
        assert code == 0
        assert "0 fail" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run_cli(["verify", "bogus"], capsys)
        assert code == 2

    def test_check_timings(self, capsys):
        # each check's seconds go in the manifest, keyed by check id; the
        # body is the one written before verify timed its checks
        code, out, _ = run_cli(["verify", "walks", "--fast"], capsys)
        assert code == 0
        header, body = out.split("\n", 1)
        timings = json.loads(header[len("# manifest: "):])["timings"]
        checks = [row["check"] for row in csv.DictReader(body.splitlines())]
        assert sorted(timings) == sorted(checks)
        assert all(seconds >= 0 for seconds in timings.values())
        assert body == VERIFY_WALKS_FAST_BODY

    @pytest.mark.parametrize("suite", ["catalan", "oracle", "cli"])
    def test_fast_body(self, suite, capsys):
        # exact arithmetic: the bodies written before the suites yielded
        # their records
        code, out, _ = run_cli(["verify", suite, "--fast"], capsys)
        assert code == 0
        assert out.split("\n", 1)[1] == VERIFY_FAST_BODIES[suite]

    def test_sim_fast_rows(self, capsys):
        # the details carry Monte Carlo floats, which the BLAS thread count
        # can move: only the ids and statuses are pinned
        code, out, _ = run_cli(["verify", "sim", "--fast"], capsys)
        assert code == 0
        rows = csv.DictReader(out.split("\n", 1)[1].splitlines())
        assert [(row["check"], row["status"]) for row in rows] == [
            ("sim." + name, "pass") for name in (
                "determinism", "symmetry_diag", "entry_second_moment",
                "oracle_consistency", "trace_identity",
                "trace_powers_vs_eig", "edge_tail_monotone",
                "student_truncation_path", "lanczos_vs_eig")]

    def test_suite_choices(self):
        # the parser keeps the names as a literal: importing verify loads
        # numpy
        from wignerlab import verify
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if action.dest == "subcommand")
        suite = next(action for action in
                     commands.choices["verify"]._actions
                     if action.dest == "suite")
        assert tuple(suite.choices) == ("all",) + tuple(verify.SUITES)


VERIFY_WALKS_FAST_BODY = """\
check,status,detail,suite
walks.canonical_idempotence,pass,,walks
walks.partition_property,pass,s=1 n=7 classes=1; s=2 n=5 classes=3,walks
walks.marked_count_dyck,pass,s <= 4,walks
walks.vertex_count_identity,pass,s <= 4,walks
walks.census_identity,pass,"k0 in {2,4,12}, s <= 4",walks
walks.reduction_soundness,pass,s <= 4,walks
walks.exit_arrival_balance,pass,s <= 4,walks
walks.cell_report_consistency,pass,s <= 4,walks
walks.dyck_tree_bijection,pass,"s=6, 132 paths",walks
walks.tree_type_reduces_empty,pass,,walks
"""

VERIFY_FAST_BODIES = {
    "catalan": """\
check,status,detail,suite
catalan.formula_vs_recurrence,pass,s <= 300,catalan
catalan.subcluster_dual,pass,s <= 120,catalan
catalan.subcluster_bound_6_6,pass,s <= 120,catalan
catalan.lemma_6_1,pass,"boundary failures at [(1, 1)]",catalan
catalan.multi_edge_enum_vs_gf,pass,"l <= 5, s <= 9",catalan
catalan.closed_forms_l2_l3,pass,s <= 200,catalan
catalan.n2_lower_bound,pass,equality at [4],catalan
catalan.height_marginals,pass,s <= 150,catalan
catalan.height_vs_brute,pass,s <= 10,catalan
catalan.b_s_monotone,pass,"s=30 grid [0.0, 0.5, 1.0, 2.0, 4.0]",catalan
""",
    "oracle": """\
check,status,detail,suite
oracle.m2_closed_form,pass,n in 2..6,oracle
oracle.n2_closed_form,pass,"s <= 4, rho in {1/2,1,2}",oracle
oracle.dual_method,pass,"grid [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), \
(3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]",oracle
oracle.scaling_law,pass,"H -> 3H at n=4, s=3",oracle
oracle.multi_edge_classes,pass,"1 <= l <= s <= 6, 21 cases",oracle
oracle.v4_monotonicity,pass,M_4 at n=4,oracle
oracle.insertion_bound,pass,s <= 12,oracle
oracle.class_weight_audit,pass,"s <= 3, n <= 6, rho in {1/2,1}, k0=4",oracle
""",
    "cli": """\
check,status,detail,suite
cli.csv_determinism,pass,,cli
""",
}


class TestManifestStamps:
    @pytest.mark.parametrize("argv, module, name", [
        (["count", "catalan", "--s-max", "5"], "catalan",
         "catalan_table_recurrence"),
        (["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
          "--samples", "2"], "sim", "estimate_moments"),
        (["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2"], "sim",
         "edge_tail"),
        (["sim", "crossover", "--n", "8", "--eps", "0", "--samples", "2"],
         "sim", "crossover_scan"),
        (["verify", "cli", "--fast"], "verify", "cli")],
        ids=["count", "moments", "edge", "crossover", "verify"])
    def test_started_before_work(self, argv, module, name, capsys,
                                 monkeypatch):
        # a clock that moves only while the work runs: the manifest must
        # be stamped on both sides of it
        real_gmtime = time.gmtime
        clock = [1_800_000_000]
        monkeypatch.setattr(time, "gmtime", lambda *a: real_gmtime(clock[0]))
        mod = importlib.import_module("wignerlab." + module)
        work = mod.SUITES[name] if module == "verify" else getattr(mod, name)

        def slow_work(*args, **kwargs):
            clock[0] += 7
            return work(*args, **kwargs)
        if module == "verify":
            monkeypatch.setitem(mod.SUITES, name, slow_work)
        else:
            monkeypatch.setattr(mod, name, slow_work)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and clock[0] > 1_800_000_000
        manifest = json.loads(out.splitlines()[0][len("# manifest: "):])
        assert manifest["started"] < manifest["finished"]
        # only the sim actions take a seed
        assert (manifest["seed"] is None) == (argv[0] != "sim")


def assert_usage_error(argv, out_file):
    """argv, run with --out out_file, exits 2 with one error: line on
    stderr, nothing on stdout and no output file."""
    proc = subprocess.run(
        [sys.executable, "-m", "wignerlab.cli"] + argv
        + ["--out", str(out_file)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert proc.stdout == "" and not out_file.exists()


# a minimal argv of each leaf command, and the flags it reads
LEAVES = {
    "walk from-trajectory": (["walk", "from-trajectory", "1,2,1"],
                             {"--out", "--format"}),
    "walk census": (["walk", "census", "1,2,1"], {"--out", "--format"}),
    "walk enumerate": (["walk", "enumerate", "--s", "2"],
                       {"--out", "--format"}),
    "count catalan": (["count", "catalan"], {"--out", "--format"}),
    "count multi-edge": (["count", "multi-edge", "--l", "2", "--s-max", "3"],
                         {"--out", "--format"}),
    "count subcluster": (["count", "subcluster"], {"--out", "--format"}),
    "count lemma61": (["count", "lemma61"], {"--out", "--format"}),
    "count conjecture": (["count", "conjecture"], {"--out", "--format"}),
    "count heights": (["count", "heights"], {"--out", "--format"}),
    "oracle": (["oracle", "--n", "2", "--rho", "1", "--s", "1"], {"--out"}),
    "sim moments": (["sim", "moments", "--n", "8", "--rho", "2", "--s", "1"],
                    {"--out", "--format", "--seed", "--threads",
                     "--config"}),
    "sim edge": (["sim", "edge", "--n", "8", "--rho", "2"],
                 {"--out", "--format", "--seed", "--threads", "--config"}),
    "sim crossover": (["sim", "crossover", "--n", "8", "--eps", "0"],
                      {"--out", "--format", "--seed", "--threads"}),
    "verify": (["verify", "cli"], {"--out", "--format"}),
}
FLAG_VALUES = {"--out": "x.csv", "--format": "json", "--seed": "1",
               "--threads": "1", "--config": "c.json"}


# s = floor(0.1 * 8^(2/3)) is 0; n = 1000 comes first and would take
# seconds to sample
CROSSOVER_S_ZERO = ["sim", "crossover", "--n", "1000", "--n", "8", "--eps",
                    "0", "--chi", "0.1", "--samples", "40"]
CROSSOVER_ZETA_INF = ["sim", "crossover", "--n", "8", "--eps", "0",
                      "--samples", "2", "--zeta", "1e-310"]
CROSSOVER_ZETA_ZERO = ["sim", "crossover", "--n", "1100", "--eps", "0",
                       "--chi", "0.01", "--zeta", "5e-324", "--samples", "2"]
# a kept entry past the float range: {config_huge_v} sets v = 1e308,
# {config_big_v} v = 5e307.  Each printed RuntimeWarnings before its error:
# line, and exited 5 under a RuntimeWarning filter
# Tr H^(2s) past the float range at s = 1, where no smaller s exists, and
# the advice on v the error line ends with.  {config_huge_v} sets
# v = 1e308, {config_v_1e200} v = 1e200 and {config_tiny_v} v = 1e-170,
# whose Tr H^2 underflows to 0.0.  Each advised a smaller s
SIM_TRACE_RANGE_AT_S1 = {
    ("sim", "moments", "--n", "2", "--rho", "1", "--dist", "gaussian",
     "--config", "{config_v_1e200}", "--s", "1", "--samples", "10"):
        "need a smaller v",
    ("sim", "moments", "--n", "2", "--rho", "1", "--dist", "rademacher",
     "--config", "{config_huge_v}", "--s", "1", "--samples", "10"):
        "need a smaller v",
    ("sim", "moments", "--n", "4", "--rho", "4", "--config",
     "{config_tiny_v}", "--s", "1", "--samples", "10"):
        "need a larger v"}
SIM_ENTRY_OVERFLOW = [
    ["sim", "moments", "--n", "2", "--rho", "1", "--dist", dist, "--config",
     "{config_huge_v}", "--s", "1", "--samples", "100", "--seed", "0"]
    for dist in ("gaussian", "student")] + [
    ["sim", "edge", "--n", "300", "--rho", "300", "--dist", "gaussian",
     "--config", "{config_big_v}", "--samples", "20", "--x-grid=-4,0,4"]]


# standard modules that a command which never runs them must not load
UNUSED_STDLIB = ("dataclasses", "inspect", "fractions", "decimal")


def loaded_by(argv):
    """The sorted wignerlab.* modules, and the UNUSED_STDLIB modules, that
    main(argv) leaves loaded in a fresh ``python -S`` process, in which
    the site hook loads nothing first; numpy's folder is on its path."""
    code = ("import sys\n"
            "from wignerlab import cli\n"
            "assert cli.main(%r) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules"
            " if m.startswith('wignerlab.'))))\n"
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (argv + ["--out", os.devnull], UNUSED_STDLIB))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.dirname(os.path.dirname(module.__file__))
        for module in (cli, numpy)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    library, stdlib = proc.stdout.split("\n")[:2]
    return library.split(), stdlib.split()


class TestLoadScope:
    """Each command imports only the modules it runs."""

    @pytest.mark.parametrize("leaf", [leaf for leaf in LEAVES
                                      if leaf.startswith("count ")])
    def test_count(self, leaf):
        library, stdlib = loaded_by(LEAVES[leaf][0])
        assert library == ["wignerlab.catalan", "wignerlab.cli",
                           "wignerlab.reports"]
        assert stdlib == []

    def test_walk(self):
        library, stdlib = loaded_by(["walk", "enumerate", "--s", "3"])
        assert library == ["wignerlab.cli", "wignerlab.reports",
                           "wignerlab.walks"]
        assert "fractions" not in stdlib and "decimal" not in stdlib

    def test_sim(self):
        # the entry-law table in the package root loads no exact layer
        library, stdlib = loaded_by(["sim", "moments", "--n", "8", "--rho",
                                     "2", "--s", "1", "--samples", "2"])
        assert library == ["wignerlab.cli", "wignerlab.reports",
                           "wignerlab.sim"]
        assert "fractions" not in stdlib and "decimal" not in stdlib

    def test_oracle(self):
        library, _ = loaded_by(["oracle", "--method", "walk", "--n", "3",
                                "--rho", "2", "--s", "2"])
        assert library == ["wignerlab.catalan", "wignerlab.cli",
                           "wignerlab.oracle", "wignerlab.reports",
                           "wignerlab.walks"]


class TestUsage:
    def test_no_subcommand(self, tmp_path):
        assert_usage_error([], tmp_path / "o.csv")

    def test_unknown_subcommand(self, tmp_path):
        assert_usage_error(["frobnicate"], tmp_path / "o.csv")

    def test_flag_surface(self):
        # every leaf parses exactly the flags it reads: 35 pairs of 70
        parser = cli.build_parser()
        accepted = 0
        for name, (argv, reads) in LEAVES.items():
            assert parser.parse_args(argv)
            for flag, value in FLAG_VALUES.items():
                try:
                    parser.parse_args(argv + [flag, value])
                    accepted += 1
                    assert flag in reads, (name, flag)
                except ValueError:
                    assert flag not in reads, (name, flag)
        assert accepted == 35

    @pytest.mark.parametrize("argv", [
        ["walk", "enumerate", "--s", "2", "--config", "c.json"],
        ["walk", "enumerate", "--s", "2", "--seed", "1"],
        ["walk", "enumerate", "--s", "2", "--threads", "-5"],
        ["count", "catalan", "--s-max", "3", "--config", "/nonexistent.json"],
        ["count", "catalan", "--s-max", "3", "--seed", "1"],
        ["count", "catalan", "--s-max", "3", "--threads", "1"],
        ["oracle", "--n", "2", "--rho", "1", "--s", "1", "--config",
         "c.json"],
        ["oracle", "--n", "2", "--rho", "1", "--s", "1", "--seed", "4"],
        ["oracle", "--n", "2", "--rho", "1", "--s", "1", "--threads", "1"],
        ["oracle", "--n", "2", "--rho", "1", "--s", "1", "--format", "csv"],
        ["verify", "cli", "--fast", "--config", "c.json"],
        ["verify", "cli", "--fast", "--seed", "1"],
        ["verify", "cli", "--fast", "--threads", "1"],
        ["--config", "/nope", "count", "catalan"],
        ["--seed", "1", "sim", "crossover", "--n", "8", "--eps", "0",
         "--samples", "2"],
        ["sim", "--seed", "1", "crossover", "--n", "8", "--eps", "0",
         "--samples", "2"],
        ["walk", "enumerate", "--s", "x"],
        ["oracle", "--n", "2", "--rho", "1", "--s", "1", "--dist", "cauchy"],
        ["walk"],
        ["sim", "edge", "--rho", "2", "--samples", "2"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2", "--se",
         "3"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2", "--conf",
         "c.json"],
        ["walk", "enumerate", "--s", "3", "--force"]])
    def test_flag_not_read(self, argv, tmp_path):
        # a flag that the command does not read, a flag before the
        # subcommand or the action, an abbreviated flag, and argparse's own
        # errors
        assert_usage_error(argv, tmp_path / "o.csv")

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md") \
            .read_text(encoding="utf-8")
        section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines()
                 if line.startswith("wignerlab ")]
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            assert parser.parse_args(shlex.split(line)[1:]), line

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "4", "--rho", "2", "--s", "0"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
         "--samples", "1"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "0"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "0"],
        ["sim", "crossover", "--n", "8", "--eps", "0", "--samples", "1"],
        ["sim", "crossover", "--n", "8", "--eps", "0", "--chi", "0"],
        ["walk", "enumerate", "--s", "0"],
        ["sim", "edge", "--n", "10", "--rho", "2", "--samples", "2",
         "--x-grid=,"],
        ["sim", "edge", "--n", "10", "--rho", "2", "--samples", "2",
         "--x-grid=nan,1"],
        ["sim", "edge", "--n", "10", "--eps", "nan", "--samples", "2"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
         "--config", "{bad_config}"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
         "--threads", "-1"],
        ["sim", "crossover", "--n", "8", "--eps", "0", "--chi", "inf",
         "--samples", "2"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
         "--config", "{config_n}"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
         "--config", "{config_rho}"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--config",
         "{config_dist}"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--config",
         "{config_seed}"],
        ["sim", "crossover", "--n", "8", "--eps", "0", "--samples", "2",
         "--config", "{config_v}"],
        ["sim", "moments", "--n", "8", "--rho", "2", "--s", "1",
         "--config", "{config_truncate}"],
        ["sim", "edge", "--n", "4", "--eps", "1e308", "--samples", "1"],
        ["sim", "crossover", "--n", "4", "--eps", "1e308", "--samples", "2"],
        ["sim", "edge", "--n", "-4", "--eps", "0", "--samples", "1"],
        ["sim", "crossover", "--n", "-4", "--eps", "0", "--samples", "2"],
        ["oracle", "--n", "-3", "--rho", "1", "--s", "100000"],
        ["sim", "crossover", "--n", "8", "--n", "-4", "--eps", "0",
         "--samples", "1000000000000"],
        ["sim", "crossover", "--n", "8", "--eps", "0", "--eps", "5",
         "--samples", "1000000000000"],
        CROSSOVER_S_ZERO,
        ["sim", "crossover", "--n", "8", "--eps", "0", "--chi", "1e308",
         "--samples", "2"],
        # thresholds or an eps that are not finite
        ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2",
         "--x-grid=inf"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2",
         "--x-grid=-inf"],
        ["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2",
         "--config", "{config_huge_v}"],
        ["sim", "edge", "--n", "8", "--eps", "inf", "--samples", "2"],
        ["sim", "crossover", "--n", "8", "--eps", "inf", "--samples", "2"],
        # an --n past the float range
        ["sim", "edge", "--n", "1" * 400, "--eps", "0", "--samples", "2"],
        # a Theorem 7.1 bound that was written as inf, and one whose
        # zeta sqrt(pi chi) underflowed to 0.0 (it exited 5)
        CROSSOVER_ZETA_INF, CROSSOVER_ZETA_ZERO,
        # entries past the float range, which printed RuntimeWarnings
        # before their error: line
        *SIM_ENTRY_OVERFLOW, *map(list, SIM_TRACE_RANGE_AT_S1)])
    def test_bad_inputs(self, argv, tmp_path):
        # input errors the library raises as ValueError.  {bad_config} is a
        # config file whose delta is not a number, {config_KEY} one that
        # sets KEY alone
        configs = {"bad_config": {"delta": "x"},
                   "config_n": {"n": 7}, "config_rho": {"rho": 1.0},
                   "config_dist": {"dist": "gaussian"},
                   "config_seed": {"seed": 9}, "config_v": {"v": 0.25},
                   # delta alone sets the truncation: no truncate key
                   "config_truncate": {"truncate": True, "delta": 0.01},
                   "config_huge_v": {"v": 1e308},
                   "config_big_v": {"v": 5e307},
                   "config_v_1e200": {"v": 1e200},
                   "config_tiny_v": {"v": 1e-170}}
        paths = {name: tmp_path / (name + ".json") for name in configs}
        for name, config in configs.items():
            paths[name].write_text(json.dumps(config))
        advice = SIM_TRACE_RANGE_AT_S1.get(tuple(argv))
        argv = [arg.format(**paths) for arg in argv]
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "wignerlab.cli"] + argv,
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        if advice is not None:
            assert proc.stderr.rstrip().endswith(advice)
        if argv == CROSSOVER_S_ZERO:
            # s is checked at every n before n = 1000 is sampled
            assert time.monotonic() - started < 1
            assert "n=8, chi=0.1" in proc.stderr

    def test_threads_above_cpu_count(self, monkeypatch, capsys, tmp_path):
        # refused in process before any BLAS variable is written, so no
        # process or thread ever starts with such a count.  monkeypatch
        # restores the variables, so that a regression cannot leak such a
        # count into the processes later tests start
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        before = {var: os.environ.get(var) for var in blas}
        for var, value in before.items():
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        out_file = tmp_path / "o.csv"
        for count in (os.cpu_count() + 1, 10 ** 6):
            for argv in (["sim", "moments", "--n", "8", "--rho", "2", "--s",
                          "1"],
                         ["sim", "edge", "--n", "8", "--rho", "2"],
                         ["sim", "crossover", "--n", "8", "--eps", "0"]):
                argv = argv + ["--out", str(out_file), "--threads",
                               str(count)]
                code, out, err = run_cli(argv, capsys)
                assert code == 2 and out == ""
                assert err == ("error: thread count must be in 0..%d (the "
                               "CPU count), got %d\n" % (os.cpu_count(),
                                                          count))
                assert not out_file.exists()
                assert {var: os.environ.get(var) for var in blas} == before

    @pytest.mark.parametrize("config", [{"delta": False}, {"v": True}],
                             ids=["delta-false", "v-true"])
    def test_config_bool(self, config, tmp_path):
        # a bool is no number: {"delta": false} ran truncated at n^0 = 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert_usage_error(["sim", "moments", "--n", "8", "--rho", "2",
                            "--s", "1", "--samples", "4", "--config",
                            str(path)], tmp_path / "o.csv")

    @pytest.mark.parametrize("argv", [
        ["sim", "crossover", "--n", "8", "--eps", "0", "--chi", "1e5",
         "--samples", "2"],
        ["sim", "moments", "--n", "8", "--rho", "8", "--s", "2000",
         "--samples", "2"],
        ["sim", "crossover", "--n", "8", "--eps", "0", "--chi", "7",
         "--samples", "4"]],
        ids=["crossover-s-overflow", "moments-underflow", "bound-underflow"])
    def test_no_cell_outside_float_range(self, argv, tmp_path):
        # a cell that would read inf, nan, or an underflowed 0.0 (the bound
        # behind lower_bound_ok included) is a usage error, not a body
        assert_usage_error(argv, tmp_path / "o.csv")

    def test_repeated_s(self, tmp_path):
        # each copy of the s = 1 row read n_samples 20
        assert_usage_error(["sim", "moments", "--n", "8", "--rho", "2",
                            "--s", "1", "--s", "1", "--s", "2",
                            "--samples", "10", "--seed", "3"],
                           tmp_path / "o.csv")

    def test_repeated_crossover_n(self, tmp_path):
        # each copy of the n = 64 row sampled anew
        assert_usage_error(["sim", "crossover", "--n", "64", "--n", "64",
                            "--eps", "0", "--samples", "4"],
                           tmp_path / "o.csv")

    def test_internal_error(self, monkeypatch, capsys, tmp_path):
        # an exception that is no input error, refusal or I/O error
        def broken(args):
            raise RuntimeError("broken handler")
        monkeypatch.setattr(cli, "cmd_count", broken)
        out_file = tmp_path / "o.csv"
        code, out, err = run_cli(["count", "catalan", "--s-max", "3",
                                  "--out", str(out_file)], capsys)
        assert code == 5 and out == ""
        assert err == "internal error: RuntimeError: broken handler\n"
        assert not out_file.exists()

    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wignerlab.cli", "count", "catalan",
             "--s-max", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3,5,5,true" in proc.stdout


# oracle argv values that are not runnable sizes: 0, negatives, 1e308,
# fractions and non-numbers, and an integer past int()'s digit limit
ODD_VALUES = ["0", "-1", "-7", "1e308", "-1e308", "3/2", "1/0", "0/5", "nan",
              "inf", "-inf", "x", "", " ", "0x10", "1" * 5000]
ODD_FLAG = st.one_of(st.sampled_from(ODD_VALUES), st.text(max_size=6),
                     st.integers(-10 ** 6, 10 ** 30).map(str))
# (n, s) that run in milliseconds: n^(2s) <= 10^5
SMALL_SIZES = [(str(n), str(s)) for n in range(1, 7) for s in range(1, 13)
               if n ** (2 * s) <= 10 ** 5]


class _Hang(BaseException):
    """Raised by the alarm: main() cannot report it as an exit code."""


def _main_under_alarm(argv, seconds=20):
    """(exit code, stdout, stderr) of cli.main(argv), run in process under
    an alarm that fails a hang."""
    def hang(signum, frame):
        raise _Hang(argv)

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _runnable(method, n_arg, s_arg, rho_arg):
    """True when oracle would compute a moment for this argv."""
    try:
        n, s, rho = int(n_arg), int(s_arg), Fraction(rho_arg)
        orc.refuse_over_budget(n, s, method)
    except (ValueError, ZeroDivisionError, Refused):
        return False
    return 0 < rho <= n


class TestOracleFuzz:
    """oracle argvs drawn from small sizes and odd values: every exit is 0,
    a usage error, a refusal or an I/O error, with one stderr line and no
    traceback."""

    # the runnable branches are listed twice, so that about a sixth of
    # the examples compute a moment
    @given(method=st.sampled_from(["walk", "trajectory", "both"]),
           size=st.one_of(st.sampled_from(SMALL_SIZES),
                          st.sampled_from(SMALL_SIZES),
                          st.tuples(ODD_FLAG, ODD_FLAG),
                          st.tuples(st.integers(1, 6).map(str), ODD_FLAG),
                          st.tuples(ODD_FLAG, st.integers(1, 12).map(str))),
           rho_arg=st.one_of(st.sampled_from(["1", "2", "1/2", "3/2"]),
                             st.sampled_from(["1", "1/3", "5/4"]),
                             st.fractions().map(str), ODD_FLAG))
    @settings(max_examples=200, deadline=None)
    @example("trajectory", ("3", "30000000"), "1")
    @example("trajectory", ("1", "200000"), "1")
    @example("both", ("9", "6"), "2")
    @example("trajectory", ("-3", "100000"), "1")
    @example("walk", ("4", "9"), "2")
    @example("both", ("4", "2"), "1e308")
    @example("trajectory", ("1e308", "2"), "1")
    @example("walk", ("4", "0"), "2")
    @example("both", ("4", "1"), "x")
    @example("both", ("4", "4"), "3/2")
    @example("walk", ("2", "7"), "1/2")
    @example("trajectory", ("1", "11"), "1")
    def test_exit_codes(self, method, size, rho_arg):
        n_arg, s_arg = size
        runnable = _runnable(method, n_arg, s_arg, rho_arg)
        # keep each example fast
        assume(not runnable or int(n_arg) ** (2 * int(s_arg)) <= 10 ** 5)
        argv = ["oracle", "--method", method, "--n", n_arg, "--s", s_arg,
                "--rho", rho_arg]
        code, out, err = _main_under_alarm(argv)
        event("exit %d" % code)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            assert runnable and err == ""
            assert set(json.loads(out)) == {"value_num", "value_den",
                                            "method_agreement"}
        else:
            assert not runnable and out == ""
            lines = err.splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith(("error:", "refused:"))


def _as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


def _sizes(small, cap):
    """Values of a size flag: a runnable size in small, one above cap,
    which is refused at once, or an odd value; never one between, as a
    size near the cap runs for seconds (count catalan --s-max 3000)."""
    lo, hi = small

    def not_slow(text):
        n = _as_int(text)
        return n is None or not hi < n <= cap
    # the runnable branch is listed twice, so that about half the values
    # are runnable sizes
    return st.one_of(st.integers(lo, hi).map(str),
                     st.integers(lo, hi).map(str),
                     st.integers(cap + 1, 10 ** 30).map(str),
                     st.sampled_from(ODD_VALUES),
                     st.text(max_size=6).filter(not_slow))


def _random_walk(seed):
    rng = random.Random(seed)
    return ",".join(str(rng.randint(1, 8)) for _ in range(2000))


# trajectory strings: a few labels, among them 0, negatives, empty pieces,
# text and a label past int()'s digit limit, or a long walk
TRAJ_LABEL = st.one_of(st.integers(1, 6).map(str),
                       st.sampled_from(["0", "-2", "", " ", "x", "2.5",
                                        "7" * 300, "1" * 5000]))
TRAJECTORIES = st.one_of(
    st.lists(TRAJ_LABEL, max_size=12).map(",".join),
    st.lists(st.integers(1, 6).map(str), min_size=1, max_size=12).map(
        ",".join),
    st.tuples(st.integers(1000, 3000),
              st.sampled_from([",1", "", ",3", ",3,1"])).map(
        lambda a: ",".join(["1,2"] * a[0]) + a[1]),
    st.integers(0, 2 ** 32).map(_random_walk))
# count action -> (flag, runnable sizes) per flag; the caps are
# catalan.COUNT_CAPS
COUNT_FLAGS = {"catalan": [("--s-max", (0, 100))],
               "multi-edge": [("--l", (1, 8)), ("--s-max", (0, 60))],
               "subcluster": [("--s-max", (0, 40))],
               "lemma61": [("--s-max", (0, 80))],
               "conjecture": [("--l-max", (1, 6)), ("--s-max", (0, 40))],
               "heights": [("--s-max", (0, 40))]}
ANY_CELL_INF_NAN = re.compile(r"(?<![a-z_])-?(inf|nan)(?![a-z_])", re.I)


@st.composite
def walk_count_argvs(draw):
    """A walk or count argv; each flag is left out now and then."""
    action = draw(st.sampled_from(["from-trajectory", "census", "enumerate"]
                                  + list(COUNT_FLAGS)))
    sometimes = st.sampled_from([True, True, True, False])
    if action in COUNT_FLAGS:
        argv = ["count", action]
        for flag, small in COUNT_FLAGS[action]:
            if draw(sometimes):
                argv += [flag, draw(_sizes(small, ct.COUNT_CAPS[action]))]
        if action == "multi-edge" and draw(st.booleans()):
            argv.append("--check-closed-form")
        return argv
    if action == "enumerate":
        # never s = 6 or 7, which run for 0.4 s and 5 s
        argv = ["walk", action, "--s", draw(_sizes((1, 5), wk.ENUM_CAP))]
    else:
        argv = ["walk", action, draw(TRAJECTORIES)]
    if draw(sometimes):
        argv += ["--k0", draw(st.one_of(st.integers(2, 14).map(str),
                                        st.integers(2, 14).map(str),
                                        ODD_FLAG))]
    return argv


class TestWalkCountFuzz:
    """walk and count argvs drawn from small sizes, sizes above the caps,
    odd values and odd trajectories: every exit is 0, a usage error, a
    refusal or an I/O error; a failure writes one stderr line and no body,
    a success a header and at least one row, none of them inf or nan."""

    @given(argv=walk_count_argvs())
    @settings(max_examples=300, deadline=None)
    # each of these wrote a manifest and no table, with exit 0
    @example(argv=["count", "heights", "--s-max", "0"])
    @example(argv=["count", "subcluster", "--s-max", "0"])
    @example(argv=["count", "conjecture", "--s-max", "0"])
    @example(argv=["count", "multi-edge", "--l", "5", "--s-max", "2"])
    # the edges of the size rules, refusals and odd trajectories
    @example(argv=["count", "multi-edge", "--l", "10000", "--s-max", "3"])
    @example(argv=["count", "catalan", "--s-max", "0"])
    @example(argv=["count", "lemma61", "--s-max", "0"])
    @example(argv=["walk", "enumerate", "--s", "0"])
    @example(argv=["walk", "enumerate", "--s", "8"])
    @example(argv=["walk", "enumerate", "--s", "1" * 5000])
    @example(argv=["walk", "from-trajectory", W16_TRAJ, "--k0", "1"])
    @example(argv=["walk", "from-trajectory", "1,1"])
    @example(argv=["walk", "census", "1,2,2,1"])
    @example(argv=["walk", "census", "1,,2"])
    @example(argv=["walk", "census", "0,1"])
    @example(argv=["walk", "from-trajectory", "1," + "7" * 300])
    @example(argv=["walk", "from-trajectory", "1," + "1" * 5000])
    @example(argv=["walk", "from-trajectory", ",".join(["1,2"] * 3000)])
    def test_exit_codes(self, argv):
        code, out, err = _main_under_alarm(argv)
        event("%s exit %d" % (argv[1], code))
        assert_csv_or_one_line(argv, code, out, err)


FAILURE_PREFIX = {2: "error:", 3: "refused:", 4: "i/o error:"}


def assert_csv_or_one_line(argv, code, out, err, summary=""):
    """The exit is 0, a usage error, a refusal or an I/O error.  A success
    writes `summary` (a regex) on stderr, and a manifest, a CSV header and
    at least one row, no cell inf or nan; a failure writes one stderr line
    and no body."""
    shown = [a[:40] for a in argv]
    assert code in (0, 2, 3, 4), (shown, err[:200])
    assert "Traceback" not in err
    if code == 0:
        assert re.fullmatch(summary, err), (shown, err[:200])
        lines = out.splitlines(keepends=True)
        assert lines[0].startswith("# manifest:")
        rows = list(csv.reader(io.StringIO("".join(lines[1:]))))
        assert len(rows) >= 2, (shown, rows)    # a header and a row
        assert all(len(row) == len(rows[0]) for row in rows)
        assert not any(ANY_CELL_INF_NAN.search(cell)
                       for row in rows for cell in row), shown
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, (shown, lines)
        assert lines[0].startswith(FAILURE_PREFIX[code]), (shown, lines)


# sim --config files, named by placeholder: {config_KEY} in an argv is the
# path of the file that holds SIM_CONFIGS[KEY]
SIM_CONFIGS = {"huge_v": {"v": 1e308}, "big_v": {"v": 5e307},
               "v": {"v": 0.25},
               "tiny_v": {"v": 1e-170}, "delta": {"delta": 0.1},
               "student": {"df": 3.5}, "text_v": {"v": "x"},
               "dist": {"dist": "gaussian"}, "unknown": {"w": 1},
               "list": [1], "not_json": "{"}


def _floats(lo, hi):
    """A runnable float value, and an odd one."""
    return st.floats(lo, hi).map(repr), ODD_FLAG


def _size(small, cap):
    """A runnable size, and one past cap or an odd value."""
    return st.integers(*small).map(str), _sizes(small, cap)


X_GRID = (st.lists(st.floats(-6, 6), min_size=1, max_size=5).map(
              lambda xs: ",".join(map(repr, sorted(xs)))),
          st.lists(st.one_of(st.floats(-6, 6).map(repr),
                             st.sampled_from(ODD_VALUES)),
                   max_size=5).map(",".join))
DIST = (st.sampled_from(["rademacher", "gaussian", "student"]),
        st.sampled_from(["cauchy", "", "Gaussian"]))
CONFIG = (st.sampled_from(["{config_v}", "{config_delta}",
                           "{config_student}"]),
          st.sampled_from(["{config_%s}" % key for key in SIM_CONFIGS]
                          + ["missing.json"]))


@st.composite
def sim_verify_argvs(draw):
    """A sim or verify argv, each flag as --flag=value.  A value is now and
    then odd; a size is small (n <= 12, crossover n <= 27 with chi <= 1,
    s <= 4, 2 to 4 samples), past DENSE_CAP or SAMPLE_BUDGET, which is
    refused at once, past 10^6 for s, which leaves the float range, or
    odd.  A required flag is left out now and then, an optional one more
    often.  Only verify cli may run."""
    action = draw(st.sampled_from(["moments", "edge", "crossover", "verify"]))
    if action == "verify":
        suite = draw(st.sampled_from(["cli", "cli", "all", "walks",
                                      "catalan", "oracle", "sim"]))
        argv = ["verify", suite]
        if draw(st.booleans()):
            argv.append("--fast")
        if suite != "cli" or draw(st.booleans()):
            argv.append(draw(st.sampled_from(
                ["--format=xml", "--bogus", "extra", "--n=8"])))
        return argv
    # (flag, (runnable values, odd values), required)
    flags = [("--samples", _size((2, 4), sim.SAMPLE_BUDGET), False),
             ("--seed", (st.integers(0, 99).map(str), ODD_FLAG), False)]
    if action == "crossover":
        flags += [("--n", _size((1, 27), sim.DENSE_CAP), True),
                  ("--eps", _floats(-1, 0.5), True),
                  ("--n", _size((1, 27), sim.DENSE_CAP), False),
                  ("--eps", _floats(-1, 0.5), False),
                  ("--chi", _floats(0.1, 1), False),
                  ("--zeta", _floats(0.1, 1), False)]
    else:
        flags += [("--n", _size((1, 12), sim.DENSE_CAP), True),
                  ("--dist", DIST, False), ("--config", CONFIG, False)]
    if action == "moments":
        flags += [("--rho", _floats(0.1, 1), True),
                  ("--s", _size((1, 4), 10 ** 6), True),
                  ("--s", _size((1, 4), 10 ** 6), False)]
    if action == "edge":
        # one of --rho and --eps, now and then both or neither
        rho_first = draw(st.booleans())
        flags += [("--rho", _floats(0.1, 1), rho_first),
                  ("--eps", _floats(-1, 0.5), not rho_first),
                  ("--x-grid", X_GRID, False)]
    argv = ["sim", action]
    for flag, values, required in flags:
        if draw(st.integers(0, 9)) < (9 if required else 4):
            odd = draw(st.integers(0, 5)) == 5
            argv.append("%s=%s" % (flag, draw(values[odd])))
    return argv


class TestSimVerifyFuzz:
    """sim and verify argvs drawn as in sim_verify_argvs, held to the
    same rules as TestWalkCountFuzz."""

    @pytest.fixture(scope="class")
    def config_paths(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("sim_configs")
        paths = {}
        for key, config in SIM_CONFIGS.items():
            paths["config_" + key] = folder / (key + ".json")
            paths["config_" + key].write_text(
                config if isinstance(config, str) else json.dumps(config))
        return paths

    @given(argv=sim_verify_argvs())
    @settings(max_examples=300, deadline=None)
    # each of these exited 5: an --n past the float range
    @example(argv=["sim", "edge", "--n", "1" * 400, "--rho", "2",
                   "--samples", "2"])
    @example(argv=["sim", "edge", "--n", "1" * 400, "--eps", "0",
                   "--samples", "2"])
    @example(argv=["sim", "moments", "--n", "1" * 400, "--rho", "2",
                   "--s", "1", "--samples", "2"])
    # cells outside the float range, and a vacuous bound
    @example(argv=["sim", "moments", "--n", "8", "--rho", "8", "--s",
                   "2000", "--samples", "2"])
    @example(argv=["sim", "crossover", "--n", "8", "--eps", "0", "--chi",
                   "1e5", "--samples", "2"])
    @example(argv=["sim", "crossover", "--n", "8", "--eps", "0", "--chi",
                   "7", "--samples", "4"])
    # a bound written as inf, and one whose zeta sqrt(pi chi) underflowed
    # to 0.0 (exit 5)
    @example(argv=CROSSOVER_ZETA_INF)
    @example(argv=CROSSOVER_ZETA_ZERO)
    # Lanczos vectors whose norm underflowed: wrong counts
    @example(argv=["sim", "edge", "--n", "300", "--rho", "30", "--samples",
                   "4", "--x-grid=-4,0,4", "--config", "{config_tiny_v}"])
    # a kept entry past the float range
    @example(argv=SIM_ENTRY_OVERFLOW[0])
    @example(argv=SIM_ENTRY_OVERFLOW[1])
    @example(argv=SIM_ENTRY_OVERFLOW[2])
    @example(argv=["verify", "cli"])
    def test_exit_codes(self, argv, config_paths):
        for key, path in config_paths.items():
            argv = [arg.replace("{%s}" % key, str(path)) for arg in argv]
        code, out, err = _main_under_alarm(argv)
        event("%s exit %d" % (argv[1], code))
        summary = (r"verify cli: \d+ pass, 0 fail, \d+ report\n"
                   if argv[0] == "verify" else "")
        assert_csv_or_one_line(argv, code, out, err, summary)


class TestReports:
    @pytest.mark.parametrize("value, cell", [
        (True, "true"), (False, "false"), (7, "7"), (-12, "-12"),
        (0.1, "0.1"), (1e-20, "1e-20"), (2.0, "2.0"),
        (Fraction(-3, 4), "-3/4"), (Fraction(5), "5/1"),
        ((1, (2, 3)), "(1, (2, 3))"), ("a,b", "a,b"), ("", "")],
        ids=["true", "false", "int", "negative-int", "float", "float-exp",
             "float-whole", "fraction", "fraction-whole", "tuple", "str",
             "empty-str"])
    def test_csv_cell(self, value, cell):
        # bool is tested before int: True is "true", never "1"
        assert reports._csv_cell(value, (Fraction,)) == cell

    def test_fraction_serialization(self, capsys):
        from fractions import Fraction
        reports.emit_report([{"v": Fraction(1, 4), "ok": True}], "csv", None,
                            reports.run_manifest("test", {}))
        body = capsys.readouterr().out.split("\n", 1)[1]
        assert body == "v,ok\n1/4,true\n"

    def test_json_fraction(self, capsys):
        from fractions import Fraction
        manifest = reports.run_manifest("test", {})
        reports.emit_report([{"v": Fraction(1, 4)}], "json", None, manifest)
        out = capsys.readouterr().out
        assert '{"v": {"den": "4", "num": "1"}}' in out

    def test_failing_source_leaves_no_file(self, tmp_path):
        def records():
            yield {"a": 1}
            raise ValueError("bad record")
        manifest = reports.run_manifest("test", {})
        out_file = tmp_path / "r.csv"
        with pytest.raises(ValueError):
            reports.emit_report(records(), "csv", str(out_file), manifest)
        assert os.listdir(tmp_path) == []
        # an earlier file at the path stays as it was
        out_file.write_text("old\n")
        with pytest.raises(ValueError):
            reports.emit_report(records(), "json", str(out_file), manifest)
        assert os.listdir(tmp_path) == ["r.csv"]
        assert out_file.read_text() == "old\n"

    def test_device_written_in_place(self, capsys):
        assert cli.main(["count", "catalan", "--s-max", "3",
                         "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""
        assert not os.path.isfile(os.devnull)

    @pytest.mark.parametrize("argv, extra", [
        (["walk", "enumerate", "--s", "2"], set()),
        (["count", "catalan", "--s-max", "3"], set()),
        (["sim", "edge", "--n", "8", "--rho", "2", "--samples", "2"],
         {"counters"}),
        (["verify", "cli", "--fast"], {"timings"})],
        ids=["walk", "count", "edge", "verify"])
    def test_manifest_line(self, argv, extra, capsys):
        # the README's keys, sorted; counters and timings only where the
        # run has them
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("# manifest: ")
        manifest = json.loads(header[len("# manifest: "):])
        assert header == "# manifest: " + json.dumps(manifest, sort_keys=True)
        assert set(manifest) == {"subcommand", "config", "seed", "version",
                                 "started", "finished"} | extra
        assert manifest["subcommand"] == argv[0]

    def test_empty_csv(self, capsys):
        manifest = reports.run_manifest("test", {})
        reports.emit_report([], "csv", None, manifest)
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("# manifest:")
