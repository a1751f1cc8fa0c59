"""Correctness gates on the bodies the benchmark ops write.

Every op has a semantic gate built from the library's own dual routes or
from the repository's own statistical bounds.  Exact ops are also pinned by
the SHA-256 of their body, without the timestamped manifest line, against
``digests.json``.  A gate never raises: it returns an error string, or ""
when the body passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

# Canonical even closed walks of 2s steps, s = 1..6.
EVEN_WALKS = {1: 1, 2: 3, 3: 16, 4: 122, 5: 1209, 6: 14829}


def strip_manifest(text: str) -> str:
    if text.startswith("# manifest:"):
        return text.split("\n", 1)[1] if "\n" in text else ""
    return text


def digest(text: str) -> str:
    return hashlib.sha256(strip_manifest(text).encode("utf-8")).hexdigest()


def body_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(strip_manifest(text))))


def _true(value: str) -> bool:
    return value in ("true", "True")


def _all_true(rows, column, where=lambda r: True) -> str:
    bad = [r for r in rows if where(r) and not _true(r[column])]
    if not rows:
        return "empty body"
    return "%d rows with %s false" % (len(bad), column) if bad else ""


def _walk_rows(text, p):
    rows = body_rows(text)
    want = EVEN_WALKS[p["s"]]
    return "" if len(rows) == want else "%d rows, want %d" % (len(rows), want)


def _oracle(text, p):
    value = json.loads(text)
    if int(value["value_num"]) <= 0 or int(value["value_den"]) <= 0:
        return "moment is not positive"
    if p.get("method") == "both" and value["method_agreement"] is not True:
        return "trajectory and walk methods disagree"
    return ""


def _audit(text, p):
    rows = body_rows(text)
    return _all_true(rows, "bound_ok") or _all_true(rows, "eq_5_15_ok")


def _match(text, p):
    return _all_true(body_rows(text), "match")


def _conjecture(text, p):
    # the closed form is a theorem for l <= 3 and a conjecture above
    return _all_true(body_rows(text), "match", lambda r: int(r["l"]) <= 3)


def _lemma61(text, p):
    return _all_true(body_rows(text), "holds_for_d_ge_3")


def _heights(text, p):
    marginal: dict[int, int] = {}
    for r in body_rows(text):
        marginal[int(r["s"])] = marginal.get(int(r["s"]), 0) + int(r["value"])
    bad = [s for s in range(1, p["s_max"] + 1)
           if marginal.get(s) != math.comb(2 * s, s) // (s + 1)]
    return "height marginals differ from Catalan at s=%s" % bad[:5] if bad else ""


def _semicircle(text, p):
    # criterion 7: relative error <= 5% against Catalan / 4^s
    bad = []
    for r in body_rows(text):
        s = int(r["s"])
        target = math.comb(2 * s, s) // (s + 1) / 4.0 ** s
        rel = abs(float(r["mean"]) / p["n"] - target) / target
        if not rel <= 0.05:
            bad.append((s, rel))
    return "relative error above 5%%: %s" % bad if bad else ""


def _oracle_z(text, p):
    # criterion 6: |z| <= 4 against the exact walk-method moment
    from wignerlab import oracle as orc
    bad = []
    for r in body_rows(text):
        s = int(r["s"])
        exact = float(orc.exact_moment_walk(orc.make_spec(p["n"], p["rho"], s)))
        z = abs(float(r["mean"]) - exact) / float(r["stderr"])
        if not z <= 4.0:
            bad.append((s, z))
    return "z above 4: %s" % bad if bad else ""


def _edge(text, p):
    rows = body_rows(text)
    probs = [float(r["tail_prob"]) for r in rows]
    if len(rows) != len(p["x_grid"]):
        return "%d rows, want %d" % (len(rows), len(p["x_grid"]))
    if not all(0.0 <= q <= 1.0 for q in probs):
        return "tail probability outside [0, 1]"
    if any(a < b for a, b in zip(probs, probs[1:])):
        return "tail curve is not monotone"
    return ""


def _crossover(text, p):
    rows = body_rows(text)
    s = int(math.floor(p["chi"] * p["n"] ** (2.0 / 3.0)))
    if len(rows) != 1 or int(rows[0]["s"]) != s:
        return "want one row at s=%d" % s
    means = [float(rows[0][k]) for k in ("mean_rademacher", "mean_gaussian")]
    if not all(math.isfinite(m) and m > 0 for m in means):
        return "trace moments not finite and positive"
    return ""


GATES = {"walk_rows": _walk_rows, "oracle": _oracle, "audit": _audit,
         "match": _match, "conjecture": _conjecture, "lemma61": _lemma61,
         "heights": _heights, "semicircle": _semicircle,
         "oracle_z": _oracle_z, "edge": _edge, "crossover": _crossover}


def check(op: dict, text: str, digests: dict) -> str:
    """"" if the op's body passes its gates, else the first failure."""
    try:
        err = GATES[op["gate"]](text, op["params"])
    except Exception as exc:  # a malformed body fails its gate
        return "gate %s: %s: %s" % (op["gate"], type(exc).__name__, exc)
    if err:
        return "gate %s: %s" % (op["gate"], err)
    if op.get("digest"):
        want = digests.get(op["name"])
        got = digest(text)
        if want != got:
            return "body digest %s, recorded %s" % (got[:12], str(want)[:12])
    return ""
