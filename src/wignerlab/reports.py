"""Deterministic CSV / JSON Lines report emission with run manifests.

Every output file starts with a single manifest comment line: "# manifest: "
and the manifest, a plain dict (run_manifest), as JSON with sorted keys.
The body that follows is a pure function of the manifest's resolved
configuration, so reruns with equal manifests produce byte-identical
bodies.  Exact rationals serialize as "num/den" in CSV and as
{"num": ..., "den": ...} objects in JSON.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable

from . import __version__


def run_manifest(subcommand: str, config: dict,
                 seed: int | None = None) -> dict:
    """The manifest of a run started now, with finished still empty; the
    caller stamps finished (utc_now) and adds counters (work counters) or
    timings (seconds per verify check) when it has them."""
    return {"subcommand": subcommand, "config": config, "seed": seed,
            "version": __version__, "started": utc_now(), "finished": ""}


def utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _fraction_types() -> tuple:
    """(fractions.Fraction,) once that module is loaded, else (): no
    Fraction exists before it is, so a report without one never loads it.
    A writer resolves this once per report, after its first record."""
    module = sys.modules.get("fractions")
    return (module.Fraction,) if module is not None else ()


def _csv_cell(value, fraction: tuple) -> str:
    kind = type(value)
    if kind is int or kind is str:  # most cells; bool is not int here
        return str(value)
    if isinstance(value, fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value, fraction: tuple):
    if isinstance(value, fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v, fraction) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v, fraction) for k, v in value.items()}
    return str(value)


def _write_csv(stream, records: Iterable[dict]) -> None:
    """A header row from the first record's keys, then one row per record;
    nothing at all when there are no records."""
    writer = csv.writer(stream, lineterminator="\n")
    for i, rec in enumerate(records):
        if i == 0:
            fraction = _fraction_types()
            writer.writerow(list(rec.keys()))
        writer.writerow([_csv_cell(v, fraction) for v in rec.values()])


@contextlib.contextmanager
def open_output(path: str | None):
    """A text stream to path, or stdout when path is None.

    The text goes to a temporary file in the target's directory, which
    replaces the target after the last byte and is removed on any
    exception: no half-written file is ever left.  A path that exists and
    is not a regular file (/dev/null, a pipe) is written in place.
    """
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    atomic = os.path.isfile(target) or not os.path.exists(target)
    tmp = "%s.%d.tmp" % (target, os.getpid()) if atomic else target
    try:
        stream = open(tmp, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IOError("cannot write %r: %s" % (path, exc)) from exc
    try:
        with stream:
            yield stream
        if atomic:
            os.replace(tmp, target)
    except BaseException:
        if atomic and os.path.exists(tmp):
            os.remove(tmp)
        raise


def emit_report(records: Iterable[dict], fmt: str, path: str | None,
                manifest: dict) -> None:
    """Stream records to path (or stdout) as CSV or JSON Lines.

    The first record is drawn before anything is opened or written, so a
    record source that refuses at once (a generator that checks its input
    on first use) leaves no output and no file; one that fails later
    leaves no file either (see open_output).
    """
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    records = iter(records)
    first = list(itertools.islice(records, 1))
    records = itertools.chain(first, records)
    with open_output(path) as stream:
        stream.write("# manifest: " + json.dumps(manifest, sort_keys=True)
                     + "\n")
        if fmt == "csv":
            _write_csv(stream, records)
        else:
            fraction = _fraction_types()
            for rec in records:
                stream.write(json.dumps({k: _json_value(v, fraction)
                                         for k, v in rec.items()},
                                        sort_keys=True) + "\n")
