"""The fast invariant suites must be green and well-formed."""

import pytest

from wignerlab import verify


@pytest.fixture(scope="module")
def fast_runs():
    """Each suite's fast run, as (seconds, record) pairs, built once for the
    module's tests."""
    return {name: list(verify.run(name, fast=True)) for name in verify.SUITES}


def test_fast_suites_pass(fast_runs):
    for name, pairs in fast_runs.items():
        assert pairs, name
        assert all(rec["suite"] == name and seconds >= 0
                   for seconds, rec in pairs)
        failed = [rec["check"] for _, rec in pairs if rec["status"] == "fail"]
        assert not failed, failed


def test_check_ids_are_unique_and_addressable(fast_runs):
    seen = set()
    for name, pairs in fast_runs.items():
        for _, check in pairs:
            assert check["check"].startswith(name + "."), check["check"]
            assert check["check"] not in seen
            seen.add(check["check"])
