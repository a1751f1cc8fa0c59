"""The fast invariant suites must be green and well-formed."""

import pytest

from wignerlab import verify


@pytest.fixture(scope="module")
def fast_reports():
    """Each suite's fast report, built once for the module's tests."""
    return {name: fn(fast=True) for name, fn in verify.SUITES.items()}


def test_fast_suites_pass(fast_reports):
    for name, rep in fast_reports.items():
        assert rep.suite == name
        assert rep.checks, name
        failed = [c["check"] for c in rep.checks if c["status"] == "fail"]
        assert not failed, failed


def test_check_ids_are_unique_and_addressable(fast_reports):
    seen = set()
    for name, rep in fast_reports.items():
        for check in rep.checks:
            assert check["check"].startswith(name + "."), check["check"]
            assert check["check"] not in seen
            seen.add(check["check"])
