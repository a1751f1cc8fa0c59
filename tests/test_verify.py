"""The fast invariant suites must be green and well-formed."""

from wignerlab import verify


def test_fast_suites_pass():
    for name, fn in verify.SUITES.items():
        rep = fn(fast=True)
        assert rep.suite == name
        assert rep.checks, name
        failed = [c.id for c in rep.checks if c.status == "fail"]
        assert not failed, failed


def test_check_ids_are_unique_and_addressable():
    seen = set()
    for name, fn in verify.SUITES.items():
        for check in fn(fast=True).checks:
            assert check.id.startswith(name + "."), check.id
            assert check.id not in seen
            seen.add(check.id)
