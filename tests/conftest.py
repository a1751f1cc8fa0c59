"""Shared pytest plumbing: the acceptance scoreboard and a call profiler.

Acceptance tests record one line per criterion; printing happens in the
terminal summary so the lines survive output capture.
"""

import sys
import types

import pytest

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES,
                       key=lambda l: int(l.split(":")[0].split()[-1])):
        terminalreporter.write_line(line)


class _Stepped(BaseException):
    """Stops a profiled call at its first nested function call."""


@pytest.fixture
def first_nested_call():
    """first_nested_call(module, fn, *args) runs fn(*args) under a profiler
    until it calls a function defined inside one of module's functions, and
    returns (name of that function or None, fn's result or raised
    exception).  A test sees whether a search helper would take a step,
    and a search that starts where it should have refused cannot hang it.
    """
    def run(module, fn, *args):
        top = {f.__code__ for f in vars(module).values()
               if isinstance(f, types.FunctionType)}

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == module.__file__ \
                    and code not in top:
                raise _Stepped(code.co_name)

        sys.setprofile(profile)
        try:
            return None, fn(*args)
        except _Stepped as stop:
            return stop.args[0], None
        except Exception as exc:
            return None, exc
        finally:
            sys.setprofile(None)
    return run
