"""Combinatorial and Monte Carlo toolkit for dilute Wigner matrix moments.

Subpackages:
    walks   -- closed even walks: canonical form, marked steps, reductions, cells
    catalan -- exact Catalan-family counting and bound evaluators
    oracle  -- exact rational moments for small (n, s)
    sim     -- Monte Carlo sampling of dilute Wigner matrices
    cli     -- command line entry point
"""

import math

__version__ = "0.1.0"


def _gaussian_moment(l, v, df):
    return v ** (2 * l) * math.prod(range(1, 2 * l, 2))


def _student_moment(l, v, df):
    """V_2l of t_df rescaled to variance v^2, finite for 2l < df."""
    if 2 * l >= df:
        raise ValueError("student df=%s has no moment V_%d" % (df, 2 * l))
    return _gaussian_moment(l, v, df) * (df - 2) ** l / math.prod(
        df - 2 * i for i in range(1, l + 1))


# Entry laws a_ij of variance v^2: V_2l(l, v, df), exact for Fraction v, df
ENTRY_LAWS = {"rademacher": lambda l, v, df: v ** (2 * l),
              "gaussian": _gaussian_moment, "student": _student_moment}


class Refused(RuntimeError):
    """Raised by every work guardrail instead of starting the work; estimate
    is the size of the request in walks, sequences, trees or matrix entries:
    an int, or a decimal.Decimal for n^(2s) trajectory sequences."""

    def __init__(self, message: str, estimate):
        super().__init__(message)
        self.estimate = estimate
