"""Combinatorial and Monte Carlo toolkit for dilute Wigner matrix moments.

Subpackages:
    walks   -- closed even walks: canonical form, marked steps, reductions, cells
    catalan -- exact Catalan-family counting and bound evaluators
    oracle  -- exact rational moments for small (n, s)
    sim     -- Monte Carlo sampling of dilute Wigner matrices
    cli     -- command line entry point
"""

import collections
import math

__version__ = "0.1.0"

DEFAULT_V, DEFAULT_DF = 0.5, 14.0  # the ensemble's default v and df


def _gaussian_moment(l, v, df):
    return v ** (2 * l) * math.prod(range(1, 2 * l, 2))


def _student_moment(l, v, df):
    """V_2l of t_df rescaled to variance v^2, finite for 2l < df."""
    if 2 * l >= df:
        raise ValueError("student df=%s has no moment V_%d" % (df, 2 * l))
    return _gaussian_moment(l, v, df) * (df - 2) ** l / math.prod(
        df - 2 * i for i in range(1, l + 1))


# An entry law a_ij of variance v^2: moment(l, v, df) is V_2l, exact for
# Fraction v and df; draw(rng, size, v, df) takes size raw values from a
# numpy Generator, and the map x -> (x c1 - c2) c3, (c1, c2, c3) =
# affine(v, df), makes them a_ij.  A new law is one more row
EntryLaw = collections.namedtuple("EntryLaw", "moment draw affine")
ENTRY_LAWS = {
    "rademacher": EntryLaw(lambda l, v, df: v ** (2 * l),
                           lambda rng, size, v, df: rng.integers(0, 2, size),
                           lambda v, df: (2.0, 1.0, v)),
    "gaussian": EntryLaw(_gaussian_moment,
                         lambda rng, size, v, df: rng.normal(0.0, v, size),
                         lambda v, df: (1.0, 0.0, 1.0)),
    "student": EntryLaw(_student_moment,
                        lambda rng, size, v, df: rng.standard_t(df, size),
                        lambda v, df: (1.0, 0.0, v / math.sqrt(
                            df / (df - 2.0))))}


class Refused(RuntimeError):
    """Raised by every work guardrail instead of starting the work; estimate
    is the size of the request in walks, sequences, trees or matrix entries:
    an int, or a decimal.Decimal for n^(2s) trajectory sequences."""

    def __init__(self, message: str, estimate):
        super().__init__(message)
        self.estimate = estimate
