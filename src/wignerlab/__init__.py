"""Combinatorial and Monte Carlo toolkit for dilute Wigner matrix moments.

Subpackages:
    walks   -- closed even walks: canonical form, marked steps, reductions, cells
    catalan -- exact Catalan-family counting and bound evaluators
    oracle  -- exact rational moments for small (n, s)
    sim     -- Monte Carlo sampling of dilute Wigner matrices
    cli     -- command line entry point
"""

__version__ = "0.1.0"


class Refused(RuntimeError):
    """Raised by every work guardrail instead of starting the work; estimate
    is the size of the request in walks, sequences, trees or matrix entries:
    an int, or a decimal.Decimal for n^(2s) trajectory sequences."""

    def __init__(self, message: str, estimate):
        super().__init__(message)
        self.estimate = estimate
