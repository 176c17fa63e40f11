"""The three exceptions that cone-forge raises, one per kind of outcome.

InputError: an argument, file or value that a routine does not accept;
`cone-forge` prints one `error:` line and exits 2.  NumericalFailure: a
computation on accepted input that gives no trustworthy result (a
non-finite quadrature, a too-coarse grid, a search that gives up); one
`error:` line and exit 1.  VerificationFailed: a check of a result or of a
built object's invariants fails; one `verification failed:` line and exit
1.  Any other exception is a fault of the program and is not caught.
"""

__all__ = ["InputError", "NumericalFailure", "VerificationFailed"]


class InputError(ValueError):
    """The input is outside what the routine accepts: exit 2."""


class NumericalFailure(RuntimeError):
    """The computation on accepted input gave no usable result: exit 1."""


class VerificationFailed(Exception):
    """A check of a result or an invariant failed: exit 1."""
