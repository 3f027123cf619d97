"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse/validation failures exit 1,
dimension/size failures exit 2, oracle failures exit 3.
"""
from __future__ import annotations


class EigensampleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EigensampleError):
    """Malformed text input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotHermitian(EigensampleError):
    pass


class NotUnitary(EigensampleError):
    pass


class DimensionMismatch(EigensampleError):
    pass


class TooLarge(EigensampleError):
    """Instance exceeds the desk-scale bound for dense simulation."""


class TermTooLarge(EigensampleError):
    """A Hamiltonian term acts on more qubits than dense exponentiation supports."""


class EmptyHamiltonian(EigensampleError):
    pass


class EmptyCircuit(EigensampleError):
    pass


class MetricMismatch(EigensampleError):
    pass


class OracleFailure(EigensampleError):
    """A sampling oracle failed to produce usable draws within its retry budget."""
