"""Exception types shared across the simulator."""

from __future__ import annotations


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class ZeroStateError(SimulatorError):
    """An operation that needs a nonzero state received one with zero norm."""


class NonFiniteError(SimulatorError):
    """A state's norm is not a finite number: an amplitude is infinite or
    NaN, or the norm passes the largest float."""


class FactorizationError(SimulatorError, ValueError):
    """A state does not factor across a requested path split, so the paths
    kept do not hold a pure state of their own."""


class OverlappingPathsError(SimulatorError):
    """Tensor product operands share a path identifier."""


class SpecInvariantError(SimulatorError):
    """An element spec violates one of its structural invariants."""


class UnexpectedFrequencyError(SimulatorError):
    """A photon sits on an element input path with a frequency bin the
    element does not expect; the circuit is miswired."""


class CapExceededError(SimulatorError):
    """A step would exceed a fixed resource cap: the dense oracle's mode or
    photon caps, or the array engine's term budget or ``int8`` occupations."""


class CompileError(SimulatorError):
    """A circuit AST cannot be lowered to an executable pipeline."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line else message)
