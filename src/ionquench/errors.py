"""Exception types shared across the package.

ConfigError maps to CLI exit code 2, SimulationError (and plain
ValueError from bad numeric arguments) to exit code 3.
"""


class ConfigError(Exception):
    """Invalid or missing run-configuration input."""


class SimulationError(Exception):
    """Base class for physics and numerics failures."""


class StabilityError(SimulationError):
    """Chain or quadratic boson model is unstable (imaginary frequency)."""


class ResonanceError(SimulationError):
    """Drive frequency sits on a phonon mode; couplings diverge."""


class ConvergenceError(SimulationError):
    """Iterative solver failed to reach the requested residual."""


class SectorError(SimulationError):
    """State or operator does not live in the requested excitation sector."""


class SizeError(SimulationError):
    """A block or an expansion fails the size rule, or a dense spectrum
    is asked of a rep above DENSE_CAP."""


class EmptySelectionError(SimulationError):
    """Post-selection rejected every shot."""

    def __init__(self, message: str, acceptance_fraction: float = 0.0):
        super().__init__(message)
        self.acceptance_fraction = acceptance_fraction
