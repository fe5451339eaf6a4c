"""Exception types shared across the package."""


class KacfusionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTypeError(KacfusionError, ValueError):
    """Unknown or unsupported simple type label, or invalid rank."""


class CapacityError(KacfusionError):
    """An enumeration would exceed a configured size bound."""


class LatticeError(KacfusionError, ValueError):
    """A vector does not lie in the lattice required by an operation."""


class LevelError(KacfusionError, ValueError):
    """A weight has the wrong level, or a level datum is inconsistent."""


class ChamberError(KacfusionError):
    """A chamber reduction hit a wall or failed to terminate."""


class PolarPointError(KacfusionError):
    """A series quotient was evaluated too close to a zero of the denominator."""


class FusionError(KacfusionError):
    """Verlinde numbers failed integrality or positivity checks."""
