"""Exception hierarchy for the solver library."""


class HJBError(Exception):
    """Base class for all library errors."""


class BadParams(HJBError):
    """Invalid construction parameters."""


class NotOnBoundary(HJBError):
    """A point expected on the boundary is not on it."""


class OutsideTube(HJBError):
    """Point too far from the boundary for a well-defined projection."""


class OutOfLayer(HJBError):
    """Point outside the requested boundary layer."""


class NoConvergence(HJBError):
    """Newton iteration failed to converge."""


class OutsideDomain(HJBError):
    """Point outside the closed domain."""


class LocationFailure(HJBError):
    """Point location failed; signals a mesh bug."""


class RegularityViolation(HJBError):
    """Mesh shape constant below the requested threshold."""


class Unstable(HJBError):
    """Sweep values exceeded the blow-up guard."""


class NoCrossing(HJBError):
    """Segment does not cross a Dirichlet boundary piece."""


class TooLarge(HJBError):
    """Instance too large for brute-force enumeration."""


class ConfigError(HJBError):
    """Invalid study configuration."""
