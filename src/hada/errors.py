"""Exception hierarchy for the hada package."""


class HadaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HadaError):
    """Operands live in projective spaces of different dimension."""


class StratumError(HadaError):
    """A coordinate-degeneracy precondition failed.

    Carries the name of the violated condition so callers know which
    classification operation to use instead.
    """


class MembershipError(HadaError):
    """A point claimed to lie on a line or hyperplane does not."""


class UnsupportedShapeError(HadaError):
    """Hyperplane pair outside the closed-form product cases.

    Products of hyperplanes outside the coordinate and binomial cases
    have no closed form here, and no other routine in this package
    computes them.
    """


class ArrangementError(HadaError):
    """A set-times-line product is not expressible as a line arrangement."""


class GridConditionError(HadaError):
    """Grid hypotheses failed.  Carries the witness pair and, when the
    brute-force product set was computed anyway, that set."""

    def __init__(self, message, witness=None, products=None, expected=None):
        super().__init__(message)
        self.witness = witness
        self.products = products
        self.expected = expected


class SamplingError(HadaError):
    """Seeded rejection sampling exhausted its retry budget."""


class InstanceError(HadaError):
    """Malformed instance file; message carries field context."""
