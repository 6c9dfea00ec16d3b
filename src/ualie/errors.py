"""Exception hierarchy shared across the package."""


class UalieError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(UalieError):
    """Operands live over different fields."""


class DivisionByZero(UalieError, ZeroDivisionError):
    """Exact division by the zero scalar."""


class CapExceeded(UalieError):
    """A size cap (field order, ring order, search space) was exceeded."""


class AmbientMismatch(UalieError):
    """Subspaces of different ambient dimension were combined."""


class DimensionMismatch(UalieError):
    """An element or a list of basis names has the wrong length."""


class UnknownCatalogName(UalieError):
    """Requested builtin algebra does not exist."""


class BadParams(UalieError):
    """Builtin algebra parameters are invalid."""


class BadCharacteristic(UalieError):
    """Field characteristic unsupported by a construction."""


class UnsupportedField(UalieError):
    """Operation is not available over the given field."""


class OrderMismatch(UalieError):
    """Finite rings of different order cannot be compared elementwise."""


class HypothesesNotMet(UalieError):
    """A constructive criterion was invoked outside its hypotheses."""


class PerfectAlgebra(UalieError):
    """The algebra equals its own derived subalgebra."""


class InvalidStructure(UalieError):
    """Structure constants fail validation (antisymmetry data or Jacobi)."""
