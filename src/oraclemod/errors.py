"""Exception types shared across the package."""


class OracleModError(Exception):
    """Base class for all package-specific errors."""


class UnknownLabel(OracleModError):
    """A label or name was referenced that the poset, frame, container or
    list of suites does not declare."""


class AntisymmetryViolation(OracleModError):
    """The input relation has a cycle among distinct labels."""


class FrameMismatch(OracleModError):
    """An operation mixed elements or tables belonging to different frames,
    or was given none to tell its frame by."""


class SizeLimitExceeded(OracleModError):
    """A construction, enumeration or evaluation would exceed its size or
    fuel bound."""


class ArityError(OracleModError):
    """An encoder was called with the wrong number of arguments."""


class TermSyntaxError(OracleModError):
    """A combinator term source string does not match the grammar."""


class UnknownConstant(OracleModError):
    """A term source mentions an identifier that was never declared."""


class NotEquifoliate(OracleModError):
    """A tree offered for an equifoliate certificate has two sibling
    subtrees with different member sets."""


class NotElementary(OracleModError):
    """A reducer term mentions oracle constants, so it lies outside the
    elementary (constant-free) subalgebra."""


class InternalInvariantViolation(OracleModError):
    """A condition that should be unreachable was observed; indicates a bug."""
