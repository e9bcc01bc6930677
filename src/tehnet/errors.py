"""Exception types shared across the package."""


class TehnetError(Exception):
    """Base class for every error raised by this package."""


class SpecError(TehnetError, ValueError):
    """A network specification is malformed or inconsistent."""


class NotPowerOfTwoError(SpecError):
    """The hypercube node count is not an exact power of two."""


class NonPositiveDimensionError(SpecError):
    """A dimension (rows, columns, or cube node count) is below one."""


class FamilyMismatchError(SpecError):
    """Dimensions are incompatible with the requested network family."""


class AddressOutOfRangeError(TehnetError, ValueError):
    """A node address component violates its bound for the given network."""


class IndexOutOfRangeError(TehnetError, IndexError):
    """A dense node index is outside 0..node_count-1."""


class UnsupportedFormatError(TehnetError, ValueError):
    """An unknown serialization format name was requested."""


class ResourceLimitError(TehnetError, RuntimeError):
    """An operation would exceed the configured node or size cap."""


class TooManyFaultsError(TehnetError, ValueError):
    """More faults were requested than elements available to fail."""


class CountOutOfRangeError(TehnetError, ValueError):
    """A count, node cap or seed is not an ``int``, or a count is below its bound."""
