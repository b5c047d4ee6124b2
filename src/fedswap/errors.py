"""Exception types raised by the simulator."""


class FedswapError(Exception):
    """Base class for all simulator errors."""


class ZeroNormVector(FedswapError):
    """A decoder vector has zero magnitude; cosine distance is undefined."""


class DimensionMismatch(FedswapError):
    """Parameter vectors of different dimensions were combined."""


class EmptyInput(FedswapError):
    """An aggregate operation received no inputs."""


class ManifestMismatch(FedswapError):
    """A decoder's size does not match the backbone's decoder layout."""


class TooFewDecoders(FedswapError):
    """Clustering requires at least two decoders."""


class InvalidAssignment(FedswapError):
    """A cluster assignment or exchange history is malformed."""


class InvalidSpec(FedswapError):
    """A domain specification is invalid."""


class NonFiniteLoss(FedswapError):
    """Local training diverged; usually a bad learning rate."""


class ConfigInvalid(FedswapError):
    """A server or experiment configuration violates its constraints."""


class MismatchedSeeds(FedswapError):
    """Strategy comparison requires identical seed sets per strategy."""
