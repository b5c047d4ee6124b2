"""Exception types raised by the simulator: one class per audience."""


class FedswapError(Exception):
    """Base class for all simulator errors."""


class ConfigInvalid(FedswapError):
    """A config, domain, local-training setting or run directory is invalid;
    for the author of the config or the runs being compared."""


class NonFiniteLoss(FedswapError):
    """Local training diverged; usually a bad learning rate."""


class InvalidInput(FedswapError, ValueError):
    """A library function was called with malformed arguments: zero, empty or
    mismatched decoders, a malformed matrix, assignment or plan."""
