"""Exception types shared across the package, and the checks that raise them."""

import math

import numpy as np


class ContractError(ValueError):
    """A call violated an operation's preconditions."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class SnapshotError(RuntimeError):
    """Snapshot data is corrupt, truncated, or from an unsupported version."""


def check_bits(bits, width: int, what: str) -> None:
    """Raise ``ContractError`` unless ``bits`` is a 1-D bool array of ``width``.

    A 0/1 integer row is refused as well: ``&`` on it would be bitwise.
    """
    if not (isinstance(bits, np.ndarray) and bits.dtype == bool and bits.shape == (width,)):
        got = f"{getattr(bits, 'dtype', type(bits).__name__)} of shape {np.shape(bits)}"
        raise ContractError(f"{what} must be bool of shape ({width},), got {got}")


def non_finite(prefix: str, params) -> list[str]:
    """A problem for each float field of the dataclass ``params`` that is NaN or infinite."""
    return [f"{prefix}.{name} must be finite, got {value}"
            for name, value in vars(params).items()
            if isinstance(value, float) and not math.isfinite(value)]
