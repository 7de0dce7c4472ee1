"""Exception types shared across the package, and the checks that raise them."""

import math

import numpy as np


class ContractError(ValueError):
    """A call violated an operation's preconditions."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class SnapshotError(RuntimeError):
    """Snapshot data is corrupt, truncated, or from an unsupported version."""


def check_bits(bits, shape: tuple, what: str, error: type = ContractError) -> None:
    """Raise ``error`` unless ``bits`` is a bool array of ``shape``.

    A 0/1 integer row is refused as well: ``&`` on it would be bitwise.
    """
    if not (isinstance(bits, np.ndarray) and bits.dtype == bool and bits.shape == shape):
        got = f"{getattr(bits, 'dtype', type(bits).__name__)} of shape {np.shape(bits)}"
        raise error(f"{what} must be bool of shape {shape}, got {got}")


def check_indices(values: np.ndarray, bound: int, what: str, increasing: bool = True) -> None:
    """Raise ``SnapshotError`` unless ``values`` are integers in ``[0, bound)``.

    With ``increasing``, each row (the last axis) must also strictly increase,
    so that its ends bound it.
    """
    ok = values.dtype.kind in "iu"
    if ok and values.size:
        if increasing:
            ok = bool(np.all(values[..., 1:] > values[..., :-1]))
            low, high = values[..., 0].min(), values[..., -1].max()
        else:
            low, high = values.min(), values.max()
        ok = ok and low >= 0 and high < bound
    if not ok:
        order = "strictly increasing " if increasing else ""
        raise SnapshotError(f"{what} must be {order}integers in [0, {bound})")


def check_fractions(values: np.ndarray, what: str) -> None:
    """Raise ``SnapshotError`` unless every value lies in ``[0, 1]``; NaN does not."""
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise SnapshotError(f"{what} must lie in [0, 1]")


def non_finite(prefix: str, params) -> list[str]:
    """A problem for each float field of the dataclass ``params`` that is NaN or infinite."""
    return [f"{prefix}.{name} must be finite, got {value}"
            for name, value in vars(params).items()
            if isinstance(value, float) and not math.isfinite(value)]
