"""Exception types shared across the package, and the checks that raise them."""

import math

import numpy as np


class ContractError(ValueError):
    """A call violated an operation's preconditions."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class Validated:
    """A config whose ``problems()`` lists what is wrong with it; ``validate`` raises them."""

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))


class SnapshotError(RuntimeError):
    """Snapshot data is corrupt, truncated, or from an unsupported version.

    ``unit`` is the position in its group of the unit at fault, where one is.
    """

    def __init__(self, message: str, unit: int | None = None):
        super().__init__(message)
        self.unit = unit


def check_bits(bits, shape: tuple, what: str) -> None:
    """Raise ``ContractError`` unless ``bits`` is a bool array of ``shape``.

    A 0/1 integer row is refused as well: ``&`` on it would be bitwise.
    """
    if not (isinstance(bits, np.ndarray) and bits.dtype == bool and bits.shape == shape):
        got = f"{getattr(bits, 'dtype', type(bits).__name__)} of shape {np.shape(bits)}"
        raise ContractError(f"{what} must be bool of shape {shape}, got {got}")


def loaded(value: np.ndarray, shape: tuple, dtype, what: str) -> np.ndarray:
    """A new ``dtype`` copy of a snapshot array, or ``SnapshotError`` if it does not fit.

    Indices (int64) may come in any integer dtype; float64 and bool must come
    as they are, so no value is rounded.  ``None`` in ``shape`` takes any length.
    """
    fits = value.dtype.kind in "iu" if dtype is np.int64 else value.dtype == dtype
    if not (fits and len(value.shape) == len(shape)
            and all(want in (None, got) for want, got in zip(shape, value.shape))):
        kind = "integers" if dtype is np.int64 else np.dtype(dtype).name
        want = tuple("n" if size is None else size for size in shape)
        raise SnapshotError(f"{what} must be {kind} of shape {want}, "
                            f"got {value.dtype} of shape {value.shape}")
    return value.astype(dtype)


def check_units(bad: np.ndarray, what: str, owners: np.ndarray | None = None) -> None:
    """Raise ``SnapshotError`` naming the unit of the first entry of ``bad`` that is set.

    Entry ``i`` along the first axis is unit ``owners[i]``'s, or unit ``i``'s.
    """
    flags = bad.reshape(len(bad), -1).any(axis=1) if bad.ndim > 1 else bad
    if flags.any():
        first = int(np.argmax(flags))
        raise SnapshotError(what, unit=first if owners is None else int(owners[first]))


# The largest count a config may give: far above any model the engine steps (the paper's
# cells have 288 input bits), and a product of two counts stays exact in int64 and float64.
MAX_COUNT = 2**16


def out_of_range(prefix: str, params, zero_ok: tuple = ()) -> list[str]:
    """A problem for each float field of the dataclass ``params`` that is NaN or infinite, and
    for each integer count, a field but a seed, outside [1, ``MAX_COUNT``], or outside
    [0, ``MAX_COUNT``] where ``zero_ok`` names it."""
    out = []
    for name, value in vars(params).items():
        low = 0 if name in zero_ok else 1
        if isinstance(value, float) and not math.isfinite(value):
            out.append(f"{prefix}.{name} must be finite, got {value}")
        elif type(value) is int and name != "seed" and not low <= value <= MAX_COUNT:
            out.append(f"{prefix}.{name} must be in [{low}, {MAX_COUNT}], got {value}")
    return out
